#include "core/grid_multipath.hpp"

#include <gtest/gtest.h>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

TEST(GridSupport, ChecksAxes) {
  EXPECT_TRUE(grid_multipath_supported(GridSpec{{16, 16}, false}));
  EXPECT_TRUE(grid_multipath_supported(GridSpec{{16, 16}, true}));
  EXPECT_TRUE(grid_multipath_supported(GridSpec{{10, 16}, false}));  // rounds up
  EXPECT_FALSE(grid_multipath_supported(GridSpec{{10, 16}, true}));  // wrap
  EXPECT_FALSE(grid_multipath_supported(GridSpec{{8, 8}, false}));   // 3 bits
  EXPECT_FALSE(grid_multipath_supported(GridSpec{{1, 16}, false}));
}

// Corollary 1: k-axis grid with sides 2^a, width ⌊a/2⌋+…, cost 3.
TEST(GridMultipath, TwoAxisTorus) {
  const GridSpec spec{{16, 16}, true};
  const auto emb = grid_multipath_embedding(spec);
  EXPECT_EQ(emb.host().dims(), 8);
  EXPECT_EQ(emb.load(), 1);
  EXPECT_EQ(emb.width(), 2 * (4 / 4) + 1);  // per-axis 2k+1 = 3
  EXPECT_EQ(emb.dilation(), 3);
  EXPECT_NO_THROW(emb.verify_or_throw());

  // Cost 3 with ⌊a/2⌋ = 2 packets per edge.
  const auto r = measure_phase_cost(emb, 2);
  EXPECT_EQ(r.makespan, 3);
}

TEST(GridMultipath, NonWrapGridUsesSubPath) {
  const GridSpec spec{{16, 16}, false};
  const auto emb = grid_multipath_embedding(spec);
  EXPECT_EQ(emb.load(), 1);
  EXPECT_NO_THROW(emb.verify_or_throw());
  const auto r = measure_phase_cost(emb, 2);
  EXPECT_LE(r.makespan, 3);
}

TEST(GridMultipath, RoundedUpSidesHaveExpansion) {
  const GridSpec spec{{10, 16}, false};
  const auto emb = grid_multipath_embedding(spec);
  EXPECT_EQ(emb.host().dims(), 4 + 4);
  EXPECT_EQ(emb.load(), 1);
  // 160 guest nodes in a 256-node host; smallest fitting hypercube is 256,
  // so paper-expansion is 1 here even though nodes go unused.
  EXPECT_DOUBLE_EQ(emb.expansion(), 1.0);
  EXPECT_NO_THROW(emb.verify_or_throw());
}

TEST(GridMultipath, ThreeAxis) {
  const GridSpec spec{{16, 16, 16}, true};
  const auto emb = grid_multipath_embedding(spec);
  EXPECT_EQ(emb.host().dims(), 12);
  EXPECT_NO_THROW(emb.verify_or_throw());
  const auto r = measure_phase_cost(emb, 2);
  EXPECT_EQ(r.makespan, 3);
}

TEST(GridMultipath, RejectsUnsupported) {
  EXPECT_THROW(grid_multipath_embedding(GridSpec{{8, 8}, false}), Error);
}

// §8.1: multiple-copy tori from multiple-copy cycles via cross products.
TEST(MulticopyTorus, CopiesWithJointCongestionOne) {
  const GridSpec spec{{16, 16}, true};
  const auto emb = multicopy_torus(spec);
  EXPECT_EQ(emb.num_copies(), 4);  // min axis family size = 2·⌊4/2⌋
  EXPECT_EQ(emb.dilation(), 1);
  EXPECT_EQ(emb.edge_congestion(), 1);
  EXPECT_NO_THROW(emb.verify_or_throw(1));
}

TEST(MulticopyTorus, MixedSides) {
  const auto emb = multicopy_torus(GridSpec{{4, 16}, true});
  EXPECT_EQ(emb.num_copies(), 2);  // limited by the 2-bit axis
  EXPECT_NO_THROW(emb.verify_or_throw(1));
}

TEST(MulticopyTorus, PhaseCostOne) {
  const auto emb = multicopy_torus(GridSpec{{8, 8}, true});
  EXPECT_EQ(measure_phase_cost(emb.multipath(), 1).makespan, 1);
}

TEST(MulticopyTorus, Rejections) {
  EXPECT_THROW(multicopy_torus(GridSpec{{16, 16}, false}), Error);  // no wrap
  EXPECT_THROW(multicopy_torus(GridSpec{{16, 10}, true}), Error);   // non-pow2
  EXPECT_THROW(multicopy_torus(GridSpec{{2, 16}, true}), Error);    // side 2
}

}  // namespace
}  // namespace hyperpath
