// Deep sweeps that exercise the closed forms and constructions at sizes
// where table-driven shortcuts or 32-bit arithmetic would betray bugs.
#include <gtest/gtest.h>

#include <set>

#include "base/bits.hpp"
#include "base/gray.hpp"
#include "base/moment.hpp"
#include "base/rng.hpp"
#include "ccc/ccc_embed.hpp"
#include "hamdecomp/tables.hpp"
#include "hamdecomp_solver/solver.hpp"

namespace hyperpath {
namespace {

TEST(DeepSweep, GrayClosedFormAtK20) {
  const int k = 20;
  Rng rng(61);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t i = rng.below(pow2(k));
    const Node v = gray_node_at(k, i);
    EXPECT_EQ(gray_rank(k, v), i);
    // Adjacent ranks differ in exactly the transition dimension.
    const std::uint64_t j = (i + 1) % pow2(k);
    EXPECT_EQ(v ^ gray_node_at(k, j), bit(gray_transition_at(k, i)));
  }
}

TEST(DeepSweep, MomentLemma2SampledAtN24) {
  Rng rng(62);
  for (int trial = 0; trial < 500; ++trial) {
    const Node u = static_cast<Node>(rng.below(pow2(24)));
    std::set<Node> seen;
    for (Dim d = 0; d < 24; ++d) {
      EXPECT_TRUE(seen.insert(moment(flip_bit(u, d))).second);
    }
  }
}

TEST(DeepSweep, CccSpecsAtN16) {
  // Theorem 3's windows/signatures for n = 16 (r = 4): all 16 specs are
  // well-formed and pairwise satisfy Observations 4/5 — without building
  // the (16·65536-node) embedding itself.
  const int n = 16, r = 4;
  std::vector<CccEmbedSpec> specs;
  for (int k = 0; k < n; ++k) {
    specs.push_back(ccc_multicopy_spec(n, k));
    EXPECT_NO_THROW(specs.back().verify_or_throw());
    EXPECT_EQ(specs.back().w[0], 1);
  }
  for (int k1 = 0; k1 < n; ++k1) {
    for (int k2 = k1 + 1; k2 < n; ++k2) {
      EXPECT_EQ(common_prefix_len(specs[k1].w, specs[k2].w),
                common_prefix_len(static_cast<Node>(k1),
                                  static_cast<Node>(k2), r) +
                    1);
      for (int l = 0; l < n; l += 3) {
        EXPECT_EQ(common_prefix_len_lsb(specs[k1].ham[l], specs[k2].ham[l], r),
                  common_prefix_len(static_cast<Node>(k1),
                                    static_cast<Node>(k2), r));
      }
    }
  }
}

TEST(DeepSweep, SolverStressAcrossSeeds) {
  // The constructive solver must succeed for every seed — retries are
  // internal, so a return is always a verified decomposition.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    EXPECT_NO_THROW(solve_even_decomposition(8, seed).verify_or_throw());
  }
  EXPECT_NO_THROW(solve_even_decomposition(10, 4242).verify_or_throw());
}

TEST(DeepSweep, TablesMatchSolverStructure) {
  // Table entries decode, verify, and have the advertised shape.
  for (int dims : {4, 6, 8, 10, 12, 14}) {
    const auto entry = table_decomposition(dims);
    ASSERT_TRUE(entry.has_value()) << dims;
    EXPECT_EQ(entry->dims, dims);
    EXPECT_EQ(entry->cycles.size(), static_cast<std::size_t>(dims / 2));
    EXPECT_NO_THROW(entry->verify_or_throw());
  }
  EXPECT_FALSE(table_decomposition(16).has_value());
  EXPECT_FALSE(table_decomposition(5).has_value());
}

TEST(DeepSweep, TransitionCodecRoundTrip) {
  const auto& d = hamiltonian_decomposition(8);
  for (const auto& cyc : d.cycles) {
    // Rotate to start at the cycle's own first node and round-trip.
    const std::string enc = encode_cycle_transitions(cyc);
    EXPECT_EQ(decode_cycle_transitions(enc, cyc.front()), cyc);
  }
}

}  // namespace
}  // namespace hyperpath
