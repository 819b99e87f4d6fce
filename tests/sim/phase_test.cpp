#include "sim/phase.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "ccc/ccc_embed.hpp"
#include "core/grid_multipath.hpp"
#include "core/transform.hpp"
#include "core/tree_multipath.hpp"
#include "embed/classical.hpp"
#include "graph/builders.hpp"

namespace hyperpath {
namespace {

TEST(Phase, GrayCycleOnePacketCostIsOne) {
  const auto emb = gray_code_cycle_embedding(4);
  const auto r = measure_phase_cost(emb, 1);
  EXPECT_EQ(r.makespan, 1);
}

// Section 2: with the classical Gray-code cycle, m packets per node need
// ~m steps (each node's single outgoing cycle link serializes them; the
// paper's lower bound is m/2 via the dimension-0 counting argument).
TEST(Phase, GrayCycleMPacketCostIsM) {
  const auto emb = gray_code_cycle_embedding(5);
  for (int m : {2, 4, 8}) {
    const auto r = measure_phase_cost(emb, m);
    EXPECT_EQ(r.makespan, m);
  }
}

TEST(Phase, PacketsRoundRobinOverBundle) {
  // Width-2 embedding of the 2-cycle; 4 packets per edge → 2 per path →
  // pipelined cost 2 + (2 − 1) = 3 over the length-2 paths.
  DigraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  MultiPathEmbedding emb(std::move(b).build(), 2);
  emb.set_node_map({0b00, 0b11});
  emb.set_paths(emb.guest().find_edge(0, 1),
                {{0b00, 0b01, 0b11}, {0b00, 0b10, 0b11}});
  emb.set_paths(emb.guest().find_edge(1, 0),
                {{0b11, 0b01, 0b00}, {0b11, 0b10, 0b00}});
  const auto packets = phase_packets(emb, 4);
  EXPECT_EQ(packets.size(), 8u);
  const auto r = measure_phase_cost(emb, 4);
  EXPECT_EQ(r.makespan, 3);
}

TEST(Phase, ShortestPathGetsExtraPackets) {
  // Bundle with one direct path and one length-3 path; p = 3 should put
  // packets 0 and 2 on the direct path.
  DigraphBuilder b(2);
  b.add_edge(0, 1);
  MultiPathEmbedding emb(std::move(b).build(), 3);
  emb.set_node_map({0b000, 0b001});
  emb.set_paths(0, {{0b000, 0b010, 0b011, 0b001}, {0b000, 0b001}});
  const auto packets = phase_packets(emb, 3);
  ASSERT_EQ(packets.size(), 3u);
  EXPECT_EQ(packets[0].route.size(), 2u);  // direct first
  EXPECT_EQ(packets[1].route.size(), 4u);
  EXPECT_EQ(packets[2].route.size(), 2u);
}

TEST(Phase, KCopyCyclesPhaseCostOne) {
  // Lemma 1: the copies are jointly congestion-1, so a 1-packet phase on
  // every copy simultaneously still finishes in one step.
  const auto emb = multicopy_directed_cycles(4);
  const auto r = measure_phase_cost(emb.multipath(), 1);
  EXPECT_EQ(r.makespan, 1);
}

TEST(Phase, KCopyPipelinedPackets) {
  const auto emb = multicopy_directed_cycles(4);
  const auto r = measure_phase_cost(emb.multipath(), 5);
  EXPECT_EQ(r.makespan, 5);  // each copy's links serialize its own packets
}

TEST(Phase, EvenCubeFullUtilization) {
  // For even n every directed link carries a packet in every step of a
  // 1-packet multicopy phase.
  const auto emb = multicopy_directed_cycles(6);
  const auto r = measure_phase_cost(emb.multipath(), 1);
  ASSERT_EQ(r.utilization.steps(), 1u);
  EXPECT_DOUBLE_EQ(r.utilization.profile()[0], 1.0);
}

TEST(Phase, UnwrittenEdgeIsAnError) {
  // Copy 1 is declared but never written: its union edges have no path,
  // which must be an error, not a packet routed on bundle path j mod 0.
  KCopyEmbedding emb(directed_cycle(4), 2, 2);
  emb.set_direct_copy(0, std::vector<Node>{0b00, 0b01, 0b11, 0b10});
  EXPECT_THROW(phase_packets(emb.multipath(), 1), Error);
}

/// The k-copy phase as its own packet builder produced it before k-copy
/// embeddings were stored as their copies' disjoint union: p packets per
/// guest edge per copy, in (copy, edge, packet) order, each on its copy's
/// single path.  The reference for KCopyUnionMatchesCopyMajorReference.
std::vector<Packet> kcopy_reference_packets(const KCopyEmbedding& emb, int p) {
  std::vector<Packet> packets;
  for (int c = 0; c < emb.num_copies(); ++c) {
    for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
      for (int j = 0; j < p; ++j) {
        Packet pk;
        pk.route = emb.path(c, e);
        packets.push_back(std::move(pk));
      }
    }
  }
  return packets;
}

TEST(Phase, KCopyUnionMatchesCopyMajorReference) {
  struct Case {
    const char* name;
    std::function<KCopyEmbedding()> make;
  };
  const std::vector<Case> cases = {
      {"ccc4", [] { return ccc_multicopy_embedding(4); }},
      {"ccc8", [] { return ccc_multicopy_embedding(8); }},
      {"torus8x8", [] { return multicopy_torus(GridSpec{{8, 8}, true}); }},
      {"butterfly4x6",
       [] { return repeat_copies(butterfly_multicopy_embedding(4), 6); }},
  };
  for (const Case& c : cases) {
    const KCopyEmbedding emb = c.make();
    for (const int p : {1, 3}) {
      SCOPED_TRACE(std::string(c.name) + " p=" + std::to_string(p));
      const std::vector<Packet> want = kcopy_reference_packets(emb, p);
      const std::vector<Packet> got = phase_packets(emb.multipath(), p);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].route, want[i].route) << "packet " << i;
        ASSERT_EQ(got[i].release, want[i].release) << "packet " << i;
      }
      const SimResult ref = StoreForwardSim(emb.host().dims()).run(want);
      const SimResult r = measure_phase_cost(emb.multipath(), p);
      EXPECT_EQ(r.makespan, ref.makespan);
      EXPECT_EQ(r.total_transmissions, ref.total_transmissions);
      EXPECT_EQ(r.max_queue, ref.max_queue);
      EXPECT_EQ(r.dim_transmissions, ref.dim_transmissions);
    }
  }
}

}  // namespace
}  // namespace hyperpath
