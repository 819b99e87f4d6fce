// Property tests across the embedding constructions: invariants that must
// hold for *every* construction in the library, checked uniformly.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "base/bits.hpp"
#include "core/cycle_multipath.hpp"
#include "core/grid_multipath.hpp"
#include "core/largecopy.hpp"
#include "core/transform.hpp"
#include "embed/classical.hpp"
#include "embed/io.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

struct Maker {
  const char* name;
  std::function<MultiPathEmbedding()> make;
};

std::vector<Maker> all_multipath_makers() {
  return {
      {"gray cycle", [] { return gray_code_cycle_embedding(6); }},
      {"theorem1", [] { return theorem1_cycle_embedding(8); }},
      {"theorem2", [] { return theorem2_cycle_embedding(8); }},
      {"grid", [] { return grid_multipath_embedding(GridSpec{{16, 16}, true}); }},
      {"transform", [] { return theorem4_transform(multicopy_directed_cycles(4)); }},
      {"largecopy cycle", [] { return largecopy_directed_cycle(6); }},
      {"largecopy ccc", [] { return largecopy_ccc(4); }},
  };
}

TEST(EmbeddingInvariants, EveryConstructionVerifies) {
  for (const auto& m : all_multipath_makers()) {
    const auto emb = m.make();
    EXPECT_NO_THROW(emb.verify_or_throw()) << m.name;
  }
}

TEST(EmbeddingInvariants, CongestionBoundsPhaseCost) {
  // One-packet cost ≥ max(dilation among shortest paths?, and ≤ measured):
  // the simulator can never beat congestion (some link must carry that
  // many packets serially) nor the dilation of the shortest bundle path.
  for (const auto& m : all_multipath_makers()) {
    const auto emb = m.make();
    const auto r = measure_phase_cost(emb, 1);
    int min_dilation_needed = 0;
    for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
      std::size_t shortest = SIZE_MAX;
      for (const auto& p : emb.paths(e)) shortest = std::min(shortest, p.size());
      min_dilation_needed =
          std::max(min_dilation_needed, static_cast<int>(shortest) - 1);
    }
    EXPECT_GE(r.makespan, min_dilation_needed) << m.name;
  }
}

TEST(EmbeddingInvariants, PacketsDeliveredEqualsEdgeCountTimesP) {
  for (const auto& m : all_multipath_makers()) {
    const auto emb = m.make();
    for (int p : {1, 3}) {
      const auto packets = phase_packets(emb, p);
      EXPECT_EQ(packets.size(), emb.guest().num_edges() * std::size_t(p))
          << m.name;
    }
  }
}

TEST(EmbeddingInvariants, CostMonotoneInPackets) {
  for (const auto& m : all_multipath_makers()) {
    const auto emb = m.make();
    int prev = 0;
    for (int p : {1, 2, 4, 8}) {
      const int cost = measure_phase_cost(emb, p).makespan;
      EXPECT_GE(cost, prev) << m.name << " p=" << p;
      prev = cost;
    }
  }
}

TEST(EmbeddingInvariants, CongestionSumsToTotalPathEdges) {
  for (const auto& m : all_multipath_makers()) {
    const auto emb = m.make();
    std::uint64_t total_hops = 0;
    for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
      for (const auto& p : emb.paths(e)) total_hops += p.size() - 1;
    }
    std::uint64_t cong_sum = 0;
    for (auto c : emb.congestion_per_link()) cong_sum += c;
    EXPECT_EQ(cong_sum, total_hops) << m.name;
  }
}

TEST(EmbeddingInvariants, TamperingIsAlwaysCaught) {
  // Corrupt each construction in a few standard ways; verify must throw.
  for (const auto& m : all_multipath_makers()) {
    {
      auto emb = m.make();
      // Point a bundle at the wrong endpoint.
      const Edge ge = emb.guest().edge(0);
      const Node wrong = emb.host_of(ge.to) ^ 1u;
      emb.set_paths(0, {{emb.host_of(ge.from), wrong}});
      if (wrong != emb.host_of(ge.to) && is_pow2(emb.host_of(ge.from) ^ wrong)) {
        EXPECT_THROW(emb.verify_or_throw(), Error) << m.name;
      }
    }
    {
      auto emb = m.make();
      // Teleporting path (a 2-bit hop).
      const Edge ge = emb.guest().edge(0);
      const Node a = emb.host_of(ge.from);
      const Node b = emb.host_of(ge.to);
      if (emb.host().distance(a, b) == 1) {
        emb.set_paths(0, {{a, a ^ 3u, b}});
        EXPECT_THROW(emb.verify_or_throw(), Error) << m.name;
      }
    }
  }
}

TEST(MultiPathEmbedding, SaveLoadSaveIsByteIdenticalForEveryConstruction) {
  for (const auto& m : all_multipath_makers()) {
    const auto emb = m.make();
    std::stringstream first;
    save_multipath(first, emb);
    std::stringstream in(first.str());
    const MultiPathEmbedding back = load_multipath(in, emb.load());
    std::stringstream second;
    save_multipath(second, back);
    EXPECT_EQ(first.str(), second.str()) << m.name;
  }
}

TEST(EmbeddingInvariants, ExpansionAtLeastOneWhenOneToOne) {
  // Expansion < 1 is only possible for many-to-one (large-copy) embeddings,
  // whose guests are larger than the host.
  for (const auto& m : all_multipath_makers()) {
    const auto emb = m.make();
    if (emb.load() == 1) {
      EXPECT_GE(emb.expansion(), 1.0 - 1e-9) << m.name;
    } else {
      // Capacity: host nodes × load must cover the guest.
      EXPECT_GE(emb.host().num_nodes() * static_cast<std::uint64_t>(emb.load()),
                emb.guest().num_nodes())
          << m.name;
    }
  }
}

}  // namespace
}  // namespace hyperpath
