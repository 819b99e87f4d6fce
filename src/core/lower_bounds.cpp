#include "core/lower_bounds.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "base/bits.hpp"
#include "base/error.hpp"

namespace hyperpath {

int lemma3_min_dilation(int width) {
  HP_CHECK(width >= 1, "width must be positive");
  if (width == 1) return 1;
  // Two or more edge-disjoint paths between adjacent nodes: at most one can
  // be the direct edge; every other path has odd length >= 3 (Q_n is
  // bipartite).  Lemma 3 states the w > 2 case; adjacency makes it hold
  // from w = 2 already.
  return 3;
}

int lemma3_max_cost3_packets(int n) {
  HP_CHECK(n >= 1, "dimension must be positive");
  return n / 2;
}

PhaseCongestionBounds phase_congestion_bounds(const MultiPathEmbedding& emb,
                                              int packets_per_edge) {
  HP_CHECK(packets_per_edge >= 1, "need at least one packet per edge");
  PhaseCongestionBounds b;
  const Hypercube& host = emb.host();
  for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
    const auto bundle = emb.paths(e);
    HP_CHECK(!bundle.empty(), "guest edge without paths");
    const PathView any = bundle.front();
    b.demand_edges += static_cast<std::int64_t>(packets_per_edge) *
                      host.distance(any.front(), any.back());
  }
  const auto links = static_cast<std::int64_t>(host.num_directed_edges());
  b.floor = (b.demand_edges + links - 1) / links;
  const int width = emb.width();
  HP_CHECK(width >= 1, "embedding has empty bundles");
  const std::int64_t per_path =
      (packets_per_edge + width - 1) / width;  // ⌈p / w⌉ via round-robin
  b.ceiling = static_cast<std::int64_t>(emb.congestion()) * per_path;
  return b;
}

OraclePhaseFloor oracle_phase_floor(const PathOracle& oracle,
                                    std::span<const OracleEdge> edges,
                                    int packets_per_edge) {
  HP_CHECK(packets_per_edge >= 1, "need at least one packet per edge");
  OraclePhaseFloor b;
  const int n = oracle.host_dims();
  std::vector<Node> sources;
  sources.reserve(edges.size());
  for (const OracleEdge& e : edges) {
    const Node hu = oracle.host_of(e.from);
    const Node hv = oracle.host_of(e.to);
    b.demand_edges += static_cast<std::int64_t>(packets_per_edge) *
                      std::popcount(hu ^ hv);
    sources.push_back(hu);
  }
  const std::int64_t links =
      static_cast<std::int64_t>(n) * static_cast<std::int64_t>(pow2(n));
  b.floor = (b.demand_edges + links - 1) / links;
  // Source cut: the longest run in the sorted image list is the busiest
  // origin; its p·out(x) packets share n outgoing links.
  std::sort(sources.begin(), sources.end());
  std::int64_t run = 0;
  Node prev = kNoNode;
  for (const Node s : sources) {
    run = (s == prev) ? run + 1 : 1;
    prev = s;
    const std::int64_t cut =
        (run * packets_per_edge + n - 1) / n;  // ⌈p·out(x) / n⌉
    if (cut > b.floor) b.floor = cut;
  }
  return b;
}

std::int64_t edge_slot_slack(const MultiPathEmbedding& emb, int cost) {
  HP_CHECK(cost >= 1, "cost must be positive");
  std::int64_t used = 0;
  for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
    for (const PathView p : emb.paths(e)) {
      used += static_cast<std::int64_t>(p.size()) - 1;
    }
  }
  const std::int64_t available =
      static_cast<std::int64_t>(emb.host().num_directed_edges()) * cost;
  return available - used;
}

}  // namespace hyperpath
