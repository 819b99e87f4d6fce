#include "sim/oracle_sim.hpp"

#include <algorithm>
#include <numeric>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {

void add_oracle_route(const PathOracle& oracle, const OracleEdge& edge,
                      int path_index, std::uint32_t release_step,
                      simcore::RoutePlan& plan,
                      std::vector<std::uint64_t>& glinks) {
  VectorSink sink(plan.route_nodes);
  plan.begin_route(release_step);
  oracle.path(edge, path_index, sink);
  plan.end_route_unlinked(oracle.host_dims(), glinks, "oracle route invalid");
}

namespace {

/// Edge e's bundle indices stable-sorted by path length into `order` —
/// packet j of the edge rides path order[j mod width] — and each path's
/// hop count into `hops`.
void slot_order(const PathOracle& oracle, const OracleEdge& e,
                std::vector<std::uint32_t>& hops, std::vector<int>& order) {
  const int w = oracle.width(e);
  HP_CHECK(w > 0, "demanded guest edge has an empty bundle");
  hops.resize(w);
  for (int i = 0; i < w; ++i) hops[i] = oracle.path_hops(e, i);
  order.resize(w);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return hops[a] < hops[b]; });
}

}  // namespace

void compile_oracle_phase(const PathOracle& oracle,
                          std::span<const OracleEdge> edges,
                          int packets_per_edge, simcore::RoutePlan& plan,
                          std::vector<std::uint64_t>& glinks) {
  const int dims = oracle.host_dims();
  const int p = packets_per_edge;
  HP_CHECK(p > 0, "packets_per_edge must be positive");
  std::vector<std::uint32_t> hops;
  std::vector<int> order;
  // The hop ids are reserved exactly: grown by doubling to a Q_24 phase's
  // 33 MB, the buffer's chain of reallocations would raise the peak RSS of
  // repeated phases by ~10 % (hpbench oracle_phase_q24).
  std::uint64_t total_hops = 0;
  for (const OracleEdge& e : edges) {
    slot_order(oracle, e, hops, order);
    for (int j = 0; j < p; ++j) total_hops += hops[order[j % order.size()]];
  }
  glinks.reserve(glinks.size() + total_hops);
  // One edge's distinct bundle paths, back to back: slot s holds the nodes
  // [stage_off[s], stage_off[s + 1]).
  std::vector<Node> stage_nodes;
  std::vector<std::uint32_t> stage_off;
  VectorSink sink(stage_nodes);
  plan.reserve(plan.num_routes() + edges.size() * static_cast<std::size_t>(p),
               0);
  for (const OracleEdge& e : edges) {
    slot_order(oracle, e, hops, order);
    const int w = static_cast<int>(order.size());
    stage_nodes.clear();
    stage_off.assign(1, 0);
    for (int j = 0; j < p; ++j) {
      const int s = j % w;
      if (j < w) {  // first packet on slot s: stream its path, once
        oracle.path(e, order[s], sink);
        stage_off.push_back(static_cast<std::uint32_t>(stage_nodes.size()));
      }
      const std::uint32_t first = stage_off[s];
      const std::uint32_t last = stage_off[s + 1];
      plan.begin_route(0);
      plan.push_nodes({stage_nodes.data() + first, last - first});
      plan.end_route_unlinked(dims, glinks, "oracle route invalid");
    }
  }
}

OraclePhaseResult run_oracle_phase(const PathOracle& oracle,
                                   std::span<const OracleEdge> edges,
                                   const OraclePhaseSpec& spec) {
  HP_PROFILE_SPAN("sim/oracle_phase");
  const int dims = oracle.host_dims();

  OraclePhaseResult result;

  simcore::RoutePlan plan;
  {
    std::vector<std::uint64_t> glinks;  // global link id per hop, in hop order
    {
      HP_PROFILE_SPAN("compile");
      compile_oracle_phase(oracle, edges, spec.packets_per_edge, plan, glinks);
    }
    HP_PROFILE_SPAN("renumber");
    result.peak_congestion = plan.compact_links(std::move(glinks), dims);
  }

  const std::uint32_t num_routes = plan.num_routes();
  const std::uint64_t num_links = plan.global_link.size();
  result.unique_links = num_links;
  result.route_nodes = plan.route_nodes.size();
  result.compiled_bytes =
      plan.route_nodes.size() * sizeof(Node) +
      plan.route_offsets.size() * sizeof(std::uint32_t) +
      plan.link_of_hop.size() * sizeof(std::uint32_t) +
      plan.route_len.size() * sizeof(std::uint32_t) +
      plan.release.size() * sizeof(std::uint32_t) +
      plan.global_link.size() * sizeof(std::uint64_t) + plan.dim_of.size() +
      num_links * simcore::LinkFifoArena::kBytesPerLink +
      num_routes * (simcore::LinkFifoArena::kBytesPerPacket +
                    sizeof(std::uint32_t));  // arena next + hop cursor
  // Fault-free, so every route completes, zero-hop ones included.
  result.delivered = num_routes;

  SimResult r = run_plan<false, false>(plan, dims, Arbitration::kFifo,
                                       spec.max_steps, nullptr, nullptr, false,
                                       nullptr);
  result.makespan = r.makespan;
  result.total_transmissions = r.total_transmissions;
  result.max_queue = static_cast<std::uint32_t>(r.max_queue);
  result.dim_transmissions = std::move(r.dim_transmissions);
  // Hand the phase-sized kernel state back rather than pin it in this
  // thread's scratch after the phase is over.
  simcore::step_scratch() = simcore::StepScratch{};
  return result;
}

}  // namespace hyperpath
