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
  // The stored hops and nodes are reserved exactly: grown by doubling, the
  // buffers' chains of reallocations would raise the peak RSS of repeated
  // phases (hpbench oracle_phase_q24).
  std::uint64_t stored_hops = 0;
  std::uint64_t stored_routes = 0;
  for (const OracleEdge& e : edges) {
    slot_order(oracle, e, hops, order);
    const int slots = std::min<int>(p, static_cast<int>(order.size()));
    for (int s = 0; s < slots; ++s) stored_hops += hops[order[s]];
    stored_routes += slots;
  }
  glinks.reserve(glinks.size() + stored_hops);
  plan.reserve(plan.num_routes() + edges.size() * static_cast<std::size_t>(p),
               0);
  plan.route_nodes.reserve(plan.route_nodes.size() + stored_hops +
                           stored_routes);
  VectorSink sink(plan.route_nodes);
  for (const OracleEdge& e : edges) {
    slot_order(oracle, e, hops, order);
    const int w = static_cast<int>(order.size());
    const std::uint32_t first = plan.num_routes();
    for (int j = 0; j < p; ++j) {
      if (j < w) {  // first packet on slot j: stream its path, once
        plan.begin_route(0);
        oracle.path(e, order[j], sink);
        plan.end_route_unlinked(dims, glinks, "oracle route invalid");
      } else {  // later packets ride the slot's compiled hops
        plan.repeat_route(first + static_cast<std::uint32_t>(j % w), 0);
      }
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
    std::vector<std::uint64_t> glinks;  // global link id per stored hop
    {
      HP_PROFILE_SPAN("compile");
      compile_oracle_phase(oracle, edges, spec.packets_per_edge, plan, glinks);
    }
    HP_PROFILE_SPAN("renumber");
    plan.compact_links(std::move(glinks), dims);
    // Peak static load, counted per route: a shared segment counts once
    // for each packet that rides it.
    std::vector<std::uint32_t> load(plan.global_link.size(), 0);
    std::uint32_t peak = 0;
    for (std::uint32_t r = 0; r < plan.num_routes(); ++r) {
      const std::uint32_t* hop =
          plan.link_of_hop.data() + plan.route_offsets[r];
      for (std::uint32_t h = 0; h < plan.route_len[r]; ++h) {
        peak = std::max(peak, ++load[hop[h]]);
      }
    }
    result.peak_congestion = peak;
  }

  const std::uint32_t num_routes = plan.num_routes();
  const std::uint64_t num_links = plan.global_link.size();
  result.unique_links = num_links;
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
  // Each packet's route has one node more than it has hops.
  result.route_nodes = num_routes + r.total_transmissions;
  // Hand the phase-sized kernel state back rather than pin it in this
  // thread's scratch after the phase is over.
  simcore::step_scratch() = simcore::StepScratch{};
  return result;
}

}  // namespace hyperpath
