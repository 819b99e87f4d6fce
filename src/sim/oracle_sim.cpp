#include "sim/oracle_sim.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {

namespace {

/// NodeSink that appends a streamed path's nodes to `nodes` and each hop's
/// global link id to `glinks`.  One instance serves a whole compilation:
/// reset() before each path.
class HopSink final : public NodeSink {
 public:
  HopSink(std::vector<Node>& nodes, std::vector<std::uint64_t>& glinks,
          int dims)
      : nodes_(nodes), glinks_(glinks), dims_(dims) {}

  void reset() { first_ = true; }

  void push(Node v) override {
    if (!first_) {
      const Node diff = prev_ ^ v;
      HP_CHECK(std::popcount(diff) == 1, "oracle emitted a non-hypercube hop");
      glinks_.push_back(static_cast<std::uint64_t>(prev_) * dims_ +
                        std::countr_zero(diff));
    }
    nodes_.push_back(v);
    prev_ = v;
    first_ = false;
  }

 private:
  std::vector<Node>& nodes_;
  std::vector<std::uint64_t>& glinks_;
  int dims_;
  Node prev_ = 0;
  bool first_ = true;
};

}  // namespace

void add_oracle_route(const PathOracle& oracle, const OracleEdge& edge,
                      int path_index, std::uint32_t release_step,
                      simcore::RoutePlan& plan,
                      std::vector<std::uint64_t>& glinks) {
  HopSink sink(plan.route_nodes, glinks, oracle.host_dims());
  plan.begin_route(release_step);
  oracle.path(edge, path_index, sink);
  plan.end_route_unlinked(oracle.host_dims(), "oracle route invalid");
}

void compile_oracle_phase(const PathOracle& oracle,
                          std::span<const OracleEdge> edges,
                          int packets_per_edge, simcore::RoutePlan& plan,
                          std::vector<std::uint64_t>& glinks) {
  const int dims = oracle.host_dims();
  const int p = packets_per_edge;
  HP_CHECK(p > 0, "packets_per_edge must be positive");
  // One edge's distinct bundle paths, back to back: slot s holds the nodes
  // [stage_off[s], stage_off[s + 1]) and, since each path has one hop
  // fewer than nodes, the global ids from stage_off[s] - s on.
  std::vector<Node> stage_nodes;
  std::vector<std::uint64_t> stage_links;
  std::vector<std::uint32_t> stage_off;
  std::vector<std::uint32_t> hops;
  std::vector<int> order;
  HopSink sink(stage_nodes, stage_links, dims);
  plan.reserve(plan.num_routes() + edges.size() * static_cast<std::size_t>(p),
               0);
  for (const OracleEdge& e : edges) {
    const int w = oracle.width(e);
    HP_CHECK(w > 0, "demanded guest edge has an empty bundle");
    hops.resize(w);
    for (int i = 0; i < w; ++i) hops[i] = oracle.path_hops(e, i);
    order.resize(w);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return hops[a] < hops[b]; });
    stage_nodes.clear();
    stage_links.clear();
    stage_off.assign(1, 0);
    for (int j = 0; j < p; ++j) {
      const int s = j % w;
      if (j < w) {  // first packet on slot s: stream its path, once
        sink.reset();
        oracle.path(e, order[s], sink);
        stage_off.push_back(static_cast<std::uint32_t>(stage_nodes.size()));
      }
      const std::uint32_t first = stage_off[s];
      const std::uint32_t last = stage_off[s + 1];
      plan.begin_route(0);
      plan.push_nodes({stage_nodes.data() + first, last - first});
      plan.end_route_unlinked(dims, "oracle route invalid");
      // The route has at least one node now, so the hop slice is well formed.
      glinks.insert(glinks.end(), stage_links.begin() + (first - s),
                    stage_links.begin() + (last - s - 1));
    }
  }
  if (plan.route_offsets.empty()) plan.route_offsets.push_back(0);
}

OraclePhaseResult run_oracle_phase(const PathOracle& oracle,
                                   std::span<const OracleEdge> edges,
                                   const OraclePhaseSpec& spec) {
  HP_PROFILE_SPAN("sim/oracle_phase");
  const int dims = oracle.host_dims();

  OraclePhaseResult result;
  result.dim_transmissions.assign(dims, 0);

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

  // A plan without hops has nothing to move (and would read as dense).
  if (num_links > 0) {
    SimResult r = run_plan<false, false>(plan, dims, Arbitration::kFifo,
                                         spec.max_steps, nullptr, nullptr,
                                         false, nullptr);
    result.makespan = r.makespan;
    result.total_transmissions = r.total_transmissions;
    result.max_queue = static_cast<std::uint32_t>(r.max_queue);
    result.dim_transmissions = std::move(r.dim_transmissions);
    // Hand the phase-sized kernel state back rather than pin it in this
    // thread's scratch after the phase is over.
    simcore::step_scratch() = simcore::StepScratch{};
  }
  return result;
}

}  // namespace hyperpath
