#include "sim/oracle_sim.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {

namespace {

/// NodeSink that feeds the RoutePlan streaming API and records global link
/// ids on the side.  One instance serves a whole compilation: reset() per
/// route, plan.end_route_unlinked() by the caller.
class PlanSink final : public NodeSink {
 public:
  PlanSink(simcore::RoutePlan& plan, std::vector<std::uint64_t>& glinks,
           int dims)
      : plan_(plan), glinks_(glinks), dims_(dims) {}

  void reset() { first_ = true; }

  void push(Node v) override {
    if (!first_) {
      const Node diff = prev_ ^ v;
      HP_CHECK(std::popcount(diff) == 1, "oracle emitted a non-hypercube hop");
      glinks_.push_back(static_cast<std::uint64_t>(prev_) * dims_ +
                        std::countr_zero(diff));
    }
    plan_.push_node(v);
    prev_ = v;
    first_ = false;
  }

 private:
  simcore::RoutePlan& plan_;
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
  PlanSink sink(plan, glinks, oracle.host_dims());
  plan.begin_route(release_step);
  oracle.path(edge, path_index, sink);
  plan.end_route_unlinked(oracle.host_dims(), "oracle route invalid");
}

OraclePhaseResult run_oracle_phase(const PathOracle& oracle,
                                   std::span<const OracleEdge> edges,
                                   const OraclePhaseSpec& spec) {
  HP_PROFILE_SPAN("sim/oracle_phase");
  const int dims = oracle.host_dims();
  const int p = spec.packets_per_edge;
  HP_CHECK(p > 0, "packets_per_edge must be positive");

  OraclePhaseResult result;
  result.dim_transmissions.assign(dims, 0);

  simcore::RoutePlan plan;
  std::vector<std::uint64_t> glinks;  // global link id per hop, in hop order

  {
    // Streaming compilation: phase_packets ordering (bundle indices
    // stable-sorted by increasing path length; packet j rides
    // order[j mod width]), but no Packet or HostPath ever exists.
    HP_PROFILE_SPAN("compile");
    PlanSink sink(plan, glinks, dims);
    std::vector<int> order;
    for (const OracleEdge& e : edges) {
      const int w = oracle.width(e);
      HP_CHECK(w > 0, "demanded guest edge has an empty bundle");
      order.resize(w);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return oracle.path_hops(e, a) < oracle.path_hops(e, b);
      });
      for (int j = 0; j < p; ++j) {
        sink.reset();
        plan.begin_route(0);
        oracle.path(e, order[j % w], sink);
        plan.end_route_unlinked(dims, "oracle route invalid");
      }
    }
    if (plan.route_offsets.empty()) plan.route_offsets.push_back(0);
  }

  {
    HP_PROFILE_SPAN("renumber");
    result.peak_congestion = plan.compact_links(glinks, dims);
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
      num_links * 3 * sizeof(std::uint32_t) +  // arena head/tail/depth
      num_routes * 2 * sizeof(std::uint32_t);  // hop + arena next
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
