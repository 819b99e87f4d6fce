#include "sim/oracle_sim.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "sim/phase.hpp"
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

/// One demanded edge's bundle, fetched by one oracle query into buffers
/// reused across edges, and its slot order (phase.hpp).
struct EdgeBundle {
  std::vector<Node> nodes;
  std::vector<std::size_t> ends;
  std::vector<std::uint32_t> order;

  void load(const PathOracle& oracle, const OracleEdge& e) {
    nodes.clear();
    ends.clear();
    oracle.append_bundle(e, nodes, ends);
    HP_CHECK(!ends.empty(), "demanded guest edge has an empty bundle");
    slot_order(ends.size(), [&](std::uint32_t i) { return size(i); }, order);
  }

  std::size_t begin(std::uint32_t i) const { return i == 0 ? 0 : ends[i - 1]; }
  /// Path i's node count: its hops plus one.
  std::size_t size(std::uint32_t i) const { return ends[i] - begin(i); }
};

}  // namespace

std::span<std::uint64_t> compile_oracle_phase(
    const PathOracle& oracle, std::span<const OracleEdge> edges,
    int packets_per_edge, simcore::RoutePlan& plan,
    ScratchPool& pool) {
  const int dims = oracle.host_dims();
  const int p = packets_per_edge;
  HP_CHECK(p > 0, "packets_per_edge must be positive");
  EdgeBundle bundle;
  plan.clear();
  plan.reserve(edges.size() * static_cast<std::size_t>(p), 0);
  pool.begin();
  std::span<std::uint64_t> ids;
  for (const OracleEdge& e : edges) {
    bundle.load(oracle, e);
    const std::size_t w = bundle.order.size();
    const std::uint32_t first = plan.num_routes();
    for (int j = 0; j < p; ++j) {
      if (static_cast<std::size_t>(j) < w) {  // slot j's first packet
        const std::uint32_t i = bundle.order[j];
        plan.add_route_unlinked(
            {bundle.nodes.data() + bundle.begin(i), bundle.size(i)}, 0, dims,
            pool, ids, "oracle route invalid");
      } else {  // later packets ride the slot's compiled hops
        plan.repeat_route(first + static_cast<std::uint32_t>(j % w), 0);
      }
    }
  }
  return pool.resize(ids, plan.stored_hops());
}

OraclePhaseResult run_oracle_phase(const PathOracle& oracle,
                                   std::span<const OracleEdge> edges,
                                   const OraclePhaseSpec& spec) {
  HP_PROFILE_SPAN("sim/oracle_phase");
  const int dims = oracle.host_dims();
  const std::uint32_t p = spec.packets_per_edge;

  OraclePhaseResult result;

  // The plan and the pool stay in the thread's scratch for its next phase.
  simcore::StepScratch& scratch = simcore::step_scratch();
  simcore::RoutePlan& plan = scratch.plan;
  {
    std::span<std::uint64_t> ids;  // global link id per stored hop
    {
      HP_PROFILE_SPAN("compile");
      ids = compile_oracle_phase(oracle, edges, spec.packets_per_edge, plan,
                                 scratch.pool);
    }
    HP_PROFILE_SPAN("renumber");
    plan.compact_links(scratch.pool, ids, dims);
    // Peak static load.  Packet j of an edge of width w rides slot j mod w,
    // so slot s's stored segment carries ⌈(p − s)/w⌉ packets, and counts
    // once with that weight.
    scratch.pool.begin();
    const std::span<std::uint32_t> load =
        scratch.pool.make<std::uint32_t>(plan.global_link.size());
    std::ranges::fill(load, 0);
    std::uint32_t peak = 0;
    std::uint32_t first = 0;  // the edge's first route
    for (const OracleEdge& e : edges) {
      const auto w = static_cast<std::uint32_t>(oracle.width(e));
      for (std::uint32_t s = 0; s < w && s < p; ++s) {
        const std::uint32_t riders = (p - s + w - 1) / w;
        const std::uint32_t* hop =
            plan.link_of_hop.data() + plan.route_offsets[first + s];
        for (std::uint32_t h = 0; h < plan.route_len[first + s]; ++h) {
          peak = std::max(peak, load[hop[h]] += riders);
        }
      }
      first += p;
    }
    result.peak_congestion = peak;
  }

  const std::uint32_t num_routes = plan.num_routes();
  const std::uint64_t num_links = plan.global_link.size();
  result.unique_links = num_links;
  result.compiled_bytes =
      plan.route_offsets.size() * sizeof(std::uint32_t) +
      plan.link_of_hop.size() * sizeof(std::uint32_t) +
      plan.route_len.size() * sizeof(std::uint32_t) +
      plan.release.size() * sizeof(std::uint32_t) +
      plan.global_link.size() * sizeof(std::uint64_t) + plan.dim_of.size() +
      plan.host_order.size() * sizeof(std::uint32_t) +
      num_links * simcore::LinkFifoArena::kBytesPerLink +
      num_routes * (simcore::LinkFifoArena::kBytesPerPacket +
                    sizeof(std::uint32_t));  // arena next + hop cursor
  // Fault-free, so every route completes, zero-hop ones included.
  result.delivered = num_routes;

  constexpr int kMaxSteps = 1 << 22;  // StoreForwardSim::run's default
  static_cast<SimResult&>(result) =
      spec.sink != nullptr
          ? run_plan<true, false>(plan, dims, spec.policy, kMaxSteps,
                                  spec.sink, nullptr, false, nullptr)
          : run_plan<false, false>(plan, dims, spec.policy, kMaxSteps,
                                   nullptr, nullptr, false, nullptr);
  // Each packet's route has one node more than it has hops.
  result.route_nodes = num_routes + result.total_transmissions;
  return result;
}

}  // namespace hyperpath
