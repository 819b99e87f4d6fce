#include "sim/store_forward.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "sim/faults.hpp"
#include "sim/simcore.hpp"
#include "sim/step_kernel.hpp"

namespace hyperpath {

using obs::TraceEvent;
using obs::TraceEventKind;
using simcore::kPrefetchDistance;

namespace {

/// The one store-and-forward step loop: setup, release, fault events and
/// truncation, the sweep, arrivals, drain.  State is reused
/// from the thread's StepScratch; scratch.active is the one worklist of
/// links with nonempty queues.  `links` is the plan's link space
/// (step_kernel.hpp): every id that enters or leaves the loop — trace
/// events, dead links, fates — is a host id.  The specialization matrix is
/// documented in step_kernel.hpp.
template <bool Traced, bool Faulted, typename Links>
SimResult run_plan_in(const simcore::RoutePlan& plan, int dims, Links links,
                      Arbitration policy, int max_steps,
                      obs::TraceSink* sink,
                      [[maybe_unused]] const FaultSchedule* schedule,
                      [[maybe_unused]] bool announce_faults,
                      FaultRunResult* fault_out) {
  simcore::StepScratch& scratch = simcore::step_scratch();
  const std::uint32_t num_routes = plan.num_routes();
  const std::uint64_t num_links = links.size();
  obs::StepTrace trace(sink);

  std::uint32_t* hop;  // per-route hop cursor, beside the arena in the pool
  {
    HP_PROFILE_SPAN("setup");
    scratch.pool.begin(
        simcore::LinkFifoArena::pool_bytes(num_links, num_routes) +
        ScratchPool::bytes<std::uint32_t>(num_routes));
    scratch.arena.reset(scratch.pool, num_links, num_routes);
    hop = scratch.pool.make<std::uint32_t>(num_routes).data();
    std::fill_n(hop, num_routes, 0);
    scratch.pending.clear();
    scratch.dead.clear();
    scratch.moved_mask.assign((num_routes + 63) / 64, 0);
    scratch.active.clear();
    if constexpr (Traced) scratch.highwater.assign(num_links, 0);
  }

  simcore::LinkFifoArena& arena = scratch.arena;
  std::vector<std::uint32_t>& active = scratch.active;
  auto& pending = scratch.pending;
  std::vector<std::uint32_t>& dead = scratch.dead;
  const std::uint32_t* const route_len = plan.route_len.data();
  const std::uint32_t* const route_off = plan.route_offsets.data();
  const std::uint32_t* const link_of_hop = plan.link_of_hop.data();
  const std::uint32_t* const release = plan.release.data();

  std::size_t undelivered = 0;

  std::optional<FaultTimeline> timeline;
  if constexpr (Faulted) timeline.emplace(*schedule);
  if (fault_out != nullptr) {
    fault_out->fates.assign(num_routes, PacketFate{});
  }

  const auto enqueue = [&](std::uint32_t id) {
    const std::uint64_t link = link_of_hop[route_off[id] + hop[id]];
    arena.push_back(link, id, active);
    return link;
  };

  {
    HP_PROFILE_SPAN("setup");
    {
      HP_PROFILE_SPAN("release");
      for (std::uint32_t id = 0; id < num_routes; ++id) {
        // A route's first link is link_of_hop[route_off[id]]; a hop-free
        // route has none (for the last route that index is one past the
        // end), so only routes with hops are prefetched.
        if (id + kPrefetchDistance < num_routes) {
          const std::uint32_t f = id + kPrefetchDistance;
          if (route_len[f] != 0) arena.prefetch(link_of_hop[route_off[f]]);
        }
        if (route_len[id] == 0) continue;  // already at destination
        ++undelivered;
        if (release[id] == 0) {
          const std::uint64_t link = enqueue(id);
          if constexpr (Traced) {
            trace.record(
                {0, TraceEventKind::kRelease, id, links.host(link), 0});
          }
        } else {
          pending.emplace_back(release[id], id);
        }
      }
    }
    // (release, id) ascending: per release step, routes enter in id order.
    std::sort(pending.begin(), pending.end());
  }

  SimResult result;
  result.dim_transmissions.assign(dims, 0);
  result.latency = obs::FixedHistogram::exponential();
  // Utilization is relative to the host's links in either link space.
  const double host_links =
      static_cast<double>(static_cast<std::uint64_t>(dims) << dims);
  std::uint64_t* const dim_tx = result.dim_transmissions.data();

  int step = 0;
  std::uint32_t max_queue = 0;
  std::size_t next_release = 0;
  std::vector<std::uint32_t>& moved = scratch.moved;
  // One transmission per active link (step_kernel.hpp); the worklist is
  // compacted in place, carrying only links whose queue is still nonempty
  // into the next step.  The packets that moved land in `moved`, unsorted.
  const auto emit = [&](const TraceEvent& e) { trace.record(e); };
  const auto sweep = [&](auto arbiter) {
    moved.clear();
    return simcore::step_sweep<Traced, Faulted>(
        arena, active, moved, dim_tx, links, step, scratch.highwater.data(),
        arbiter, emit);
  };
  {
  HP_PROFILE_SPAN("steps");
  while (undelivered > 0) {
    HP_CHECK(step < max_steps, "simulation exceeded max_steps");

    // Scheduled faults and repairs fire first, before any movement.  Each
    // host link whose state changed is announced (kFault/kRepair), then
    // resolves to its plan id and enters or leaves `dead`, kept in plan id
    // order; a dead link no route uses has no plan id and no effect.
    if constexpr (Faulted) {
      for (const std::uint64_t g : timeline->advance_to(step)) {
        const bool now_dead = timeline->link_dead(g);
        if constexpr (Traced) {
          if (announce_faults) {
            trace.record({step,
                          now_dead ? TraceEventKind::kFault
                                   : TraceEventKind::kRepair,
                          TraceEvent::kNoPacket, g, 0});
          }
        }
        const std::uint32_t link = links.find(g);
        if (link == simcore::kNil) continue;
        const auto it = std::lower_bound(dead.begin(), dead.end(), link);
        if (now_dead) {
          dead.insert(it, link);
        } else {
          dead.erase(it);
        }
      }
    }

    while (next_release < pending.size() &&
           pending[next_release].first == static_cast<std::uint32_t>(step)) {
      const std::uint32_t id = pending[next_release].second;
      const std::uint64_t link = enqueue(id);
      if constexpr (Traced) {
        trace.record(
            {step, TraceEventKind::kRelease, id, links.host(link), 0});
      }
      ++next_release;
    }

    // Truncation: every packet waiting on a currently-dead link is lost at
    // the break point; the step's kDrop events reach the sink in canonical
    // (host link) order whatever the plan's link space.  clear_link leaves
    // the emptied link's worklist entry stale; this step's sweep compacts
    // it away before any further enqueue can run.
    if constexpr (Faulted) {
      for (const std::uint32_t link : dead) {
        if (arena.empty(link)) continue;
        const std::uint64_t host = links.host(link);
        arena.for_each(link, [&](std::uint32_t id) {
          --undelivered;
          if (fault_out != nullptr) {
            fault_out->fates[id] = {PacketFate::Kind::kLost, step, host,
                                    static_cast<int>(hop[id])};
          }
          if constexpr (Traced) {
            trace.record({step, TraceEventKind::kDrop, id, host, hop[id]});
          }
        });
        arena.clear_link(link);
      }
    }

    simcore::SweepStats swept;
    {
      HP_PROFILE_SPAN("sweep");
      swept = policy == Arbitration::kFifo
                  ? sweep(simcore::FifoArbiter{})
                  : sweep(simcore::FarthestFirstArbiter{route_len, hop});
    }
    result.link_visits += swept.link_visits;
    result.total_transmissions += swept.busy;
    if (swept.max_queue > max_queue) max_queue = swept.max_queue;

    // Arrivals: advance hops; re-enqueue or deliver.  (Done after all links
    // transmitted so a packet moves at most one hop per step.)  Same-step
    // arrivals at one link are enqueued in increasing packet id — the
    // canonical order that makes results reproducible and equal to the
    // map-based test reference.  A packet whose next link just died
    // still enqueues here; the truncation pass of the next step drops it at
    // that node.  Consecutive deliveries sharing a latency reach the
    // histogram as one batched observation.  The re-enqueues hit random
    // links, so each iteration prefetches the next link of the packet
    // kPrefetchDistance entries ahead, unless that packet was just
    // delivered and has no next link.
    {
      HP_PROFILE_SPAN("sort_moved");
      simcore::sort_moved(moved, scratch.moved_mask);
    }
    {
      HP_PROFILE_SPAN("arrivals");
      simcore::advance_hops(moved, hop);
      std::uint64_t run_lat = 0;
      std::uint64_t run_len = 0;
      const std::size_t num_moved = moved.size();
      for (std::size_t i = 0; i < num_moved; ++i) {
        if (i + kPrefetchDistance < num_moved) {
          const std::uint32_t f = moved[i + kPrefetchDistance];
          if (hop[f] != route_len[f]) {
            arena.prefetch(link_of_hop[route_off[f] + hop[f]]);
          }
        }
        const std::uint32_t id = moved[i];
        if (hop[id] == route_len[id]) {
          --undelivered;
          const std::uint64_t lat = static_cast<std::uint64_t>(
              step + 1 - static_cast<int>(release[id]));
          if (lat != run_lat && run_len > 0) {
            result.latency.observe(static_cast<double>(run_lat), run_len);
            run_len = 0;
          }
          run_lat = lat;
          ++run_len;
          if constexpr (Faulted) {
            if (fault_out != nullptr) {
              fault_out->fates[id] = {PacketFate::Kind::kDelivered, step,
                                      TraceEvent::kNoLink,
                                      static_cast<int>(hop[id])};
            }
          }
          if constexpr (Traced) {
            trace.record({step, TraceEventKind::kArrive, id,
                          TraceEvent::kNoLink, lat});
          }
        } else {
          enqueue(id);
        }
      }
      if (run_len > 0) {
        result.latency.observe(static_cast<double>(run_lat), run_len);
      }
    }

    result.utilization.add(static_cast<double>(swept.busy) / host_links);

    trace.end_step();
    ++step;
  }
  }

  HP_PROFILE_SPAN("drain");
  trace.finish();
  result.makespan = step;
  // The only width transition of the depth accounting: uint32 inside the
  // core, widened exactly once at the SimResult boundary.
  result.max_queue = static_cast<std::size_t>(max_queue);
  if (fault_out != nullptr) {
    for (const PacketFate& f : fault_out->fates) {
      if (f.delivered()) {
        ++fault_out->delivered;
      } else {
        ++fault_out->lost;
      }
    }
  }
  return result;
}

}  // namespace

template <bool Traced, bool Faulted>
SimResult run_plan(const simcore::RoutePlan& plan, int dims,
                   Arbitration policy, int max_steps, obs::TraceSink* sink,
                   const FaultSchedule* schedule, bool announce_faults,
                   FaultRunResult* fault_out) {
  if constexpr (Faulted) {
    HP_CHECK(schedule != nullptr, "faulted run needs a fault schedule");
    HP_CHECK(schedule->dims() == dims,
             "fault schedule dims mismatch simulator dims");
  }
  if (plan.compact()) {
    return run_plan_in<Traced, Faulted>(
        plan, dims,
        simcore::CompactLinks{plan.dim_of.data(), plan.global_link,
                              plan.host_order},
        policy, max_steps, sink, schedule, announce_faults, fault_out);
  }
  return run_plan_in<Traced, Faulted>(
      plan, dims, simcore::DenseLinks{static_cast<std::uint64_t>(dims)},
      policy, max_steps, sink, schedule, announce_faults, fault_out);
}

template SimResult run_plan<false, false>(const simcore::RoutePlan&, int,
                                          Arbitration, int, obs::TraceSink*,
                                          const FaultSchedule*, bool,
                                          FaultRunResult*);
template SimResult run_plan<false, true>(const simcore::RoutePlan&, int,
                                         Arbitration, int, obs::TraceSink*,
                                         const FaultSchedule*, bool,
                                         FaultRunResult*);
template SimResult run_plan<true, false>(const simcore::RoutePlan&, int,
                                         Arbitration, int, obs::TraceSink*,
                                         const FaultSchedule*, bool,
                                         FaultRunResult*);
template SimResult run_plan<true, true>(const simcore::RoutePlan&, int,
                                        Arbitration, int, obs::TraceSink*,
                                        const FaultSchedule*, bool,
                                        FaultRunResult*);

StoreForwardSim::StoreForwardSim(int dims) : host_(dims) {}

SimResult StoreForwardSim::run(const std::vector<Packet>& packets,
                               Arbitration policy, int max_steps,
                               obs::TraceSink* sink) const {
  const auto t0 = std::chrono::steady_clock::now();
  SimResult result;
  {
    HP_PROFILE_SPAN("sim/store_forward");
    simcore::RoutePlan& plan = simcore::step_scratch().plan;
    {
      HP_PROFILE_SPAN("setup");
      plan.rebuild(host_, packets);  // validates; keeps capacity across runs
    }
    result = sink != nullptr
                 ? run_plan<true, false>(plan, host_.dims(), policy,
                                         max_steps, sink, nullptr, false,
                                         nullptr)
                 : run_plan<false, false>(plan, host_.dims(), policy,
                                          max_steps, nullptr, nullptr, false,
                                          nullptr);
  }
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace hyperpath
