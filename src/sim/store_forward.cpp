#include "sim/store_forward.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "sim/faults.hpp"
#include "sim/simcore.hpp"
#include "sim/step_kernel.hpp"

namespace hyperpath {

using obs::TraceEvent;
using obs::TraceEventKind;

namespace {

/// The kernel body for one link-id space: state reused from the thread's
/// StepScratch, the sweep delegated to step_sweep with `dim_of` mapping
/// links to dimensions.  The specialization matrix is documented in
/// step_kernel.hpp.
template <bool Traced, bool Faulted, typename DimOf>
SimResult run_plan_in(const simcore::RoutePlan& plan, int dims,
                      std::uint64_t num_links, DimOf dim_of,
                      Arbitration policy, int max_steps, obs::TraceSink* sink,
                      [[maybe_unused]] const FaultSchedule* schedule,
                      [[maybe_unused]] bool announce_faults,
                      FaultRunResult* fault_out) {
  simcore::StepScratch& scratch = simcore::step_scratch();
  const std::uint32_t num_routes = plan.num_routes();
  obs::StepTrace trace(sink);

  {
    HP_PROFILE_SPAN("setup");
    scratch.arena.reset(num_links, num_routes);
    scratch.active.clear();
    scratch.pending.clear();
    scratch.hop.assign(num_routes, 0);
    scratch.moved_mask.assign((num_routes + 63) / 64, 0);
    if constexpr (Traced) scratch.highwater.assign(num_links, 0);
  }

  simcore::LinkFifoArena& arena = scratch.arena;
  std::vector<std::uint32_t>& active = scratch.active;
  auto& pending = scratch.pending;
  std::uint32_t* const hop = scratch.hop.data();
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
    for (std::uint32_t id = 0; id < num_routes; ++id) {
      if (route_len[id] == 0) continue;  // already at destination
      ++undelivered;
      if (release[id] == 0) {
        const std::uint64_t link = enqueue(id);
        if constexpr (Traced) {
          trace.record({0, TraceEventKind::kRelease, id, link, 0});
        }
      } else {
        pending.emplace_back(release[id], id);
      }
    }
    // (release, id) ascending: per release step, routes enter in id order.
    std::sort(pending.begin(), pending.end());
  }

  SimResult result;
  result.dim_transmissions.assign(dims, 0);
  result.latency = obs::FixedHistogram::exponential();
  const double total_links = static_cast<double>(num_links);
  std::uint64_t* const dim_tx = result.dim_transmissions.data();

  int step = 0;
  std::uint32_t max_queue = 0;
  std::size_t next_release = 0;
  std::vector<std::uint32_t>& moved = scratch.moved;
  obs::TelemetryBus& telemetry = obs::TelemetryBus::global();
  {
  HP_PROFILE_SPAN("steps");
  while (undelivered > 0) {
    HP_CHECK(step < max_steps, "simulation exceeded max_steps");

    // Scheduled faults and repairs fire first, before any movement.
    if constexpr (Faulted) {
      const FaultTimeline::StepDelta& delta = timeline->advance_to(step);
      if constexpr (Traced) {
        if (announce_faults) {
          for (std::uint64_t link : delta.died) {
            trace.record({step, TraceEventKind::kFault, TraceEvent::kNoPacket,
                          link, 0});
          }
          for (std::uint64_t link : delta.repaired) {
            trace.record({step, TraceEventKind::kRepair,
                          TraceEvent::kNoPacket, link, 0});
          }
        }
      }
    }

    while (next_release < pending.size() &&
           pending[next_release].first == static_cast<std::uint32_t>(step)) {
      const std::uint32_t id = pending[next_release].second;
      const std::uint64_t link = enqueue(id);
      if constexpr (Traced) {
        trace.record({step, TraceEventKind::kRelease, id, link, 0});
      }
      ++next_release;
    }

    // Truncation: every packet waiting on a currently-dead link is lost at
    // the break point.  Iterates the timeline's sorted dead-link map so the
    // emitted kDrop order is canonical.  clear_link leaves the emptied
    // link's worklist entry stale; this step's sweep compacts it away
    // before any further enqueue can run.
    if constexpr (Faulted) {
      if (!timeline->dead_links().empty()) {
        for (const auto& [link, kills] : timeline->dead_links()) {
          if (arena.empty(link)) continue;
          arena.for_each(link, [&](std::uint32_t id) {
            --undelivered;
            if (fault_out != nullptr) {
              fault_out->fates[id] = {PacketFate::Kind::kLost, step, link,
                                      static_cast<int>(hop[id])};
            }
            if constexpr (Traced) {
              trace.record({step, TraceEventKind::kDrop, id, link, hop[id]});
            }
          });
          arena.clear_link(link);
        }
      }
    }

    // One transmission per active link (step_kernel.hpp); the worklist is
    // compacted in place, carrying only links whose queue is still nonempty
    // into the next step.
    moved.clear();
    const auto emit = [&](const TraceEvent& e) { trace.record(e); };
    simcore::SweepStats sweep;
    if (policy == Arbitration::kFifo) {
      sweep = simcore::step_sweep<Traced, Faulted>(
          arena, active, moved, dim_tx, dim_of, step,
          scratch.highwater.data(), simcore::FifoArbiter{}, emit);
    } else {
      sweep = simcore::step_sweep<Traced, Faulted>(
          arena, active, moved, dim_tx, dim_of, step,
          scratch.highwater.data(),
          simcore::FarthestFirstArbiter{route_len, hop}, emit);
    }
    result.link_visits += sweep.link_visits;
    result.total_transmissions += sweep.busy;
    if (sweep.max_queue > max_queue) max_queue = sweep.max_queue;

    // Arrivals: advance hops; re-enqueue or deliver.  (Done after all links
    // transmitted so a packet moves at most one hop per step.)  Same-step
    // arrivals at one link are enqueued in increasing packet id — the
    // canonical order that makes results reproducible and lets the parallel
    // simulator match bit for bit.  A packet whose next link just died
    // still enqueues here; the truncation pass of the next step drops it at
    // that node.
    simcore::sort_moved(moved, scratch.moved_mask);
    simcore::advance_hops(moved, hop);
    for (const std::uint32_t id : moved) {
      if (hop[id] == route_len[id]) {
        --undelivered;
        const std::uint64_t lat = static_cast<std::uint64_t>(
            step + 1 - static_cast<int>(release[id]));
        result.latency.observe(static_cast<double>(lat));
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

    result.utilization.add(static_cast<double>(sweep.busy) / total_links);

    // Telemetry rides the step counter, reads sim state, writes nothing
    // back: results and traces are bit-identical at any sampling period.
    // After the sweep's compaction and the arrival enqueues, `active`
    // holds exactly the links with nonempty queues.
    if (telemetry.should_sample(step)) {
      obs::SimTelemetry t;
      t.step = step;
      t.undelivered = undelivered;
      t.transmissions = result.total_transmissions;
      t.active_links = active.size();
      t.depth_hist = obs::telemetry_depth_histogram();
      for (const std::uint32_t link : active) {
        const std::uint64_t d = arena.depth(link);
        t.queued_packets += d;
        t.max_queue_depth = std::max(t.max_queue_depth, d);
        t.depth_hist.observe(static_cast<double>(d));
      }
      telemetry.sample(std::move(t));
    }

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
  if (plan.compact()) {
    HP_CHECK(sink == nullptr && schedule == nullptr,
             "compact route plan takes no trace sink or fault schedule "
             "(its link ids are not host link ids)");
    return run_plan_in<Traced, Faulted>(
        plan, dims, plan.global_link.size(),
        simcore::CompactDim{plan.dim_of.data()}, policy, max_steps, sink,
        schedule, announce_faults, fault_out);
  }
  return run_plan_in<Traced, Faulted>(
      plan, dims, static_cast<std::uint64_t>(dims) << dims,
      simcore::DenseDim{static_cast<std::uint64_t>(dims)}, policy, max_steps,
      sink, schedule, announce_faults, fault_out);
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
  return run_impl(packets, policy, max_steps, sink, nullptr, false, nullptr);
}

FaultRunResult StoreForwardSim::run_with_faults(
    const std::vector<Packet>& packets, const FaultSchedule& schedule,
    Arbitration policy, int max_steps, obs::TraceSink* sink,
    bool announce_faults) const {
  HP_CHECK(schedule.dims() == host_.dims(),
           "fault schedule dims mismatch simulator dims");
  FaultRunResult out;
  out.sim = run_impl(packets, policy, max_steps, sink, &schedule,
                     announce_faults, &out);
  return out;
}

SimResult StoreForwardSim::run_impl(const std::vector<Packet>& packets,
                                    Arbitration policy, int max_steps,
                                    obs::TraceSink* sink,
                                    const FaultSchedule* schedule,
                                    bool announce_faults,
                                    FaultRunResult* fault_out) const {
  const auto t0 = std::chrono::steady_clock::now();
  SimResult result;
  {
    HP_PROFILE_SPAN("sim/store_forward");
    simcore::RoutePlan& plan = simcore::step_scratch().plan;
    {
      HP_PROFILE_SPAN("setup");
      plan.rebuild(host_, packets);  // validates; keeps capacity across runs
    }
    // [traced][faulted]
    static constexpr decltype(&run_plan<false, false>) kRun[2][2] = {
        {run_plan<false, false>, run_plan<false, true>},
        {run_plan<true, false>, run_plan<true, true>}};
    result = kRun[sink != nullptr][schedule != nullptr](
        plan, host_.dims(), policy, max_steps, sink, schedule,
        announce_faults, fault_out);
  }
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace hyperpath
