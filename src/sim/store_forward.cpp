#include "sim/store_forward.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <utility>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "par/task_pool.hpp"
#include "sim/faults.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/simcore.hpp"
#include "sim/step_kernel.hpp"

namespace hyperpath {

using obs::TraceEvent;
using obs::TraceEventKind;
using simcore::kPrefetchDistance;

namespace {

/// The serial sweep: one worklist, either arbiter, events straight into
/// the step trace.
class SerialSweep {
 public:
  SerialSweep(simcore::StepScratch& scratch, Arbitration policy,
              const std::uint32_t* route_len)
      : scratch_(scratch), policy_(policy), route_len_(route_len) {
    scratch_.active.clear();
  }

  /// The worklist a link joins when its queue becomes nonempty.
  std::vector<std::uint32_t>& worklist(std::uint64_t) {
    return scratch_.active;
  }

  /// One transmission per active link (step_kernel.hpp); the worklist is
  /// compacted in place, carrying only links whose queue is still nonempty
  /// into the next step.  The packets that moved land in scratch.moved,
  /// unsorted.
  template <bool Traced, bool Faulted, typename Links>
  simcore::SweepStats run(int step, Links links, std::uint64_t* dim_tx,
                          obs::StepTrace& trace) {
    std::vector<std::uint32_t>& moved = scratch_.moved;
    moved.clear();
    const auto emit = [&](const TraceEvent& e) { trace.record(e); };
    if (policy_ == Arbitration::kFifo) {
      return simcore::step_sweep<Traced, Faulted>(
          scratch_.arena, scratch_.active, moved, dim_tx, links, step,
          scratch_.highwater.data(), simcore::FifoArbiter{}, emit);
    }
    return simcore::step_sweep<Traced, Faulted>(
        scratch_.arena, scratch_.active, moved, dim_tx, links, step,
        scratch_.highwater.data(),
        simcore::FarthestFirstArbiter{route_len_, scratch_.hop.data()},
        emit);
  }

  /// Calls fn(worklist) for every worklist, in a fixed order.
  template <typename Fn>
  void for_each_worklist(Fn&& fn) const {
    fn(scratch_.active);
  }

 private:
  simcore::StepScratch& scratch_;
  Arbitration policy_;
  const std::uint32_t* route_len_;
};

/// The sharded sweep, FIFO only.  Link l belongs to shard l mod shards, and
/// within a step every link arbitrates on its own, so each shard sweeps its
/// own worklist over the one shared arena without contention: a link's
/// queue and high-water mark are touched only by its shard.  Each step's
/// shard round runs on par::current_pool(); everything a round writes is
/// indexed by shard, never by the worker that ran it.  The merge walks the
/// shards in order, the loop then sorts the moved packets canonically and
/// StepTrace sorts each step's events, so results and traces are the
/// serial sweep's at every shard count.
class ShardedSweep {
 public:
  ShardedSweep(simcore::StepScratch& scratch, int shards, int dims)
      : scratch_(scratch), shards_(static_cast<std::size_t>(shards)) {
    for (Shard& sh : shards_) sh.dim_tx.assign(dims, 0);
  }

  std::vector<std::uint32_t>& worklist(std::uint64_t link) {
    return shards_[link % shards_.size()].active;
  }

  template <bool Traced, bool Faulted, typename Links>
  simcore::SweepStats run(int step, Links links, std::uint64_t* dim_tx,
                          obs::StepTrace& trace) {
    par::current_pool().run_chunks(shards_.size(), [&](std::size_t s, int) {
      Shard& sh = shards_[s];
      sh.moved.clear();
      sh.events.clear();
      const auto emit = [&](const TraceEvent& e) { sh.events.push_back(e); };
      sh.stats = simcore::step_sweep<Traced, Faulted>(
          scratch_.arena, sh.active, sh.moved, sh.dim_tx.data(), links,
          step, scratch_.highwater.data(), simcore::FifoArbiter{}, emit);
    });
    std::vector<std::uint32_t>& moved = scratch_.moved;
    moved.clear();
    simcore::SweepStats out;
    for (Shard& sh : shards_) {
      moved.insert(moved.end(), sh.moved.begin(), sh.moved.end());
      out.busy += sh.stats.busy;
      out.link_visits += sh.stats.link_visits;
      out.max_queue = std::max(out.max_queue, sh.stats.max_queue);
      for (std::size_t d = 0; d < sh.dim_tx.size(); ++d) {
        dim_tx[d] += std::exchange(sh.dim_tx[d], 0);
      }
      if constexpr (Traced) {
        trace.record(std::span<const TraceEvent>(sh.events));
      }
    }
    return out;
  }

  template <typename Fn>
  void for_each_worklist(Fn&& fn) const {
    for (const Shard& sh : shards_) fn(sh.active);
  }

 private:
  struct Shard {
    std::vector<std::uint32_t> active;  // this shard's nonempty links
    std::vector<std::uint32_t> moved;   // packets this round moved
    std::vector<TraceEvent> events;     // this round's events (Traced)
    std::vector<std::uint64_t> dim_tx;  // this round's per-dimension counts
    simcore::SweepStats stats;          // this round's sweep outputs
  };

  simcore::StepScratch& scratch_;
  std::vector<Shard> shards_;
};

/// The one store-and-forward step loop: setup, release, fault events and
/// truncation, the sweep, arrivals, telemetry, drain.  State is reused
/// from the thread's StepScratch; `sweep` (SerialSweep or ShardedSweep)
/// owns the worklists and runs each step's transmissions.  `links` is the
/// plan's link space (step_kernel.hpp): every id that enters or leaves the
/// loop — trace events, dead links, fates — is a host id.  The
/// specialization matrix is documented in step_kernel.hpp.
template <bool Traced, bool Faulted, typename Links, typename Sweep>
SimResult run_plan_in(const simcore::RoutePlan& plan, int dims, Links links,
                      Sweep sweep, int max_steps,
                      obs::TraceSink* sink,
                      [[maybe_unused]] const FaultSchedule* schedule,
                      [[maybe_unused]] bool announce_faults,
                      FaultRunResult* fault_out) {
  simcore::StepScratch& scratch = simcore::step_scratch();
  const std::uint32_t num_routes = plan.num_routes();
  const std::uint64_t num_links = links.size();
  obs::StepTrace trace(sink);

  {
    HP_PROFILE_SPAN("setup");
    scratch.arena.reset(num_links, num_routes);
    scratch.pending.clear();
    scratch.dead.clear();
    scratch.hop.assign(num_routes, 0);
    scratch.moved_mask.assign((num_routes + 63) / 64, 0);
    if constexpr (Traced) scratch.highwater.assign(num_links, 0);
  }

  simcore::LinkFifoArena& arena = scratch.arena;
  auto& pending = scratch.pending;
  std::vector<std::uint32_t>& dead = scratch.dead;
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
    arena.push_back(link, id, sweep.worklist(link));
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
  obs::TelemetryBus& telemetry = obs::TelemetryBus::global();
  {
  HP_PROFILE_SPAN("steps");
  while (undelivered > 0) {
    HP_CHECK(step < max_steps, "simulation exceeded max_steps");

    // Scheduled faults and repairs fire first, before any movement.  Each
    // host link whose state changed is announced (kFault/kRepair), then
    // resolves to its plan id and enters or leaves `dead`, kept in plan
    // (= host) id order; a dead link no route uses has no plan id and no
    // effect.
    if constexpr (Faulted) {
      const FaultTimeline::StepDelta& delta = timeline->advance_to(step);
      const auto fire = [&](std::uint64_t g, TraceEventKind kind) {
        if constexpr (Traced) {
          if (announce_faults) {
            trace.record({step, kind, TraceEvent::kNoPacket, g, 0});
          }
        }
        const std::uint32_t link = links.find(g);
        if (link == simcore::kNil) return;
        const auto it = std::lower_bound(dead.begin(), dead.end(), link);
        const bool listed = it != dead.end() && *it == link;
        if (timeline->link_dead(g) && !listed) dead.insert(it, link);
        if (!timeline->link_dead(g) && listed) dead.erase(it);
      };
      for (const std::uint64_t g : delta.died) fire(g, TraceEventKind::kFault);
      for (const std::uint64_t g : delta.repaired) {
        fire(g, TraceEventKind::kRepair);
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
    // the break point, in host id order so the emitted kDrop order is
    // canonical.  clear_link leaves the emptied link's worklist entry
    // stale; this step's sweep compacts it away before any further enqueue
    // can run.
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
      swept = sweep.template run<Traced, Faulted>(step, links, dim_tx, trace);
    }
    result.link_visits += swept.link_visits;
    result.total_transmissions += swept.busy;
    if (swept.max_queue > max_queue) max_queue = swept.max_queue;

    // Arrivals: advance hops; re-enqueue or deliver.  (Done after all links
    // transmitted so a packet moves at most one hop per step.)  Same-step
    // arrivals at one link are enqueued in increasing packet id — the
    // canonical order that makes results reproducible and independent of
    // the sweep's sharding.  A packet whose next link just died
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

    // Telemetry rides the step counter, reads sim state, writes nothing
    // back: results and traces are bit-identical at any sampling period.
    // After the sweep's compaction and the arrival enqueues, the worklists
    // hold exactly the links with nonempty queues.  Each worklist yields
    // its own depth histogram; merging them in worklist order makes the
    // sample independent of the shard count.
    if (telemetry.should_sample(step)) {
      obs::SimTelemetry t;
      t.step = step;
      t.undelivered = undelivered;
      t.transmissions = result.total_transmissions;
      t.depth_hist = obs::telemetry_depth_histogram();
      sweep.for_each_worklist([&](const std::vector<std::uint32_t>& links) {
        obs::FixedHistogram local = obs::telemetry_depth_histogram();
        for (const std::uint32_t link : links) {
          const std::uint64_t d = arena.depth(link);
          t.queued_packets += d;
          t.max_queue_depth = std::max(t.max_queue_depth, d);
          local.observe(static_cast<double>(d));
        }
        t.active_links += links.size();
        t.depth_hist.merge(local);
      });
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
                   FaultRunResult* fault_out, int shards) {
  HP_CHECK(shards <= 1 || policy == Arbitration::kFifo,
           "sharded runs arbitrate FIFO only");
  if constexpr (Faulted) {
    HP_CHECK(schedule != nullptr, "faulted run needs a fault schedule");
    HP_CHECK(schedule->dims() == dims,
             "fault schedule dims mismatch simulator dims");
  }
  simcore::StepScratch& scratch = simcore::step_scratch();
  const auto run_in = [&](auto links) {
    if (shards > 1) {
      return run_plan_in<Traced, Faulted>(
          plan, dims, links, ShardedSweep(scratch, shards, dims),
          max_steps, sink, schedule, announce_faults, fault_out);
    }
    return run_plan_in<Traced, Faulted>(
        plan, dims, links, SerialSweep(scratch, policy, plan.route_len.data()),
        max_steps, sink, schedule, announce_faults, fault_out);
  };
  if (plan.compact()) {
    return run_in(simcore::CompactLinks{plan.dim_of.data(), plan.global_link});
  }
  return run_in(simcore::DenseLinks{static_cast<std::uint64_t>(dims)});
}

template SimResult run_plan<false, false>(const simcore::RoutePlan&, int,
                                          Arbitration, int, obs::TraceSink*,
                                          const FaultSchedule*, bool,
                                          FaultRunResult*, int);
template SimResult run_plan<false, true>(const simcore::RoutePlan&, int,
                                         Arbitration, int, obs::TraceSink*,
                                         const FaultSchedule*, bool,
                                         FaultRunResult*, int);
template SimResult run_plan<true, false>(const simcore::RoutePlan&, int,
                                         Arbitration, int, obs::TraceSink*,
                                         const FaultSchedule*, bool,
                                         FaultRunResult*, int);
template SimResult run_plan<true, true>(const simcore::RoutePlan&, int,
                                        Arbitration, int, obs::TraceSink*,
                                        const FaultSchedule*, bool,
                                        FaultRunResult*, int);

namespace {

/// plan.rebuild + run_plan, timed: the body of both simulator classes.
SimResult run_packets(const Hypercube& host,
                      const std::vector<Packet>& packets, Arbitration policy,
                      int max_steps, obs::TraceSink* sink,
                      const FaultSchedule* schedule, bool announce_faults,
                      FaultRunResult* fault_out, int shards) {
  const auto t0 = std::chrono::steady_clock::now();
  SimResult result;
  {
    HP_PROFILE_SPAN(shards > 1 ? "sim/parallel" : "sim/store_forward");
    simcore::RoutePlan& plan = simcore::step_scratch().plan;
    {
      HP_PROFILE_SPAN("setup");
      plan.rebuild(host, packets);  // validates; keeps capacity across runs
    }
    // [traced][faulted]
    static constexpr decltype(&run_plan<false, false>) kRun[2][2] = {
        {run_plan<false, false>, run_plan<false, true>},
        {run_plan<true, false>, run_plan<true, true>}};
    result = kRun[sink != nullptr][schedule != nullptr](
        plan, host.dims(), policy, max_steps, sink, schedule,
        announce_faults, fault_out, shards);
  }
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace

StoreForwardSim::StoreForwardSim(int dims) : host_(dims) {}

SimResult StoreForwardSim::run(const std::vector<Packet>& packets,
                               Arbitration policy, int max_steps,
                               obs::TraceSink* sink) const {
  return run_packets(host_, packets, policy, max_steps, sink, nullptr, false,
                     nullptr, 1);
}

FaultRunResult StoreForwardSim::run_with_faults(
    const std::vector<Packet>& packets, const FaultSchedule& schedule,
    Arbitration policy, int max_steps, obs::TraceSink* sink,
    bool announce_faults) const {
  FaultRunResult out;
  out.sim = run_packets(host_, packets, policy, max_steps, sink, &schedule,
                        announce_faults, &out, 1);
  return out;
}

ParallelStoreForwardSim::ParallelStoreForwardSim(int dims) : host_(dims) {}

SimResult ParallelStoreForwardSim::run(const std::vector<Packet>& packets,
                                       int max_steps,
                                       obs::TraceSink* sink) const {
  return run_packets(host_, packets, Arbitration::kFifo, max_steps, sink,
                     nullptr, false, nullptr, par::current_pool().threads());
}

FaultRunResult ParallelStoreForwardSim::run_with_faults(
    const std::vector<Packet>& packets, const FaultSchedule& schedule,
    int max_steps, obs::TraceSink* sink, bool announce_faults) const {
  FaultRunResult out;
  out.sim = run_packets(host_, packets, Arbitration::kFifo, max_steps, sink,
                        &schedule, announce_faults, &out,
                        par::current_pool().threads());
  return out;
}

}  // namespace hyperpath
