#include "sim/parallel_sim.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "par/task_pool.hpp"
#include "sim/faults.hpp"
#include "sim/simcore.hpp"
#include "sim/step_kernel.hpp"

namespace hyperpath {

using obs::TraceEvent;
using obs::TraceEventKind;

namespace {

/// A minimal barrier-style worker pool: workers run one job per "round" and
/// park between rounds.  Much cheaper than spawning threads per step when a
/// simulation runs for thousands of steps.
class WorkerPool {
 public:
  explicit WorkerPool(int n) : job_count_(n) {
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ~WorkerPool() {
    {
      std::scoped_lock lock(mu_);
      stop_ = true;
      ++round_;
    }
    cv_start_.notify_all();
    for (auto& t : workers_) t.join();
  }

  /// Runs job(worker_index) on every worker and waits for all to finish.
  void run_round(const std::function<void(int)>& job) {
    {
      std::scoped_lock lock(mu_);
      job_ = &job;
      pending_ = job_count_;
      ++round_;
    }
    cv_start_.notify_all();
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  void worker_loop(int index) {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock lock(mu_);
        cv_start_.wait(lock, [&] { return round_ != seen; });
        seen = round_;
        if (stop_) return;
        job = job_;
      }
      (*job)(index);
      {
        std::scoped_lock lock(mu_);
        if (--pending_ == 0) cv_done_.notify_all();
      }
    }
  }

  int job_count_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  int pending_ = 0;
  std::uint64_t round_ = 0;
  bool stop_ = false;
};

/// The sharded step loop over the SoA route plan (step_kernel.hpp).  One
/// flat arena shared by every shard: a link's queue state lives at its
/// dense link id and is touched only by the shard that owns the link
/// (link mod shards), so workers never contend.  Each shard keeps its own
/// active worklist; arrivals and releases run on the main thread between
/// rounds and append to the owning shard's list, which preserves exactly
/// the serial simulator's per-link FIFO order.
template <bool Traced, bool Faulted>
SimResult run_parallel(const Hypercube& host, int shards,
                       const std::vector<Packet>& packets, int max_steps,
                       obs::TraceSink* sink,
                       [[maybe_unused]] const FaultSchedule* schedule,
                       [[maybe_unused]] bool announce_faults,
                       FaultRunResult* fault_out) {
  HP_PROFILE_SPAN("sim/parallel");
  simcore::StepScratch& scratch = simcore::step_scratch();
  simcore::RoutePlan& plan = scratch.plan;
  const std::uint64_t num_links = host.num_directed_edges();
  const int dims = host.dims();
  obs::StepTrace trace(sink);

  {
    HP_PROFILE_SPAN("setup");
    plan.rebuild(host, packets);  // validates; keeps capacity across runs
    scratch.arena.reset(num_links, packets.size());
    scratch.pending.clear();
    scratch.hop.assign(packets.size(), 0);
    scratch.moved_mask.assign((packets.size() + 63) / 64, 0);
    if constexpr (Traced) scratch.highwater.assign(num_links, 0);
  }

  simcore::LinkFifoArena& arena = scratch.arena;
  auto& pending = scratch.pending;
  std::uint32_t* const hop = scratch.hop.data();
  std::uint32_t* const highwater = scratch.highwater.data();
  const std::uint32_t* const route_len = plan.route_len.data();
  const std::uint32_t* const route_off = plan.route_offsets.data();
  const std::uint32_t* const link_of_hop = plan.link_of_hop.data();
  const std::uint32_t* const release = plan.release.data();

  struct Shard {
    std::vector<std::uint32_t> active;  // links this shard owns, nonempty
    std::vector<std::uint32_t> moved;   // per-step output
    std::uint64_t busy = 0;
    std::uint64_t link_visits = 0;
    // Whole-run accumulators, merged once after the loop.
    std::uint32_t max_queue = 0;
    std::vector<std::uint64_t> dim_tx;
    // Tracing state: shard-local event buffer (per step).
    std::vector<TraceEvent> events;
  };
  std::vector<Shard> shard(shards);
  for (Shard& sh : shard) sh.dim_tx.assign(dims, 0);
  const auto shard_of = [&](std::uint64_t link) {
    return static_cast<int>(link % static_cast<std::uint64_t>(shards));
  };

  std::size_t undelivered = 0;

  std::optional<FaultTimeline> timeline;
  if constexpr (Faulted) timeline.emplace(*schedule);
  if (fault_out != nullptr) {
    fault_out->fates.assign(packets.size(), PacketFate{});
  }

  const auto enqueue = [&](std::uint32_t id) {
    const std::uint64_t link = link_of_hop[route_off[id] + hop[id]];
    arena.push_back(link, id, shard[shard_of(link)].active);
    return link;
  };

  {
    HP_PROFILE_SPAN("setup");
    const std::uint32_t num_routes = plan.num_routes();
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
    std::sort(pending.begin(), pending.end());
  }

  SimResult result;
  result.dim_transmissions.assign(dims, 0);
  result.latency = obs::FixedHistogram::exponential();
  const double total_links = static_cast<double>(num_links);
  WorkerPool pool(shards);

  int step = 0;
  std::size_t next_release = 0;
  std::vector<std::uint32_t>& moved = scratch.moved;  // merged arrivals
  obs::TelemetryBus& telemetry = obs::TelemetryBus::global();
  {
  HP_PROFILE_SPAN("steps");
  while (undelivered > 0) {
    HP_CHECK(step < max_steps, "simulation exceeded max_steps");

    // Scheduled faults and repairs fire first, on the main thread (workers
    // are parked between rounds), exactly as in the serial simulator.
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

    // Truncation at dead links, main thread, sorted dead-link order —
    // byte-identical drop stream to the serial simulator.  Stale worklist
    // entries left by clear_link are compacted by this step's shard sweeps.
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

    // Parallel arbitration: each shard runs the shared step kernel over its
    // own active worklist, recording queue statistics (and trace events)
    // shard-locally.
    pool.run_round([&](int s) {
      Shard& sh = shard[s];
      sh.moved.clear();
      sh.events.clear();
      const auto emit = [&](const TraceEvent& e) { sh.events.push_back(e); };
      const simcore::SweepStats sweep = simcore::step_sweep<Traced, Faulted>(
          arena, sh.active, sh.moved, sh.dim_tx.data(),
          simcore::DenseDim{static_cast<std::uint64_t>(dims)}, step,
          highwater, simcore::FifoArbiter{}, emit);
      sh.busy = sweep.busy;
      sh.link_visits += sweep.link_visits;
      if (sweep.max_queue > sh.max_queue) sh.max_queue = sweep.max_queue;
    });

    // Serial merge in canonical (packet-id) order — identical semantics to
    // StoreForwardSim's sorted arrival pass.  Shard trace buffers are
    // merged here too; StepTrace's canonical sort at end_step() makes the
    // emitted stream independent of the sharding.
    moved.clear();
    std::uint64_t busy = 0;
    for (const Shard& sh : shard) {
      moved.insert(moved.end(), sh.moved.begin(), sh.moved.end());
      busy += sh.busy;
      if constexpr (Traced) {
        trace.record(std::span<const TraceEvent>(sh.events));
      }
    }
    simcore::sort_moved(moved, scratch.moved_mask);
    result.total_transmissions += busy;

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

    result.utilization.add(static_cast<double>(busy) / total_links);

    // Telemetry sampling on the main thread, workers parked.  Each shard's
    // active list yields its own depth histogram; shard-ordered
    // FixedHistogram::merge makes the sample independent of the shard
    // count and identical to the serial simulator's.
    if (telemetry.should_sample(step)) {
      obs::SimTelemetry t;
      t.step = step;
      t.undelivered = undelivered;
      t.transmissions = result.total_transmissions;
      t.depth_hist = obs::telemetry_depth_histogram();
      for (const Shard& sh : shard) {
        obs::FixedHistogram local = obs::telemetry_depth_histogram();
        for (const std::uint32_t link : sh.active) {
          const std::uint64_t d = arena.depth(link);
          t.queued_packets += d;
          t.max_queue_depth = std::max(t.max_queue_depth, d);
          local.observe(static_cast<double>(d));
        }
        t.active_links += sh.active.size();
        t.depth_hist.merge(local);
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
  for (const Shard& sh : shard) {
    // Depth accounting is uint32 in the core; widen once at the boundary.
    result.max_queue =
        std::max(result.max_queue, static_cast<std::size_t>(sh.max_queue));
    result.link_visits += sh.link_visits;
    for (int d = 0; d < dims; ++d) {
      result.dim_transmissions[d] += sh.dim_tx[d];
    }
  }
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

ParallelStoreForwardSim::ParallelStoreForwardSim(int dims, int threads)
    : host_(dims), threads_(threads) {
  if (threads_ <= 0) {
    // Follow the process-wide pool size (HYPERPATH_THREADS / --threads)
    // instead of raw hardware_concurrency, so one knob governs both layers.
    threads_ = par::global_threads();
  }
  threads_ = std::min(threads_, 64);
}

SimResult ParallelStoreForwardSim::run(const std::vector<Packet>& packets,
                                       int max_steps,
                                       obs::TraceSink* sink) const {
  return run_impl(packets, max_steps, sink, nullptr, false, nullptr);
}

FaultRunResult ParallelStoreForwardSim::run_with_faults(
    const std::vector<Packet>& packets, const FaultSchedule& schedule,
    int max_steps, obs::TraceSink* sink, bool announce_faults) const {
  HP_CHECK(schedule.dims() == host_.dims(),
           "fault schedule dims mismatch simulator dims");
  FaultRunResult out;
  out.sim = run_impl(packets, max_steps, sink, &schedule, announce_faults,
                     &out);
  return out;
}

SimResult ParallelStoreForwardSim::run_impl(const std::vector<Packet>& packets,
                                            int max_steps,
                                            obs::TraceSink* sink,
                                            const FaultSchedule* schedule,
                                            bool announce_faults,
                                            FaultRunResult* fault_out) const {
  const auto t0 = std::chrono::steady_clock::now();
  SimResult result;
  if (sink != nullptr) {
    result = schedule != nullptr
                 ? run_parallel<true, true>(host_, threads_, packets,
                                            max_steps, sink, schedule,
                                            announce_faults, fault_out)
                 : run_parallel<true, false>(host_, threads_, packets,
                                             max_steps, sink, schedule,
                                             announce_faults, fault_out);
  } else {
    result = schedule != nullptr
                 ? run_parallel<false, true>(host_, threads_, packets,
                                             max_steps, sink, schedule,
                                             announce_faults, fault_out)
                 : run_parallel<false, false>(host_, threads_, packets,
                                              max_steps, sink, schedule,
                                              announce_faults, fault_out);
  }
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace hyperpath
