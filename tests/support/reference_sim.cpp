// The map-based reference simulators (see reference_sim.hpp for their role).
#include "support/reference_sim.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "base/error.hpp"
#include "sim/faults.hpp"

namespace hyperpath::refsim {

using obs::TraceEvent;
using obs::TraceEventKind;

RefStoreForwardSim::RefStoreForwardSim(int dims) : host_(dims) {}

SimResult RefStoreForwardSim::run(const std::vector<Packet>& packets,
                                  Arbitration policy, int max_steps,
                                  obs::TraceSink* sink) const {
  return run_impl(packets, policy, max_steps, sink, nullptr, false, nullptr);
}

FaultRunResult RefStoreForwardSim::run_with_faults(
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

SimResult RefStoreForwardSim::run_impl(const std::vector<Packet>& packets,
                                       Arbitration policy, int max_steps,
                                       obs::TraceSink* sink,
                                       const FaultSchedule* schedule,
                                       bool announce_faults,
                                       FaultRunResult* fault_out) const {
  for (const Packet& p : packets) {
    HP_CHECK(is_valid_path(host_, p.route), "packet route invalid");
    HP_CHECK(p.release >= 0, "negative release time");
  }

  // Per-link waiting lists, keyed by directed link id.  Sparse map: only
  // links that ever carry traffic get a queue — and they keep it forever,
  // which is exactly the per-step cost pathology the flat core removes.
  struct Waiting {
    std::deque<std::uint32_t> q;  // packet indices, FIFO arrival order
  };
  std::unordered_map<std::uint64_t, Waiting> queues;
  queues.reserve(packets.size());

  obs::StepTrace trace(sink);
  std::unordered_map<std::uint64_t, std::size_t> highwater;

  std::vector<std::uint32_t> hop(packets.size(), 0);  // next edge index
  std::size_t undelivered = 0;

  std::optional<FaultTimeline> timeline;
  if (schedule != nullptr) timeline.emplace(*schedule);
  std::set<std::uint64_t> dead;  // currently dead links, in host id order
  if (fault_out != nullptr) {
    fault_out->fates.assign(packets.size(), PacketFate{});
  }

  std::vector<std::vector<std::uint32_t>> release_at;
  auto enqueue = [&](std::uint32_t id) {
    const Packet& p = packets[id];
    const std::uint64_t link = host_.edge_id(p.route[hop[id]],
                                             p.route[hop[id] + 1]);
    queues[link].q.push_back(id);
    return link;
  };

  for (std::uint32_t id = 0; id < packets.size(); ++id) {
    const Packet& p = packets[id];
    if (p.route.size() <= 1) continue;  // already at destination
    ++undelivered;
    if (p.release == 0) {
      const std::uint64_t link = enqueue(id);
      if (trace.enabled()) {
        trace.record({0, TraceEventKind::kRelease, id, link, 0});
      }
    } else {
      if (release_at.size() <= static_cast<std::size_t>(p.release)) {
        release_at.resize(p.release + 1);
      }
      release_at[p.release].push_back(id);
    }
  }

  SimResult result;
  result.dim_transmissions.assign(host_.dims(), 0);
  result.latency = obs::FixedHistogram::exponential();
  const double total_links = static_cast<double>(host_.num_directed_edges());
  const int dims = host_.dims();

  int step = 0;
  std::size_t max_queue = 0;
  while (undelivered > 0) {
    HP_CHECK(step < max_steps, "simulation exceeded max_steps");

    if (timeline) {
      for (std::uint64_t link : timeline->advance_to(step)) {
        const bool now_dead = timeline->link_dead(link);
        if (now_dead) {
          dead.insert(link);
        } else {
          dead.erase(link);
        }
        if (announce_faults && trace.enabled()) {
          trace.record({step,
                        now_dead ? TraceEventKind::kFault
                                 : TraceEventKind::kRepair,
                        TraceEvent::kNoPacket, link, 0});
        }
      }
    }

    if (static_cast<std::size_t>(step) < release_at.size()) {
      for (std::uint32_t id : release_at[step]) {
        const std::uint64_t link = enqueue(id);
        if (trace.enabled()) {
          trace.record({step, TraceEventKind::kRelease, id, link, 0});
        }
      }
    }

    for (const std::uint64_t link : dead) {
      auto it = queues.find(link);
      if (it == queues.end() || it->second.q.empty()) continue;
      for (std::uint32_t id : it->second.q) {
        --undelivered;
        if (fault_out != nullptr) {
          fault_out->fates[id] = {PacketFate::Kind::kLost, step, link,
                                  static_cast<int>(hop[id])};
        }
        if (trace.enabled()) {
          trace.record({step, TraceEventKind::kDrop, id, link, hop[id]});
        }
      }
      it->second.q.clear();
    }

    // One transmission per nonempty link queue — full scan of every queue
    // that ever existed, the per-step cost the flat core's active set cures.
    std::uint64_t busy = 0;
    std::vector<std::uint32_t> moved;
    moved.reserve(queues.size());
    for (auto& [link, w] : queues) {
      if (w.q.empty()) continue;
      const std::size_t depth = w.q.size();
      max_queue = std::max(max_queue, depth);
      if (trace.enabled()) {
        std::size_t& high = highwater[link];
        if (depth > high) {
          high = depth;
          trace.record({step, TraceEventKind::kQueueDepth,
                        TraceEvent::kNoPacket, link, depth});
        }
      }
      std::uint32_t pick;
      if (policy == Arbitration::kFifo) {
        pick = w.q.front();
        w.q.pop_front();
      } else {
        auto best = w.q.begin();
        std::size_t best_left =
            packets[*best].route.size() - 1 - hop[*best];
        for (auto it = std::next(w.q.begin()); it != w.q.end(); ++it) {
          const std::size_t left = packets[*it].route.size() - 1 - hop[*it];
          if (left > best_left) {
            best = it;
            best_left = left;
          }
        }
        pick = *best;
        w.q.erase(best);
      }
      ++busy;
      ++result.total_transmissions;
      ++result.dim_transmissions[link % dims];
      if (trace.enabled()) {
        trace.record({step, TraceEventKind::kTransmit, pick, link, depth});
        if (depth > 1) {
          trace.record({step, TraceEventKind::kStall, TraceEvent::kNoPacket,
                        link, depth - 1});
        }
      }
      moved.push_back(pick);
    }

    std::sort(moved.begin(), moved.end());
    for (std::uint32_t id : moved) {
      ++hop[id];
      const Packet& p = packets[id];
      if (hop[id] + 1 == p.route.size()) {
        --undelivered;
        const std::uint64_t lat =
            static_cast<std::uint64_t>(step + 1 - p.release);
        result.latency.observe(static_cast<double>(lat));
        if (fault_out != nullptr) {
          fault_out->fates[id] = {PacketFate::Kind::kDelivered, step,
                                  TraceEvent::kNoLink,
                                  static_cast<int>(hop[id])};
        }
        if (trace.enabled()) {
          trace.record({step, TraceEventKind::kArrive, id,
                        TraceEvent::kNoLink, lat});
        }
      } else {
        enqueue(id);
      }
    }

    result.utilization.add(static_cast<double>(busy) / total_links);
    trace.end_step();
    ++step;
  }

  trace.finish();
  result.makespan = step;
  result.max_queue = max_queue;
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

RefWormholeSim::RefWormholeSim(int dims) : host_(dims) {}

WormResult RefWormholeSim::run(const std::vector<Worm>& worms, int max_steps,
                               obs::TraceSink* sink) const {
  WormResult result;
  result.completion.assign(worms.size(), 0);
  obs::StepTrace trace(sink);

  std::unordered_set<std::uint64_t> held;  // link ids currently in use

  struct State {
    bool started = false;
    bool done = false;
    int completion = 0;
  };
  std::vector<State> st(worms.size());

  std::size_t active = 0;
  for (const Worm& w : worms) {
    HP_CHECK(is_valid_path(host_, w.route), "worm route invalid");
    HP_CHECK(w.flits >= 1, "worm needs at least one flit");
    HP_CHECK(w.release >= 0, "negative release time");
  }
  for (std::size_t i = 0; i < worms.size(); ++i) {
    if (worms[i].route.size() <= 1) {
      st[i].done = true;  // already at destination; no link work
    } else {
      ++active;
    }
  }

  int step = 0;
  while (active > 0) {
    HP_CHECK(step < max_steps, "wormhole simulation exceeded max_steps");
    ++step;

    // Full rescan of every worm — including done ones — per step; the flat
    // core replaces this with compacted pending/inflight worklists.
    for (std::uint32_t i = 0; i < worms.size(); ++i) {
      State& s = st[i];
      const Worm& w = worms[i];
      if (s.done || s.started || w.release >= step) continue;
      bool free = true;
      std::uint64_t blocked_on = TraceEvent::kNoLink;
      for (std::size_t h = 0; free && h + 1 < w.route.size(); ++h) {
        const std::uint64_t link = host_.edge_id(w.route[h], w.route[h + 1]);
        if (held.contains(link)) {
          free = false;
          blocked_on = link;
        }
      }
      if (!free) {
        if (trace.enabled()) {
          trace.record({step, TraceEventKind::kStall, i, blocked_on, 0});
        }
        continue;
      }
      const int links = static_cast<int>(w.route.size()) - 1;
      for (std::size_t h = 0; h + 1 < w.route.size(); ++h) {
        const std::uint64_t link = host_.edge_id(w.route[h], w.route[h + 1]);
        held.insert(link);
        if (trace.enabled()) {
          trace.record({step, TraceEventKind::kTransmit, i, link,
                        static_cast<std::uint64_t>(w.flits)});
        }
      }
      s.started = true;
      s.completion = step + links + w.flits - 2;
      if (trace.enabled()) {
        trace.record({step, TraceEventKind::kWormStart, i,
                      TraceEvent::kNoLink,
                      static_cast<std::uint64_t>(w.flits)});
      }
      result.total_flit_hops +=
          static_cast<std::uint64_t>(w.flits) * static_cast<std::uint64_t>(links);
    }

    for (std::uint32_t i = 0; i < worms.size(); ++i) {
      State& s = st[i];
      if (s.done || !s.started || s.completion != step) continue;
      s.done = true;
      result.completion[i] = step;
      if (trace.enabled()) {
        trace.record({step, TraceEventKind::kWormDone, i,
                      TraceEvent::kNoLink,
                      static_cast<std::uint64_t>(step - worms[i].release)});
      }
      for (std::size_t h = 0; h + 1 < worms[i].route.size(); ++h) {
        held.erase(host_.edge_id(worms[i].route[h], worms[i].route[h + 1]));
      }
      --active;
    }
    trace.end_step();
  }

  trace.finish();
  result.makespan = step;
  return result;
}

}  // namespace hyperpath::refsim
