#include "sim/recovery.hpp"

#include <algorithm>
#include <map>

#include "base/error.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "sim/simcore.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {

namespace {

using obs::TraceEvent;
using obs::TraceEventKind;

/// One in-flight fragment of one message.
struct Frag {
  std::uint32_t message = 0;  // index into the demanded edges
  int index = 0;              // fragment index within the bundle
  int path_idx = 0;           // bundle path it currently rides
  int attempts = 0;           // retransmissions consumed so far
  int release = 0;            // step it is (re)sent at
};

/// Mutable per-message bookkeeping during the wave loop.
struct MessageState {
  std::vector<bool> got;  // distinct fragment indices delivered
  int delivered = 0;
};

}  // namespace

RecoveryResult run_recovery(const MultiPathEmbedding& emb,
                            const FaultSchedule& schedule,
                            const RecoveryConfig& config,
                            obs::TraceSink* sink) {
  const MaterializedOracle oracle(emb);
  return run_recovery(oracle, all_guest_edges(oracle), schedule, config,
                      sink);
}

/// The wave loop.  Each wave is one compact plan in the thread's scratch
/// RoutePlan, streamed from the oracle fragment by fragment, and one
/// faulted run_plan.
RecoveryResult run_recovery(const PathOracle& oracle,
                            std::span<const OracleEdge> edges,
                            const FaultSchedule& schedule,
                            const RecoveryConfig& config,
                            obs::TraceSink* sink) {
  HP_PROFILE_SPAN("sim/recovery");
  HP_CHECK(schedule.dims() == oracle.host_dims(),
           "fault schedule dims mismatch oracle host dims");
  HP_CHECK(config.timeout > 0, "recovery timeout must be positive");
  HP_CHECK(config.max_retries >= 0, "negative retry budget");

  const std::size_t num_messages = edges.size();
  const int dims = oracle.host_dims();

  RecoveryResult result;
  result.messages.assign(num_messages, MessageOutcome{});
  result.messages_total = num_messages;
  result.recovery_latency = obs::FixedHistogram::exponential();

  std::vector<MessageState> state(num_messages);
  std::vector<int> threshold(num_messages, 0);

  // Wave 0: one fragment per bundle path of every demanded edge.
  std::vector<Frag> frags;
  for (std::uint32_t e = 0; e < num_messages; ++e) {
    const int w = oracle.width(edges[e]);
    threshold[e] = (config.threshold <= 0) ? w
                                           : std::min(config.threshold, w);
    state[e].got.assign(w, false);
    for (int f = 0; f < w; ++f) frags.push_back({e, f, f, 0, 0});
  }
  result.fragments_sent = frags.size();

  simcore::StepScratch& scratch = simcore::step_scratch();
  simcore::RoutePlan& plan = scratch.plan;
  HostPath probed;  // the bundle path last streamed: a fragment or a probe
  VectorSink probed_sink(probed);
  const auto run_wave =
      sink != nullptr ? run_plan<true, true> : run_plan<false, true>;

  // The engine's own trace recorder (kRetransmit events).  The
  // retransmissions a wave schedules are flushed together, before the next
  // wave runs; StepTrace's canonical sort puts them in step order within
  // the batch.
  obs::StepTrace rtrace(sink);

  // Probing the schedule is O(events) per call; a retransmit storm probes
  // once per lost fragment per attempt.  Within a wave all probes at the
  // same detect step see the same state, so they share one snapshot.  Past
  // the last scheduled event the state is final and can never change —
  // a fragment whose whole bundle is dead there is undeliverable, and its
  // remaining attempts resolve without further probing (graceful
  // degradation instead of a probe storm; the counters are identical to
  // probing each attempt individually).
  const int last_event_step =
      schedule.empty() ? -1 : schedule.events().back().step;
  std::map<std::int64_t, FaultSet> probe_cache;
  const auto probe_at = [&](std::int64_t detect) -> const FaultSet& {
    const std::int64_t key =
        detect > last_event_step ? static_cast<std::int64_t>(last_event_step)
                                 : detect;
    auto it = probe_cache.find(key);
    if (it == probe_cache.end()) {
      it = probe_cache
               .emplace(key, schedule.state_at(static_cast<int>(
                                 std::max<std::int64_t>(key, 0))))
               .first;
    }
    return it->second;
  };

  while (!frags.empty()) {
    {
      HP_PROFILE_SPAN("compile");
      plan.clear();
      scratch.pool.begin();
      std::span<std::uint64_t> ids;  // host link id per hop of the wave
      for (const Frag& fg : frags) {
        const std::uint64_t first = plan.stored_hops();
        probed.clear();
        oracle.path(edges[fg.message], fg.path_idx, probed_sink);
        plan.add_route_unlinked(probed, static_cast<std::uint32_t>(fg.release),
                                dims, scratch.pool, ids,
                                "oracle route invalid");
        // A later wave carries only retransmissions: announce each with
        // the first link of its new route.
        if (rtrace.enabled() && result.waves > 0) {
          rtrace.record(
              {fg.release, TraceEventKind::kRetransmit, fg.message,
               plan.stored_hops() > first ? ids[first] : TraceEvent::kNoLink,
               static_cast<std::uint64_t>(fg.attempts)});
        }
      }
      plan.compact_links(scratch.pool, ids, dims);
    }
    rtrace.end_step();

    FaultRunResult wave;
    wave.sim = run_wave(plan, dims, Arbitration::kFifo, config.max_steps,
                        sink, &schedule, result.waves == 0, &wave);
    ++result.waves;
    result.total_transmissions += wave.sim.total_transmissions;
    result.makespan = std::max(result.makespan, wave.sim.makespan);

    // Order both outcome lists by (step, wave-packet id) — the canonical
    // order the events happened in.
    std::vector<std::uint32_t> delivered_ids, lost_ids;
    for (std::uint32_t i = 0; i < wave.fates.size(); ++i) {
      (wave.fates[i].delivered() ? delivered_ids : lost_ids).push_back(i);
    }
    const auto by_step = [&](std::uint32_t a, std::uint32_t b) {
      if (wave.fates[a].step != wave.fates[b].step) {
        return wave.fates[a].step < wave.fates[b].step;
      }
      return a < b;
    };
    std::sort(delivered_ids.begin(), delivered_ids.end(), by_step);
    std::sort(lost_ids.begin(), lost_ids.end(), by_step);

    // Deliveries first: a message that reached its threshold this wave
    // suppresses retransmission of its remaining lost fragments ("succeed
    // as soon as any threshold fragments arrive").
    for (std::uint32_t i : delivered_ids) {
      const Frag& fg = frags[i];
      const PacketFate& fate = wave.fates[i];
      ++result.fragments_delivered;
      result.useful_transmissions += plan.route_len[i];
      MessageState& ms = state[fg.message];
      MessageOutcome& out = result.messages[fg.message];
      if (out.complete || ms.got[fg.index]) continue;
      ms.got[fg.index] = true;
      ++ms.delivered;
      ++out.fragments_delivered;
      if (ms.delivered >= threshold[fg.message]) {
        out.complete = true;
        out.complete_step = fate.step;
      }
    }

    // Losses: retransmit on the next surviving path, with exponential
    // backoff; an attempt whose probe finds every path dead is consumed
    // (the sender waited the backoff for nothing) and the next attempt
    // probes again after a doubled wait.
    std::vector<Frag> next_frags;
    for (std::uint32_t i : lost_ids) {
      Frag fg = frags[i];
      const PacketFate& fate = wave.fates[i];
      ++result.fragments_lost;
      MessageOutcome& out = result.messages[fg.message];
      const bool pre_completion = !out.complete || fate.step < out.complete_step;
      if (pre_completion &&
          (out.first_loss_step < 0 || fate.step < out.first_loss_step)) {
        out.first_loss_step = fate.step;
      }
      if (out.complete) continue;  // message already reconstructed

      const OracleEdge& edge = edges[fg.message];
      const int w = oracle.width(edge);
      bool scheduled = false;
      while (fg.attempts < config.max_retries) {
        ++fg.attempts;
        // Saturating exponential backoff: timeout·2^(attempts−1) clamped to
        // the step horizon.  The explicit shift guard keeps large retry
        // budgets from shifting past 62 bits (undefined behaviour) — a
        // saturated wait lands at or beyond the horizon and breaks out,
        // exactly where the unclamped arithmetic would have ended up.
        const int shift = fg.attempts - 1;
        const auto horizon = static_cast<std::int64_t>(config.max_steps);
        std::int64_t wait = horizon;
        if (shift < 62 &&
            static_cast<std::int64_t>(config.timeout) <= (horizon >> shift)) {
          wait = static_cast<std::int64_t>(config.timeout) << shift;
        }
        const std::int64_t detect =
            static_cast<std::int64_t>(fate.step) + wait;
        if (detect >= horizon) break;  // beyond the horizon
        const FaultSet& probe = probe_at(detect);
        int chosen = -1;
        for (int k = 1; k <= w; ++k) {
          const int cand = (fg.path_idx + k) % w;
          probed.clear();
          oracle.path(edge, cand, probed_sink);
          if (probe.path_alive(probed)) {
            chosen = cand;
            break;
          }
        }
        if (chosen < 0) {
          // Every path dead at detect time.  If the schedule has no events
          // left to fire, no backoff can ever revive a path — resolve the
          // remaining attempts now instead of re-probing the same final
          // state (all-paths-dead degradation, not a livelocked storm).
          if (detect > last_event_step) break;
          continue;  // a repair may still be pending: back off and re-probe
        }
        fg.path_idx = chosen;
        fg.release = static_cast<int>(detect);
        ++result.retransmissions;
        ++result.fragments_sent;
        ++out.retransmissions;
        next_frags.push_back(fg);
        scheduled = true;
        break;
      }
      if (!scheduled) ++result.fragments_exhausted;
    }
    frags = std::move(next_frags);
  }
  rtrace.finish();

  for (const MessageOutcome& m : result.messages) {
    if (m.complete) ++result.messages_complete;
    if (m.recovered()) {
      ++result.messages_recovered;
      result.recovery_latency.observe(
          static_cast<double>(m.complete_step - m.first_loss_step));
    }
  }

  return result;
}

}  // namespace hyperpath
