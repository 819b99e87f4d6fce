// Sender-side failover and retransmission over multiple-path embeddings.
//
// This is the dynamic half of the paper's fault-tolerance story (Sections 1
// and 9).  Each guest edge's message is dispersed into w fragments, one per
// path of its width-w bundle (the IDA picture of ida.hpp: any `threshold`
// distinct fragments reconstruct the message).  The fragments run through a
// store-and-forward simulator while a FaultSchedule replays timed link and
// node faults; a fragment that reaches a dead link is truncated at the
// break point.  The sender then
//
//   * detects the loss after a configurable timeout,
//   * retransmits the fragment on the next surviving path of the bundle
//     (probed cyclically against the schedule's state at the detect step),
//   * backs off exponentially (timeout, 2*timeout, 4*timeout, ...) across
//     attempts, giving transient faults time to be repaired, and
//   * gives up after `max_retries` attempts per fragment.
//
// A message completes as soon as `threshold` distinct fragments have
// arrived; outstanding losses of an already-complete message are not
// retransmitted.  With threshold = w-1 this is exactly the §9 claim: any
// single fault per bundle costs only recovery latency, never the message.
//
// The engine is wave-based: every retransmission round is a fresh simulator
// run on one absolute clock (retransmitted fragments release at their
// detect step, and the schedule replays from step 0, so faults hold across
// waves).  There is one wave loop, over a PathOracle and its demanded guest
// edges: each wave streams its fragments' paths from the oracle into one
// compact RoutePlan and runs it once through the serial run_plan, so its
// memory follows the links the fragments touch, never the host.  The
// embedding overload is an adapter onto it (a MaterializedOracle and every
// guest edge); the Monte-Carlo driver parallelizes across trials instead.
// Trace output: the wave-0
// run announces kFault/kRepair, every truncation is a kDrop, and each
// retransmission emits kRetransmit (packet = message id, link = first link
// of the new route, value = attempt number); waves appear in the stream
// back-to-back, each internally in canonical step order.
#pragma once

#include <span>

#include "embed/path_oracle.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "sim/packet.hpp"

namespace hyperpath {

struct RecoveryConfig {
  /// Steps after a loss before the sender declares the fragment dead and
  /// retransmits.  Doubled on every further attempt for the same fragment;
  /// the doubled wait saturates at the step horizon (max_steps), so very
  /// large retry budgets can never overflow the backoff shift.
  int timeout = 8;
  /// Retransmission budget per fragment.  Safe at any magnitude: once the
  /// saturated backoff passes the horizon, or every bundle path is
  /// permanently dead with no repair still pending, the remaining attempts
  /// resolve immediately instead of re-probing the schedule.
  int max_retries = 4;
  /// Distinct fragments needed to reconstruct a message; <= 0 means all w
  /// (no dispersal redundancy).  The IDA setting is width - 1.
  int threshold = 0;
  /// Per-wave simulation step budget.
  int max_steps = 1 << 22;
};

/// Per-message (= per guest edge) outcome.
struct MessageOutcome {
  bool complete = false;
  int complete_step = -1;     // step the threshold-th fragment arrived
  int first_loss_step = -1;   // earliest pre-completion fragment loss
  int fragments_delivered = 0;
  int retransmissions = 0;

  /// Steps from the first pre-completion loss to completion; meaningful
  /// only when the message both lost a fragment and completed.
  bool recovered() const { return complete && first_loss_step >= 0; }
};

struct RecoveryResult {
  std::vector<MessageOutcome> messages;  // indexed by guest edge id
  std::size_t messages_total = 0;
  std::size_t messages_complete = 0;
  std::size_t messages_recovered = 0;    // completed despite a loss

  std::uint64_t fragments_sent = 0;      // initial sends + retransmissions
  std::uint64_t fragments_delivered = 0;
  std::uint64_t fragments_lost = 0;      // truncation events
  std::uint64_t fragments_exhausted = 0; // gave up after max_retries
  std::uint64_t retransmissions = 0;

  int makespan = 0;   // absolute step of the last movement across all waves
  int waves = 0;      // simulator invocations (1 = no retransmission needed)
  std::uint64_t total_transmissions = 0;  // packet-hops, all waves
  std::uint64_t useful_transmissions = 0; // hops of delivered fragments

  /// complete_step - first_loss_step for every recovered message.
  obs::FixedHistogram recovery_latency;

  double delivery_rate() const {
    return messages_total
               ? static_cast<double>(messages_complete) / messages_total
               : 1.0;
  }
  /// Fraction of transmitted hops that belonged to delivered fragments.
  double goodput() const {
    return total_transmissions ? static_cast<double>(useful_transmissions) /
                                     total_transmissions
                               : 1.0;
  }
};

/// Runs one message per guest edge of `emb` (w fragments each) through the
/// fault schedule with sender-side recovery: the oracle overload below on
/// MaterializedOracle(emb) and all_guest_edges of it, so message e is guest
/// edge e.  The outcome is the returned RecoveryResult alone; nothing is
/// published to the metrics registry beyond the run's profiler span.
RecoveryResult run_recovery(const MultiPathEmbedding& emb,
                            const FaultSchedule& schedule,
                            const RecoveryConfig& config = {},
                            obs::TraceSink* sink = nullptr);

/// Oracle-backed recovery: one message per *demanded* guest edge, bundles
/// generated on demand from the oracle (the next-surviving-path probe
/// included), so the engine runs on hosts whose full embedding was never
/// materialized.  Message m in the result corresponds to edges[m].
RecoveryResult run_recovery(const PathOracle& oracle,
                            std::span<const OracleEdge> edges,
                            const FaultSchedule& schedule,
                            const RecoveryConfig& config = {},
                            obs::TraceSink* sink = nullptr);

}  // namespace hyperpath
