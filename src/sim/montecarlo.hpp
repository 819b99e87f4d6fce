// Monte-Carlo fault-campaign engine: fleet-scale reliability measurement of
// multiple-path embeddings (the §1/§9 fault-tolerance claim as a measured
// curve instead of one anecdotal schedule).
//
// A *campaign* fans thousands of independent trials across the src/par
// work-stealing pool.  Each trial
//
//   1. derives its own Rng splitmix-style from (campaign seed, trial index)
//      — never from thread identity or execution order,
//   2. draws a randomized timed fault schedule (FaultSchedule::random) at
//      the campaign's fault intensity, and
//   3. runs one message per guest edge through the sender-side recovery
//      engine (sim/recovery.hpp) under that schedule.
//
// Determinism contract (the same one src/par enforces for construction):
// trial outcomes are a pure function of (embedding, config, trial index).
// Chunk boundaries depend only on the trial range; per-chunk accumulators
// are merged in ascending chunk order; and the campaign digest combines
// position-mixed per-trial hashes with a commutative wrapping sum — so the
// digest and every aggregate statistic are bit-identical at any thread
// count, and a campaign split into disjoint trial ranges merges back into
// exactly the whole-campaign result (resumable / partitionable campaigns).
//
// The streamed reducer keeps only O(1) state per campaign: counts, maxima,
// and fixed-bucket histograms combined via FixedHistogram::merge (recovery
// latency, retransmit generations, trial makespan, per-trial delivery
// rate).  No per-trial record is retained, so campaigns scale to millions
// of trials.
//
// sweep_envelope ramps the fault intensity over a grid and runs one
// campaign per point per embedding — the reliability envelope.  The
// critical fault rate (where delivery first drops below a threshold) falls
// out of the curve by interpolation.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/faults.hpp"
#include "sim/recovery.hpp"

namespace hyperpath {

/// Per-trial seed derived from the campaign seed and the trial index via
/// two rounds of the splitmix64 finalizer.  Pure function of its inputs —
/// the heart of the campaign determinism contract.
std::uint64_t trial_seed(std::uint64_t campaign_seed, std::uint64_t trial);

/// One campaign's knobs.  Trials [trial_begin, trial_end) of the conceptual
/// campaign [0, trials) are run; the default (0, 0) means the whole range.
/// Running disjoint sub-ranges and merging their stats reproduces the full
/// campaign bit-exactly.
struct CampaignConfig {
  std::uint64_t seed = 1;
  std::uint32_t trials = 1000;
  std::uint32_t trial_begin = 0;
  std::uint32_t trial_end = 0;  // 0 = `trials`
  /// Per-trial randomized schedule shape; `schedule.link_rate` is the
  /// campaign's fault-intensity knob.
  RandomScheduleSpec schedule;
  /// Recovery engine settings for every trial.
  RecoveryConfig recovery;
};

/// Compact outcome of one trial — everything the reducer and the digest
/// consume.  Integer fields only, so the digest is exact on every platform.
struct TrialOutcome {
  std::uint32_t trial = 0;
  std::uint32_t events = 0;  // schedule size (fault + repair events)
  std::uint32_t messages = 0;
  std::uint32_t complete = 0;
  std::uint32_t recovered = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t fragments_lost = 0;
  std::uint64_t fragments_exhausted = 0;
  std::uint64_t latency_steps = 0;  // Σ (complete − first loss) of recovered
  std::int32_t makespan = 0;
  std::int32_t waves = 0;

  /// Position-mixed hash of every field (the trial index participates), so
  /// the campaign digest — a wrapping sum of these — detects any change to
  /// any trial while staying independent of summation order.
  std::uint64_t digest() const;
};

/// Streamed campaign statistics.  add_trial folds one outcome in; merge
/// folds a whole sub-campaign in (histograms share one fixed shape, so
/// merge order never matters — enforced anyway by chunk-ordered reduction).
struct CampaignStats {
  CampaignStats();

  std::uint64_t trials = 0;
  std::uint64_t schedule_events = 0;
  std::uint64_t messages_total = 0;
  std::uint64_t messages_complete = 0;
  std::uint64_t messages_recovered = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t fragments_lost = 0;
  std::uint64_t fragments_exhausted = 0;
  /// Trials in which every message completed (the survival-rate numerator).
  std::uint64_t trials_fully_delivered = 0;
  int max_makespan = 0;
  int max_waves = 0;

  /// Per-message recovery latency, merged across every trial.
  obs::FixedHistogram recovery_latency;
  /// Retransmit generations: retransmissions consumed per *recovered*
  /// message (how deep the failover had to go).
  obs::FixedHistogram retransmit_generations;
  /// Per-trial makespan distribution.
  obs::FixedHistogram trial_makespan;
  /// Per-trial delivery rate in permille (0..1000) on CDF-friendly buckets
  /// — the delivery CDF at this fault intensity.
  obs::FixedHistogram delivery_permille;

  /// Wrapping sum of per-trial digests; bit-identical at every thread
  /// count and under any partition of the trial range.
  std::uint64_t digest = 0;

  double delivery_rate() const {
    return messages_total
               ? static_cast<double>(messages_complete) / messages_total
               : 1.0;
  }
  /// Fraction of trials that delivered every message.
  double survival_rate() const {
    return trials ? static_cast<double>(trials_fully_delivered) / trials
                  : 1.0;
  }

  void add_trial(const TrialOutcome& t);
  void merge(const CampaignStats& other);
};

/// Fans a campaign's trials across par::current_pool().  Every trial runs
/// the oracle recovery engine over one MaterializedOracle of the embedding
/// and its full guest edge list, both built once here; message e of a
/// trial is guest edge e.  The embedding must outlive the driver.
class MonteCarloDriver {
 public:
  explicit MonteCarloDriver(const MultiPathEmbedding& emb);

  /// Runs the configured trial range and returns the reduced statistics.
  /// Throws on a malformed config (empty trial range).
  CampaignStats run(const CampaignConfig& config) const;

  /// One trial exactly as the campaign runs it (tests, post-mortem replay
  /// of an interesting trial index).  Optionally returns the schedule.
  RecoveryResult run_trial(const CampaignConfig& config, std::uint32_t trial,
                           FaultSchedule* schedule_out = nullptr) const;

  /// The TrialOutcome summary of a RecoveryResult, as add_trial consumes.
  static TrialOutcome summarize(std::uint32_t trial, std::uint32_t events,
                                const RecoveryResult& r);

 private:
  MaterializedOracle oracle_;
  std::vector<OracleEdge> edges_;
};

/// One point of a reliability envelope: the campaign statistics at one
/// fault intensity.
struct EnvelopePoint {
  double link_rate = 0;
  CampaignStats stats;
};

/// Runs one campaign per intensity in `link_rates` (ascending), reusing
/// `base` for every other knob.  Common random numbers: every point uses
/// the same campaign seed, so curves differ only through the intensity.
std::vector<EnvelopePoint> sweep_envelope(const MultiPathEmbedding& emb,
                                          const CampaignConfig& base,
                                          const std::vector<double>& link_rates);

/// The critical fault rate: the intensity at which delivery first drops
/// below `threshold`, linearly interpolated between the bracketing sweep
/// points.  Returns -1 if delivery never drops below the threshold, and
/// the first point's rate if it is already below.
double critical_fault_rate(const std::vector<EnvelopePoint>& envelope,
                           double threshold);

}  // namespace hyperpath
