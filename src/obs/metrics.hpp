// Process-wide metrics: named counters, gauges, fixed-bucket histograms and
// wall-clock timings, all exportable as one JSON document.
//
// Two layers:
//
//   * Plain value types (FixedHistogram, UtilizationProfile) with no
//     locking — embedded in results (SimResult) and registry entries alike.
//   * MetricsRegistry — a process-wide named registry.  Creation of entries
//     is mutex-protected; Counter/Gauge updates are atomic and can be hit
//     from any thread.  Histogram observation is single-writer (the
//     simulators deliver from one thread).
//
// The timings section accumulates the global profiler's root spans
// (obs/profile.hpp), so a bench brackets its "construct" and "simulate"
// phases with HP_PROFILE_SPAN and exports both.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hyperpath::obs {

class JsonWriter;

/// Monotone event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Histogram over fixed, caller-supplied bucket upper bounds (ascending).
/// A sample lands in the first bucket whose bound is >= the sample; samples
/// beyond the last bound land in an implicit overflow bucket.
class FixedHistogram {
 public:
  FixedHistogram() = default;
  explicit FixedHistogram(std::vector<double> bounds);

  /// Bounds 1, 2, 4, ..., 2^(buckets-1): the right shape for step latencies
  /// and queue depths, which the paper's constructions keep near-constant
  /// but adversarial workloads spread over orders of magnitude.
  static FixedHistogram exponential(int buckets = 20);

  void observe(double v) { observe(v, 1); }
  /// Observes `v` n times in one update.  Bit-identical to n calls of
  /// observe(v) whenever v·n and the running sum are exact doubles — true
  /// of integer-valued samples whose sum stays below 2^53, such as step
  /// latencies.
  void observe(double v, std::uint64_t n);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / count_ : 0.0; }
  double max() const { return max_; }

  /// Quantile estimate by linear interpolation within buckets: bucket i
  /// covers (lower, bounds()[i]] with lower = 0 for the first bucket, and
  /// ranks spread uniformly inside it.  Exact at bucket edges — a rank
  /// landing on a bucket's cumulative count returns that bucket's upper
  /// bound — and the overflow bucket interpolates up to max(), so
  /// quantile(1) == max() whenever the largest sample overflowed the
  /// bounds.  The result never exceeds max().  `q` is clamped to [0, 1];
  /// an empty histogram yields 0.
  double quantile(double q) const;

  /// Folds `other` into this histogram.  Requires identical bounds (an
  /// empty histogram adopts the other's shape), so per-worker histograms
  /// built from the same template combine deterministically when merged in
  /// worker order — the telemetry reducer's contract.  Equivalent to
  /// observing both sample multisets into one histogram: counts, count,
  /// sum and max all add/maximize exactly.
  void merge(const FixedHistogram& other);

  const std::vector<double>& bounds() const { return bounds_; }
  /// counts().size() == bounds().size() + 1 (last = overflow).
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  void write_json(JsonWriter& w) const;

  friend bool operator==(const FixedHistogram&,
                         const FixedHistogram&) = default;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double max_ = 0;
};

/// Memory-bounded per-step utilization record: an exact running mean plus a
/// downsampled profile of at most kMaxSlots slots.  Each slot is the exact
/// mean of `granularity()` consecutive steps; when a run outgrows the slot
/// budget adjacent slots are merged and the granularity doubles, so memory
/// stays O(kMaxSlots) no matter how many steps the simulation runs.
class UtilizationProfile {
 public:
  static constexpr std::size_t kMaxSlots = 512;

  void add(double u);

  /// Exact mean over every recorded step.
  double average() const { return steps_ ? sum_ / steps_ : 0.0; }

  std::size_t steps() const { return steps_; }
  bool empty() const { return steps_ == 0; }

  /// Steps per slot (a power of two).
  std::uint64_t granularity() const { return granularity_; }

  /// Per-slot means, oldest first.  For runs of <= kMaxSlots steps this is
  /// exactly the per-step utilization sequence.
  std::vector<double> profile() const;

  void write_json(JsonWriter& w) const;

  friend bool operator==(const UtilizationProfile&,
                         const UtilizationProfile&) = default;

 private:
  struct Slot {
    double sum = 0;
    std::uint32_t count = 0;
    friend bool operator==(const Slot&, const Slot&) = default;
  };

  std::vector<Slot> slots_;
  std::uint64_t granularity_ = 1;
  double sum_ = 0;
  std::size_t steps_ = 0;
};

/// Named registry of counters, gauges, histograms and timer spans.  Entry
/// addresses are stable for the registry's lifetime, so call sites may
/// cache the reference returned by counter()/gauge()/histogram().
class MetricsRegistry {
 public:
  /// The process-wide registry fed by the global profiler's root spans
  /// and the bench harness.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Value of `name` if that counter exists, else 0 — without creating an
  /// entry.  The telemetry sampler reads through this so sampling never
  /// changes what a later metrics export contains.
  std::uint64_t counter_value(const std::string& name) const;
  /// Creates with the given bounds on first use; later calls ignore
  /// `bounds` and return the existing histogram.
  FixedHistogram& histogram(const std::string& name,
                            std::vector<double> bounds);

  /// Accumulates one wall-clock span measurement under `name`.
  void record_span(const std::string& name, double seconds);

  /// Snapshot of every recorded timer span.
  struct SpanView {
    std::string name;
    double seconds = 0;
    std::uint64_t count = 0;
  };
  std::vector<SpanView> timings() const;

  /// One JSON document: {"counters":{...},"gauges":{...},
  /// "histograms":{...},"timings":{...}}.
  std::string to_json() const;

  /// Emits the same document into an open writer (as an object value).
  void write_json(JsonWriter& w) const;

  /// The whole registry in Prometheus text exposition format (the /metrics
  /// payload hyperpathd will serve): counters as `hyperpath_<name>_total`,
  /// gauges verbatim, histograms as cumulative `_bucket{le=...}` series
  /// with `_sum`/`_count`, timing spans as `_seconds_total`/`_calls_total`
  /// counter pairs.  Names are sanitized to the Prometheus charset;
  /// defined in telemetry.cpp next to validate_prometheus_text.
  std::string expose_prometheus() const;

  /// Drops every entry (tests and repeated bench runs).
  void reset();

 private:
  struct Span {
    double seconds = 0;
    std::uint64_t count = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<FixedHistogram>> histograms_;
  std::map<std::string, Span> timings_;
};

}  // namespace hyperpath::obs
