// Metric value types and the measurement record.
//
//   * Plain value types (FixedHistogram, UtilizationProfile) with no
//     locking — embedded in results (SimResult, CampaignStats).
//   * The measurement record — one number with its unit and class, the
//     {"name","value","unit","class"} shape of bench reports, ledger rows
//     and hpbench.  Only `exact` records are deterministic outputs; the
//     trend gate compares them at tolerance 0 and only reports the rest.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hyperpath::obs {

class JsonWriter;
class Profiler;

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
  /// empty histogram adopts the other's shape), so per-chunk histograms
  /// built from the same template combine deterministically when merged in
  /// chunk order — the Monte-Carlo campaign fold's contract.  Equivalent to
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

/// What kind of number a record carries.  `exact` values repeat bit for
/// bit on any machine (counts, makespans, digests); the other three are
/// machine-dependent.
enum class RecordClass { kExact, kTiming, kMemory, kRate };

/// "exact", "timing", "memory" or "rate".
const char* record_class_name(RecordClass c);
std::optional<RecordClass> parse_record_class(std::string_view name);

/// Emits one record {"name":..,"value":..,"unit":..,"class":..} as a
/// value of an open array.  `value_json` is the value already encoded as
/// JSON (json_number for a double), so an exact integer past 2^53 keeps
/// every digit.  `unit` is one of hpbench's unit words: "s", "1/s", "KiB",
/// "B", "count", "steps" or "ratio".
void write_record(JsonWriter& w, std::string_view name,
                  std::string_view value_json, std::string_view unit,
                  RecordClass cls);

/// Emits the root spans of `p` (spans that closed at depth 0 on their
/// thread) as timing records in "s" into an open array: one per name,
/// sorted, wall seconds summed over every visit on every thread.
void write_root_span_records(JsonWriter& w, const Profiler& p);

}  // namespace hyperpath::obs
