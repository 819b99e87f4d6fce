// Cross-run performance ledger, drift detection and the baseline diff:
// the analysis core of tools/bench_trend.
//
// bench_runner --history appends one LedgerEntry line per suite run to
// bench/history/BENCH_HISTORY.jsonl: run provenance (git sha, host,
// compiler, flags) plus every report metric flattened to
// "<bench>.<metric>" and every timing span to "<bench>.<span>" seconds.
// analyze_trend reads the last N entries that share a comparison key —
// host | compiler | flags | effective_threads | telemetry_period_steps;
// series recorded under different thread counts or sampling rates are
// never compared — and looks for step changes:
//
//   * metrics  — deterministic outputs; median-based step detection with
//     tolerance 0 by default, so any persistent change is a step (a noisy
//     single-run blip moves the split-medians much less than a real step).
//   * timings  — wall-clock; same detector with a generous default
//     tolerance, reported but never gating.
//   * bounds   — any "<base>_floor"/"<base>_ceiling" metric pair must
//     bracket the measured "<base>" (or "<base>" with "congestion" →
//     "peak_congestion", matching the congestion benches) in the newest
//     run, and any "*_in_bounds" metric must equal 1.  This keeps the
//     analytic floor/ceiling argument attached to the trend gate.
//
// compare_to_baseline applies the same detector to two runs, a committed
// baseline suite and the current one, with the same gate.  Its comparison
// key is not enforced: the metrics are host-independent.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hyperpath::obs {

class JsonValue;
class JsonWriter;

/// One suite run in the ledger (one JSONL line).
struct LedgerEntry {
  std::string timestamp;
  std::string git_sha;
  std::string hostname;
  std::string compiler;
  std::string flags;
  std::string build_type;
  int effective_threads = 0;
  /// Telemetry sampling period the suite ran with; 0 = telemetry off.
  int telemetry_period_steps = 0;
  std::map<std::string, double> metrics;  // "<bench>.<metric>" -> value
  std::map<std::string, double> timings;  // "<bench>.<span>" -> seconds
};

/// Series sampled under different configurations are incomparable; this is
/// the grouping key ("host|compiler|flags|threads=N|period=P").
std::string comparison_key(const LedgerEntry& e);

/// Parses one ledger line; nullopt (with `error`) on shape mismatch.
std::optional<LedgerEntry> parse_ledger_entry(const JsonValue& doc,
                                              std::string* error = nullptr);

/// Emits `e` as one object value into an open writer.
void write_ledger_entry(JsonWriter& w, const LedgerEntry& e);

/// Flattens a BENCH_SUITE.json document (object with "reports") into a
/// LedgerEntry: provenance from "meta", reports.<name>.metrics.* (numbers
/// only) and reports.<name>.timings.*.seconds.  A bare BENCH_<name>.json
/// report (object with "experiment") is a one-report suite.  Throws
/// hyperpath::Error on any other shape.  `telemetry_period_steps` is
/// stamped by the caller (the suite itself does not know it).
LedgerEntry flatten_suite(const JsonValue& suite);

struct TrendOptions {
  /// Newest runs (sharing the newest entry's comparison key) to analyze.
  std::size_t window = 8;
  /// Relative step tolerance for metrics (0 = any persistent change).
  double metric_tol = 0.0;
  /// Relative step tolerance for timings.
  double timing_tol = 0.30;
};

/// A detected step change in one series.
struct TrendFinding {
  std::string name;
  bool is_timing = false;
  std::size_t split = 0;   // first analyzed-run index after the step
  double median_before = 0;
  double median_after = 0;
  double rel_change = 0;   // (after - before) / max(|before|, eps)
};

struct TrendReport {
  std::string key;          // comparison key analyzed
  std::size_t runs = 0;     // entries analyzed (<= window)
  std::size_t series = 0;   // metric series examined
  std::vector<TrendFinding> metric_steps;
  std::vector<TrendFinding> timing_steps;
  std::vector<std::string> bounds_violations;
  /// Comparison keys present in the ledger but excluded from this
  /// analysis (different host/threads/sampling rate).
  std::vector<std::string> skipped_keys;
  /// compare_to_baseline only: metric series on one side.  Not gating.
  std::vector<std::string> missing;  // in the baseline, not in current
  std::vector<std::string> added;    // in current, not in the baseline

  /// The gate: no metric steps and no bounds violations.  Timing steps
  /// are informational.
  bool stable() const {
    return metric_steps.empty() && bounds_violations.empty();
  }
};

/// Analyzes the ledger (entries in append order; the newest entry picks
/// the comparison key).  Metrics absent from some runs of the window are
/// skipped — suites grow, and a missing series is not a step.
TrendReport analyze_trend(const std::vector<LedgerEntry>& entries,
                          const TrendOptions& options = {});

/// Checks `current` against `baseline` series by series, through
/// detect_step on the two values: every metric series both carry
/// (`series` counts them) steps past `metric_tol`, every shared timing
/// past `timing_tol` (informational).  Metric series on one side only are
/// listed in `missing`/`added`; the bounds check runs on `current`.
TrendReport compare_to_baseline(const LedgerEntry& baseline,
                                const LedgerEntry& current,
                                const TrendOptions& options = {});

/// Largest median step in `values` (chronological): max over split points
/// k of |median(values[k..]) - median(values[..k])| relative to the
/// earlier median.  Returns nullopt for fewer than 2 values or when no
/// split exceeds `tol`.
std::optional<TrendFinding> detect_step(const std::string& name,
                                        const std::vector<double>& values,
                                        double tol);

}  // namespace hyperpath::obs
