// Cross-run performance ledger, drift detection and the baseline diff:
// the analysis core of tools/bench_trend.
//
// bench_runner --history appends one LedgerEntry line per suite run to
// bench/history/BENCH_HISTORY.jsonl: run provenance (git sha, host,
// compiler, flags) plus every report record (obs/metrics.hpp) named
// "<bench>.<record>" with its value, unit and class.  analyze_trend reads
// the last N entries that share a comparison key — host | compiler |
// flags | effective_threads; series recorded under different thread
// counts are never compared — and looks for step changes:
//
//   * exact     — deterministic outputs; median-based step detection with
//     tolerance 0 by default, so any persistent change is a step (a noisy
//     single-run blip moves the split-medians much less than a real step).
//   * timing, memory, rate — machine-dependent; same detector with a
//     generous default tolerance, reported but never gating.
//   * bounds   — any "<base>_floor"/"<base>_ceiling" exact pair must
//     bracket the measured "<base>" (or "<base>" with "congestion" →
//     "peak_congestion", matching the congestion benches) in the newest
//     run, and any "*_in_bounds" record must equal 1.  This keeps the
//     analytic floor/ceiling argument attached to the trend gate.
//
// A step the committed baseline already records (the newer value equals
// it, and a commit lies between the two sides) is an intended one:
// analyze_trend lists it as accepted, not gating.
//
// compare_to_baseline applies the same detector to two runs, a committed
// baseline suite and the current one, with the same gate.  Its comparison
// key is not enforced: the exact records are host-independent.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace hyperpath::obs {

class JsonValue;
class JsonWriter;

/// One measured number of a run, read back from a report or ledger row.
struct Record {
  double value = 0;
  std::string unit;
  RecordClass cls = RecordClass::kExact;
  friend bool operator==(const Record&, const Record&) = default;
};

/// One suite run in the ledger (one JSONL line).
struct LedgerEntry {
  std::string timestamp;
  std::string git_sha;
  std::string hostname;
  std::string compiler;
  std::string flags;
  std::string build_type;
  int effective_threads = 0;
  std::map<std::string, Record> records;  // "<bench>.<record>" -> record
};

/// Series sampled under different configurations are incomparable; this is
/// the grouping key ("host|compiler|flags|threads=N").  Fields a line
/// carries beyond these (older rows also stamp a sampling period, always
/// 0) are ignored, so old rows and new ones fall in one series.
std::string comparison_key(const LedgerEntry& e);

/// Parses one ledger line; nullopt (with `error`) on shape mismatch.
/// Rows written before records carried units hold "metrics" and "timings"
/// objects instead: their metrics read as exact records with no unit,
/// their timings as timing records in "s".
std::optional<LedgerEntry> parse_ledger_entry(const JsonValue& doc,
                                              std::string* error = nullptr);

/// Emits `e` as one object value into an open writer.
void write_ledger_entry(JsonWriter& w, const LedgerEntry& e);

/// Flattens a BENCH_SUITE.json document (object with "reports") into a
/// LedgerEntry: provenance from "meta" and every reports.<name>.records
/// entry with a numeric value (a null — non-finite — value is skipped).
/// A bare BENCH_<name>.json report (object with "experiment") is a
/// one-report suite.  Throws hyperpath::Error on any other shape.
LedgerEntry flatten_suite(const JsonValue& suite);

struct TrendOptions {
  /// Newest runs (sharing the newest entry's comparison key) to analyze.
  std::size_t window = 8;
  /// Relative step tolerance for exact records (0 = any persistent change).
  double metric_tol = 0.0;
  /// Relative step tolerance for timing, memory and rate records.
  double timing_tol = 0.30;
};

/// A detected step change in one series.
struct TrendFinding {
  std::string name;
  std::string unit;
  RecordClass cls = RecordClass::kExact;
  std::size_t split = 0;   // first analyzed-run index after the step
  double median_before = 0;
  double median_after = 0;
  double rel_change = 0;   // (after - before) / max(|before|, eps)
};

struct TrendReport {
  std::string key;          // comparison key analyzed
  std::size_t runs = 0;     // entries analyzed (<= window)
  std::size_t series = 0;   // exact series examined
  std::vector<TrendFinding> metric_steps;  // exact records: gating
  /// analyze_trend with a baseline only: exact steps the baseline accepts
  /// (see there).  Not gating.
  std::vector<TrendFinding> accepted_steps;
  std::vector<TrendFinding> timing_steps;  // every other class: not gating
  std::vector<std::string> bounds_violations;
  /// Comparison keys present in the ledger but excluded from this
  /// analysis (different host/compiler/flags/threads).
  std::vector<std::string> skipped_keys;
  /// compare_to_baseline only: exact series on one side.  Not gating.
  std::vector<std::string> missing;  // in the baseline, not in current
  std::vector<std::string> added;    // in current, not in the baseline

  /// The gate: no exact steps and no bounds violations.  Timing steps
  /// are informational.
  bool stable() const {
    return metric_steps.empty() && bounds_violations.empty();
  }
};

/// Analyzes the ledger (entries in append order; the newest entry picks
/// the comparison key).  Records absent from some runs of the window are
/// skipped — suites grow, and a missing series is not a step.
///
/// An intended step is one the committed baseline (`baseline`, when
/// given) already records: an exact step whose newer median equals the
/// baseline's exact record of the same name, and whose two sides were
/// built from different commits (the runs either side of the split carry
/// different git shas), moves from metric_steps to accepted_steps.  The
/// baseline edit is the acceptance; two runs of one build never accept a
/// step, so nondeterminism still gates.
TrendReport analyze_trend(const std::vector<LedgerEntry>& entries,
                          const TrendOptions& options = {},
                          const LedgerEntry* baseline = nullptr);

/// Checks `current` against `baseline` series by series, through
/// detect_step on the two values: every exact series both carry
/// (`series` counts them) steps past `metric_tol`, every other shared
/// series past `timing_tol` (informational).  Exact series on one side
/// only are listed in `missing`/`added`; the bounds check runs on
/// `current`.
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
