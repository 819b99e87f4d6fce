// bench_trend — the benchmark regression gate: cross-run drift over the
// performance ledger, or one suite run against a committed baseline.
//
//   bench_trend [--history FILE] [--window N] [--metric-tol X]
//               [--timing-tol X] [--expect-stable] [--json [FILE]]
//   bench_trend --baseline BASELINE CURRENT [--metric-tol X] [--timing-tol X]
//
// Ledger mode reads the JSONL ledger bench_runner --history appends to,
// groups the newest run with its predecessors sharing the same comparison
// key (host | compiler | flags | threads | telemetry period — series
// sampled under different configurations are never compared), and runs
// median-based step detection over every "<bench>.<metric>" series plus
// the analytic floor/ceiling bracket check on the newest run (see
// obs/trend.hpp).  --expect-stable turns an unstable report — or a ledger
// too thin to analyze (< 2 comparable runs) — into exit 1.
//
// Baseline mode flattens BASELINE and CURRENT, each a BENCH_SUITE.json or
// a single BENCH_<name>.json report, and checks every metric series both
// carry (obs::compare_to_baseline).  At --metric-tol 0, the default, any
// change in either direction is a regression: a changed deterministic
// metric is a behavioral change.  Series on one side only are listed as
// missing/new; the bounds check runs on CURRENT.  It prints a table of
// everything that is not unchanged plus one machine-readable verdict line,
//
//   BENCH_COMPARE: PASS|FAIL regressions=N compared=M missing=K new=J
//
// where regressions counts metric changes and bounds violations, and exits
// 1 on any, which is how CI gates every push against
// bench/baselines/BENCH_SUITE.json.
//
// In both modes metric steps and bounds violations gate; timing deltas
// past --timing-tol are printed but never gate, because wall-clock noise
// is not a behavioral change.  Exit 2 is a usage or load error.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/trend.hpp"

#include "parse_number.hpp"

namespace {

using hyperpath::obs::LedgerEntry;
using hyperpath::obs::TrendFinding;
using hyperpath::obs::TrendOptions;
using hyperpath::obs::TrendReport;

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--history FILE] [--window N] [--metric-tol X]\n"
      "          [--timing-tol X] [--expect-stable] [--json [FILE]]\n"
      "       %s --baseline BASELINE CURRENT [--metric-tol X] "
      "[--timing-tol X]\n"
      "  --history FILE   ledger to analyze (default "
      "bench/history/BENCH_HISTORY.jsonl)\n"
      "  --window N       newest comparable runs to analyze (default 8)\n"
      "  --metric-tol X   relative step tolerance for metrics (default 0)\n"
      "  --timing-tol X   relative step tolerance for timings, never "
      "gating\n"
      "                   (default 0.30)\n"
      "  --expect-stable  exit nonzero on any metric step, bounds violation\n"
      "                   or a ledger with fewer than 2 comparable runs\n"
      "  --json [FILE]    machine-readable report (default "
      "TREND_REPORT.json)\n"
      "  --baseline FILE  diff suite or report CURRENT against FILE; exit 1 "
      "on a\n"
      "                   metric change or bounds violation\n",
      argv0, argv0);
}

void write_findings(hyperpath::obs::JsonWriter& w,
                    const std::vector<TrendFinding>& findings) {
  w.begin_array();
  for (const TrendFinding& f : findings) {
    w.begin_object();
    w.field("name", f.name);
    w.field("split", static_cast<std::uint64_t>(f.split));
    w.field("median_before", f.median_before);
    w.field("median_after", f.median_after);
    w.field("rel_change", f.rel_change);
    w.end_object();
  }
  w.end_array();
}

void print_findings(const char* label,
                    const std::vector<TrendFinding>& findings) {
  std::printf("%s: %zu\n", label, findings.size());
  for (const TrendFinding& f : findings) {
    std::printf("  %-48s median %g -> %g (%+.1f%%) at run %zu of window\n",
                f.name.c_str(), f.median_before, f.median_after,
                f.rel_change * 100, f.split);
  }
}

// "<bench>.<metric>" as one row of the baseline table.
void print_row(const std::string& name, double baseline, double current,
               double rel, const char* verdict) {
  const std::size_t dot = name.find('.');
  std::printf("%-14s %-36s %14.6g %14.6g %8.2f%%  %s\n",
              name.substr(0, dot).c_str(),
              dot == std::string::npos ? "" : name.c_str() + dot + 1,
              baseline, current, 100.0 * rel, verdict);
}

std::optional<LedgerEntry> load_suite(const std::string& path) {
  hyperpath::obs::JsonParseError err;
  const auto doc = hyperpath::obs::json_parse_file(path, &err);
  if (!doc) {
    std::fprintf(stderr, "bench_trend: cannot load %s (offset %zu: %s)\n",
                 path.c_str(), err.offset, err.message.c_str());
    return std::nullopt;
  }
  try {
    return hyperpath::obs::flatten_suite(*doc);
  } catch (const hyperpath::Error& e) {
    std::fprintf(stderr, "bench_trend: %s: %s\n", path.c_str(), e.what());
    return std::nullopt;
  }
}

int run_baseline(const std::string& baseline_path,
                 const std::string& current_path,
                 const TrendOptions& options) {
  const auto base = load_suite(baseline_path);
  const auto cur = base ? load_suite(current_path) : std::nullopt;
  if (!cur) return 2;
  const TrendReport r =
      hyperpath::obs::compare_to_baseline(*base, *cur, options);

  std::printf("%-14s %-36s %14s %14s %9s  %s\n", "report", "key",
              "baseline", "current", "rel", "verdict");
  for (const TrendFinding& f : r.metric_steps) {
    print_row(f.name, f.median_before, f.median_after, f.rel_change,
              "REGRESSION");
  }
  for (const std::string& name : r.missing) {
    print_row(name, base->metrics.at(name), 0, 0, "missing");
  }
  for (const std::string& name : r.added) {
    print_row(name, 0, cur->metrics.at(name), 0, "new");
  }
  for (const TrendFinding& f : r.timing_steps) {
    print_row(f.name, f.median_before, f.median_after, f.rel_change,
              "timing (informational)");
  }
  for (const std::string& v : r.bounds_violations) {
    std::printf("bounds violation: %s\n", v.c_str());
  }
  const std::size_t regressions =
      r.metric_steps.size() + r.bounds_violations.size();
  std::printf("BENCH_COMPARE: %s regressions=%zu compared=%zu missing=%zu "
              "new=%zu\n",
              regressions == 0 ? "PASS" : "FAIL", regressions, r.series,
              r.missing.size(), r.added.size());
  return regressions == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr double kMaxTol = 1e9;  // relative tolerances: any sane value
  std::string history_path = "bench/history/BENCH_HISTORY.jsonl";
  std::string baseline_path, current_path;
  TrendOptions options;
  bool expect_stable = false;
  bool json = false;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--history" && i + 1 < argc) {
      history_path = argv[++i];
    } else if (arg == "--window" && i + 1 < argc) {
      if (!hyperpath::tools::parse_number<std::size_t>(
              "--window", argv[++i], 1, INT_MAX, options.window)) {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--metric-tol" && i + 1 < argc) {
      if (!hyperpath::tools::parse_number("--metric-tol", argv[++i], 0.0,
                                          kMaxTol, options.metric_tol)) {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--timing-tol" && i + 1 < argc) {
      if (!hyperpath::tools::parse_number("--timing-tol", argv[++i], 0.0,
                                          kMaxTol, options.timing_tol)) {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--expect-stable") {
      expect_stable = true;
    } else if (arg == "--json") {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg[0] != '-' && current_path.empty()) {
      current_path = arg;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (baseline_path.empty() != current_path.empty()) {
    usage(argv[0]);
    return 2;
  }
  if (!baseline_path.empty()) {
    return run_baseline(baseline_path, current_path, options);
  }
  if (options.window < 2) {
    std::fprintf(stderr, "bench_trend: --window must be at least 2\n");
    return 2;
  }

  std::vector<LedgerEntry> entries;
  {
    hyperpath::obs::JsonlReader reader(history_path);
    if (!reader.ok()) {
      std::fprintf(stderr, "bench_trend: cannot read %s\n",
                   history_path.c_str());
      return expect_stable ? 1 : 2;
    }
    hyperpath::obs::JsonValue doc;
    while (reader.next(&doc)) {
      std::string err;
      if (auto e = hyperpath::obs::parse_ledger_entry(doc, &err)) {
        entries.push_back(std::move(*e));
      } else {
        std::fprintf(stderr, "bench_trend: %s line %zu skipped: %s\n",
                     history_path.c_str(), reader.line(), err.c_str());
      }
    }
    if (reader.failed()) {
      std::fprintf(stderr, "bench_trend: %s line %zu: %s\n",
                   history_path.c_str(), reader.line(),
                   reader.error().message.c_str());
      return 2;
    }
  }

  const TrendReport report = hyperpath::obs::analyze_trend(entries, options);

  std::printf("ledger: %zu run(s) in %s\n", entries.size(),
              history_path.c_str());
  std::printf("comparison key: %s\n",
              report.key.empty() ? "(empty ledger)" : report.key.c_str());
  std::printf("analyzed: %zu run(s), %zu metric series (window %zu)\n",
              report.runs, report.series, options.window);
  for (const std::string& key : report.skipped_keys) {
    std::printf("skipped incomparable key: %s\n", key.c_str());
  }
  print_findings("metric steps (gating)", report.metric_steps);
  print_findings("timing steps (informational)", report.timing_steps);
  std::printf("bounds violations: %zu\n", report.bounds_violations.size());
  for (const std::string& v : report.bounds_violations) {
    std::printf("  %s\n", v.c_str());
  }

  // Throughput of the newest comparable run: "pps_*" spans carry simulated
  // packet-steps/second (SimResult::packet_steps_per_sec recorded by the
  // benches) rather than seconds — surfaced here so the ledger answers
  // "how fast is the simulator today" without opening the suite JSON.
  std::vector<std::pair<std::string, double>> throughput;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (hyperpath::obs::comparison_key(*it) != report.key) continue;
    for (const auto& [name, value] : it->timings) {
      const std::size_t dot = name.find('.');
      if (dot != std::string::npos &&
          name.compare(dot + 1, 4, "pps_") == 0) {
        throughput.emplace_back(name, value);
      }
    }
    break;
  }
  if (!throughput.empty()) {
    std::printf("throughput (newest run):\n");
    for (const auto& [name, value] : throughput) {
      std::printf("  %-48s %12.0f packet-steps/s\n", name.c_str(), value);
    }
  }

  if (json) {
    if (json_path.empty()) json_path = "TREND_REPORT.json";
    hyperpath::obs::JsonWriter w;
    w.begin_object();
    w.field("kind", "trend_report");
    w.field("history", history_path);
    w.field("comparison_key", report.key);
    w.field("runs", static_cast<std::uint64_t>(report.runs));
    w.field("series", static_cast<std::uint64_t>(report.series));
    w.field("window", static_cast<std::uint64_t>(options.window));
    w.field("stable", report.stable());
    w.key("metric_steps");
    write_findings(w, report.metric_steps);
    w.key("timing_steps");
    write_findings(w, report.timing_steps);
    w.key("bounds_violations").begin_array();
    for (const std::string& v : report.bounds_violations) w.value(v);
    w.end_array();
    w.key("skipped_keys").begin_array();
    for (const std::string& k : report.skipped_keys) w.value(k);
    w.end_array();
    w.key("throughput").begin_object();
    for (const auto& [name, value] : throughput) w.field(name, value);
    w.end_object();
    w.end_object();
    std::ofstream out(json_path);
    out << w.str() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (expect_stable) {
    if (report.runs < 2) {
      std::fprintf(stderr,
                   "bench_trend: --expect-stable needs >= 2 comparable runs "
                   "(got %zu)\n",
                   report.runs);
      return 1;
    }
    if (!report.stable()) {
      std::fprintf(stderr, "bench_trend: UNSTABLE — %zu metric step(s), %zu "
                           "bounds violation(s)\n",
                   report.metric_steps.size(),
                   report.bounds_violations.size());
      return 1;
    }
    std::printf("bench_trend: stable\n");
  }
  return 0;
}
