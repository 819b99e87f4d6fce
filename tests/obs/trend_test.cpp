// Tests for the cross-run performance ledger (obs/trend.hpp): median step
// detection, comparison-key grouping (series run at different thread
// counts are never compared; the committed ledger's older rows group with
// new ones), analytic-bounds checks, LedgerEntry round-trips through
// JSONL, and the baseline diff: unchanged suites pass, perturbed metrics
// regress, timings never gate, and suite/report shape handling.
#include "obs/trend.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"

namespace hyperpath {
namespace {

using obs::LedgerEntry;
using obs::TrendOptions;
using obs::TrendReport;
using obs::analyze_trend;
using obs::compare_to_baseline;
using obs::comparison_key;
using obs::detect_step;

LedgerEntry entry(std::map<std::string, double> metrics,
                  std::map<std::string, double> timings = {}) {
  LedgerEntry e;
  e.hostname = "host";
  e.compiler = "GNU 12";
  e.effective_threads = 4;
  e.metrics = std::move(metrics);
  e.timings = std::move(timings);
  return e;
}

TEST(DetectStep, FindsAPersistentChange) {
  const auto f = detect_step("m", {10, 10, 10, 20, 20}, 0.0);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->name, "m");
  // The earliest split realizing the max change wins; both split medians
  // sit on the true levels either side of the step.
  EXPECT_GE(f->split, 2u);
  EXPECT_LE(f->split, 3u);
  EXPECT_DOUBLE_EQ(f->median_before, 10.0);
  EXPECT_DOUBLE_EQ(f->median_after, 20.0);
  EXPECT_DOUBLE_EQ(f->rel_change, 1.0);
}

TEST(DetectStep, IgnoresASingleRunBlip) {
  // One noisy run in the middle never moves either split median, so the
  // blip is invisible to the detector even at tolerance 0.
  EXPECT_FALSE(detect_step("m", {10, 10, 30, 10, 10}, 0.0).has_value());
}

TEST(DetectStep, ReportsNegativeStepsToo) {
  const auto f = detect_step("m", {20, 20, 20, 10, 10}, 0.0);
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f->rel_change, -0.5);
}

TEST(DetectStep, NeedsAtLeastTwoValues) {
  EXPECT_FALSE(detect_step("m", {}, 0.0).has_value());
  EXPECT_FALSE(detect_step("m", {10}, 0.0).has_value());
}

TEST(DetectStep, ToleranceSuppressesSmallSteps) {
  EXPECT_FALSE(detect_step("m", {1.0, 1.0, 1.2, 1.2}, 0.30).has_value());
  EXPECT_TRUE(detect_step("m", {1.0, 1.0, 1.5, 1.5}, 0.30).has_value());
}

TEST(ComparisonKey, OldLedgerRowsShareTheNewRowsKey) {
  // The committed ledger's older rows carry a field new rows no longer
  // write.  Every committed row must still parse, and the same row written
  // in the current format must land under the same key — so analyze_trend
  // over the committed ledger plus one new row counts that row in the
  // newest series.
  std::ifstream in(HP_SOURCE_DIR "/bench/history/BENCH_HISTORY.jsonl");
  ASSERT_TRUE(in.good());
  std::vector<LedgerEntry> ledger;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto doc = obs::json_parse(line);
    ASSERT_TRUE(doc.has_value()) << "ledger row " << ledger.size() + 1;
    std::string error;
    const auto row = obs::parse_ledger_entry(*doc, &error);
    ASSERT_TRUE(row.has_value()) << error;
    obs::JsonWriter w;
    obs::write_ledger_entry(w, *row);
    const auto redoc = obs::json_parse(w.str());
    ASSERT_TRUE(redoc.has_value()) << w.str();
    const auto rewritten = obs::parse_ledger_entry(*redoc);
    ASSERT_TRUE(rewritten.has_value()) << w.str();
    EXPECT_EQ(comparison_key(*rewritten), comparison_key(*row))
        << "ledger row " << ledger.size() + 1;
    ledger.push_back(*row);
  }
  ASSERT_FALSE(ledger.empty());

  const std::string newest = comparison_key(ledger.back());
  EXPECT_EQ(newest.find("period="), std::string::npos) << newest;
  std::size_t same_key = 0;
  for (const LedgerEntry& e : ledger) same_key += comparison_key(e) == newest;
  ledger.push_back(ledger.back());  // a new row from the same host and build
  TrendOptions opt;
  opt.window = ledger.size();
  EXPECT_EQ(analyze_trend(ledger, opt).runs, same_key + 1);

  // A row run at another thread count still gets its own key.
  LedgerEntry other = ledger.back();
  other.effective_threads += 1;
  EXPECT_NE(comparison_key(other), newest);
}

TEST(AnalyzeTrend, GroupsByTheNewestKeyAndSkipsTheRest) {
  // Two runs at threads=4, then a run at threads=8, then two more at
  // threads=4.  The newest entry picks the key; the threads=8 run is
  // excluded and reported, not compared.
  std::vector<LedgerEntry> ledger;
  ledger.push_back(entry({{"b.m", 10}}));
  ledger.push_back(entry({{"b.m", 10}}));
  LedgerEntry odd = entry({{"b.m", 999}});
  odd.effective_threads = 8;
  ledger.push_back(odd);
  ledger.push_back(entry({{"b.m", 10}}));
  ledger.push_back(entry({{"b.m", 10}}));

  const TrendReport r = analyze_trend(ledger);
  EXPECT_EQ(r.runs, 4u);
  EXPECT_EQ(r.series, 1u);
  EXPECT_TRUE(r.metric_steps.empty());
  EXPECT_TRUE(r.stable());
  ASSERT_EQ(r.skipped_keys.size(), 1u);
  EXPECT_NE(r.skipped_keys[0].find("threads=8"), std::string::npos);
}

TEST(AnalyzeTrend, MetricStepGatesTheReport) {
  std::vector<LedgerEntry> ledger;
  for (double v : {100.0, 100.0, 100.0, 112.0, 112.0}) {
    ledger.push_back(entry({{"simcore.makespan", v}}));
  }
  const TrendReport r = analyze_trend(ledger);
  ASSERT_EQ(r.metric_steps.size(), 1u);
  EXPECT_EQ(r.metric_steps[0].name, "simcore.makespan");
  EXPECT_NEAR(r.metric_steps[0].rel_change, 0.12, 1e-9);
  EXPECT_FALSE(r.stable());
}

TEST(AnalyzeTrend, TimingStepsAreInformationalOnly) {
  std::vector<LedgerEntry> ledger;
  for (double secs : {1.0, 1.0, 2.0, 2.0}) {
    ledger.push_back(entry({{"b.m", 7}}, {{"b.total", secs}}));
  }
  const TrendReport r = analyze_trend(ledger);
  ASSERT_EQ(r.timing_steps.size(), 1u);
  EXPECT_TRUE(r.timing_steps[0].is_timing);
  EXPECT_TRUE(r.metric_steps.empty());
  EXPECT_TRUE(r.stable()) << "timing drift must not gate";
}

TEST(AnalyzeTrend, WindowTrimsOldRuns) {
  // A step lives entirely outside the analysis window: invisible.
  std::vector<LedgerEntry> ledger;
  for (double v : {10.0, 10.0, 20.0, 20.0}) {
    ledger.push_back(entry({{"b.m", v}}));
  }
  TrendOptions opt;
  opt.window = 2;
  const TrendReport r = analyze_trend(ledger, opt);
  EXPECT_EQ(r.runs, 2u);
  EXPECT_TRUE(r.metric_steps.empty());
  EXPECT_TRUE(r.stable());
}

TEST(AnalyzeTrend, MissingSeriesIsNotAStep) {
  // A metric that only exists in newer runs (the suite grew) is skipped,
  // not treated as drift.
  std::vector<LedgerEntry> ledger;
  ledger.push_back(entry({{"b.m", 10}}));
  ledger.push_back(entry({{"b.m", 10}, {"b.new_metric", 42}}));
  const TrendReport r = analyze_trend(ledger);
  EXPECT_EQ(r.series, 1u);
  EXPECT_TRUE(r.stable());
}

TEST(AnalyzeTrend, BoundsViolationsGateOnTheNewestRun) {
  // Floor exceeded directly, ceiling exceeded through the congestion ->
  // peak_congestion naming convention, and a failed *_in_bounds flag.
  std::vector<LedgerEntry> ledger;
  ledger.push_back(entry({
      {"b.makespan", 4},
      {"b.makespan_floor", 6},  // measured 4 below analytic floor 6
      {"b.q16_peak_congestion", 10},
      {"b.q16_congestion_floor", 5},
      {"b.q16_congestion_ceiling", 8},  // measured 10 above ceiling 8
      {"b.schedule_in_bounds", 0},
  }));
  const TrendReport r = analyze_trend(ledger);
  ASSERT_EQ(r.bounds_violations.size(), 3u);
  EXPECT_FALSE(r.stable());

  // And the satisfied version of the same shapes passes.
  ledger.clear();
  ledger.push_back(entry({
      {"b.makespan", 8},
      {"b.makespan_floor", 6},
      {"b.q16_peak_congestion", 7},
      {"b.q16_congestion_floor", 5},
      {"b.q16_congestion_ceiling", 8},
      {"b.schedule_in_bounds", 1},
  }));
  EXPECT_TRUE(analyze_trend(ledger).stable());
}

TEST(LedgerEntry, RoundTripsThroughJsonl) {
  LedgerEntry e = entry({{"b.m", 1.5}, {"b.n", 2}}, {{"b.total", 0.25}});
  e.timestamp = "2026-08-08T00:00:00Z";
  e.git_sha = "abc123";
  e.flags = "-O2";
  e.build_type = "Release";

  obs::JsonWriter w;
  obs::write_ledger_entry(w, e);
  const auto doc = obs::json_parse(w.str());
  ASSERT_TRUE(doc.has_value()) << w.str();
  std::string error;
  const auto back = obs::parse_ledger_entry(*doc, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->timestamp, e.timestamp);
  EXPECT_EQ(back->git_sha, e.git_sha);
  EXPECT_EQ(back->hostname, e.hostname);
  EXPECT_EQ(back->compiler, e.compiler);
  EXPECT_EQ(back->flags, e.flags);
  EXPECT_EQ(back->build_type, e.build_type);
  EXPECT_EQ(back->effective_threads, e.effective_threads);
  EXPECT_EQ(back->metrics, e.metrics);
  EXPECT_EQ(back->timings, e.timings);
  EXPECT_EQ(comparison_key(*back), comparison_key(e));
}

TEST(LedgerEntry, ParseRejectsEntriesWithoutMetrics) {
  const auto doc = obs::json_parse(
      R"({"kind":"bench_run","hostname":"h","metrics":{}})");
  ASSERT_TRUE(doc.has_value());
  std::string error;
  EXPECT_FALSE(obs::parse_ledger_entry(*doc, &error).has_value());
  EXPECT_FALSE(error.empty());

  const auto wrong_kind = obs::json_parse(R"({"kind":"sample"})");
  ASSERT_TRUE(wrong_kind.has_value());
  EXPECT_FALSE(obs::parse_ledger_entry(*wrong_kind).has_value());
}

TEST(FlattenSuite, LiftsMetricsAndSpanSecondsFromASuiteDocument) {
  const auto suite = obs::json_parse(R"({
    "meta": {"timestamp": "t", "git_sha": "s", "hostname": "h",
             "compiler": "c", "flags": "-O2", "build_type": "Release",
             "effective_threads": 4},
    "reports": {
      "simcore": {
        "metrics": {"makespan": 128, "label": "not-a-number"},
        "timings": {"flat_run": {"seconds": 0.5, "calls": 3}}
      },
      "theorem1": {"metrics": {"paths": 8}}
    }
  })");
  ASSERT_TRUE(suite.has_value());
  const LedgerEntry e = obs::flatten_suite(*suite);
  EXPECT_EQ(e.hostname, "h");
  EXPECT_EQ(e.effective_threads, 4);
  ASSERT_EQ(e.metrics.size(), 2u);
  EXPECT_DOUBLE_EQ(e.metrics.at("simcore.makespan"), 128.0);
  EXPECT_DOUBLE_EQ(e.metrics.at("theorem1.paths"), 8.0);
  ASSERT_EQ(e.timings.size(), 1u);
  EXPECT_DOUBLE_EQ(e.timings.at("simcore.flat_run"), 0.5);
}

LedgerEntry flat(const std::string& text) {
  const auto doc = obs::json_parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return obs::flatten_suite(*doc);
}

const char* kBaseline = R"({
  "meta": {"hostname": "ci-runner", "effective_threads": 4},
  "reports": {
    "theorem1": {
      "experiment": "theorem1",
      "metrics": {"worst_phase_cost": 3, "paper_claimed_cost": 3},
      "timings": {"construct": {"seconds": 1.0, "count": 1}}
    },
    "theorem2": {
      "experiment": "theorem2",
      "metrics": {"worst_phase_cost": 3}
    }
  }
})";

TEST(TrendBaseline, UnchangedSuitePasses) {
  const LedgerEntry base = flat(kBaseline);
  const TrendReport r = compare_to_baseline(base, base);
  EXPECT_TRUE(r.stable());
  EXPECT_EQ(r.series, 3u);
  EXPECT_TRUE(r.metric_steps.empty());
  EXPECT_TRUE(r.timing_steps.empty());
  EXPECT_TRUE(r.missing.empty());
  EXPECT_TRUE(r.added.empty());
}

TEST(TrendBaseline, PerturbedMetricRegresses) {
  const LedgerEntry cur = flat(R"({
    "reports": {
      "theorem1": {
        "metrics": {"worst_phase_cost": 4, "paper_claimed_cost": 3},
        "timings": {"construct": {"seconds": 1.0}}
      },
      "theorem2": {"metrics": {"worst_phase_cost": 3}}
    }
  })");
  const TrendReport r = compare_to_baseline(flat(kBaseline), cur);
  EXPECT_FALSE(r.stable());
  ASSERT_EQ(r.metric_steps.size(), 1u);
  EXPECT_EQ(r.metric_steps[0].name, "theorem1.worst_phase_cost");
  EXPECT_EQ(r.metric_steps[0].median_before, 3);
  EXPECT_EQ(r.metric_steps[0].median_after, 4);
  EXPECT_EQ(r.series, 3u);
}

TEST(TrendBaseline, MetricImprovementStillRegressesAtZeroTolerance) {
  // Deterministic metrics gate both directions: a lower makespan than the
  // committed baseline means the baseline is stale, not that all is well.
  const LedgerEntry cur = flat(R"({
    "reports": {"theorem2": {"metrics": {"worst_phase_cost": 2}}}
  })");
  const TrendReport r = compare_to_baseline(flat(kBaseline), cur);
  ASSERT_EQ(r.metric_steps.size(), 1u);
  EXPECT_LT(r.metric_steps[0].rel_change, 0);
  EXPECT_FALSE(r.stable());
}

TEST(TrendBaseline, MetricTolerancePermitsSmallDrift) {
  const LedgerEntry cur = flat(R"({
    "reports": {"theorem2": {"metrics": {"worst_phase_cost": 3.2}}}
  })");
  // 3 -> 3.2 is a 6.7% relative change.
  TrendOptions opt;
  opt.metric_tol = 0.05;
  EXPECT_FALSE(compare_to_baseline(flat(kBaseline), cur, opt).stable());
  opt.metric_tol = 0.10;
  EXPECT_TRUE(compare_to_baseline(flat(kBaseline), cur, opt).stable());
}

TEST(TrendBaseline, TimingDeltasAreInformationalOnly) {
  // A 2x slower span is listed past the timing tolerance and never gates;
  // neither does a faster one.
  for (const char* secs : {"2.0", "0.1"}) {
    const LedgerEntry cur = flat(std::string(R"({
      "reports": {
        "theorem1": {
          "metrics": {"worst_phase_cost": 3, "paper_claimed_cost": 3},
          "timings": {"construct": {"seconds": )") + secs + R"(}}
        },
        "theorem2": {"metrics": {"worst_phase_cost": 3}}
      }
    })");
    const TrendReport r = compare_to_baseline(flat(kBaseline), cur);
    ASSERT_EQ(r.timing_steps.size(), 1u) << secs;
    EXPECT_EQ(r.timing_steps[0].name, "theorem1.construct");
    EXPECT_TRUE(r.timing_steps[0].is_timing);
    EXPECT_TRUE(r.stable()) << "timing drift must not gate";
  }
}

TEST(TrendBaseline, MissingAndNewSeriesAreNotRegressions) {
  const LedgerEntry cur = flat(R"({
    "reports": {
      "theorem1": {"metrics": {"worst_phase_cost": 3,
                                "paper_claimed_cost": 3}},
      "brand_new": {"metrics": {"x": 1}}
    }
  })");
  const TrendReport r = compare_to_baseline(flat(kBaseline), cur);
  EXPECT_TRUE(r.stable());
  EXPECT_EQ(r.series, 2u);
  EXPECT_EQ(r.missing, std::vector<std::string>{"theorem2.worst_phase_cost"});
  EXPECT_EQ(r.added, std::vector<std::string>{"brand_new.x"});
}

TEST(TrendBaseline, BareReportActsAsOneReportSuite) {
  const LedgerEntry bare = flat(R"({
    "experiment": "theorem2", "meta": {"hostname": "laptop"},
    "metrics": {"worst_phase_cost": 3}
  })");
  EXPECT_EQ(bare.hostname, "laptop");
  EXPECT_EQ(bare.metrics,
            (std::map<std::string, double>{{"theorem2.worst_phase_cost", 3}}));
  const TrendReport r = compare_to_baseline(flat(kBaseline), bare);
  EXPECT_TRUE(r.stable());
  EXPECT_EQ(r.series, 1u);
  EXPECT_EQ(r.missing.size(), 2u);  // theorem1's two metrics
}

TEST(TrendBaseline, RejectsUnrecognizedShape) {
  EXPECT_THROW(flat("[1,2]"), Error);
  EXPECT_THROW(flat(R"({"foo": 1})"), Error);
  EXPECT_THROW(flat(R"({"reports": [1]})"), Error);
}

TEST(TrendBaseline, DifferentComparisonKeyStillCompares) {
  // The metrics are host-independent, so a baseline recorded on another
  // host, compiler and thread count still gates the current run.
  const LedgerEntry base = flat(kBaseline);
  LedgerEntry cur = base;
  cur.hostname = "laptop";
  cur.compiler = "Clang 18";
  cur.effective_threads = 1;
  ASSERT_NE(comparison_key(cur), comparison_key(base));
  EXPECT_TRUE(compare_to_baseline(base, cur).stable());
  cur.metrics["theorem2.worst_phase_cost"] = 5;
  const TrendReport r = compare_to_baseline(base, cur);
  EXPECT_EQ(r.series, 3u);
  EXPECT_EQ(r.metric_steps.size(), 1u);
  EXPECT_FALSE(r.stable());
}

TEST(TrendBaseline, BoundsViolationInCurrentFails) {
  // The floor/ceiling bracket is checked on the current run even when the
  // baseline carries the same violation: metric equality is not enough.
  const LedgerEntry bad = flat(R"({
    "reports": {"oracle": {"metrics": {
      "q16_peak_congestion": 10, "q16_congestion_floor": 5,
      "q16_congestion_ceiling": 8}}}
  })");
  const TrendReport r = compare_to_baseline(bad, bad);
  EXPECT_TRUE(r.metric_steps.empty());
  ASSERT_EQ(r.bounds_violations.size(), 1u);
  EXPECT_NE(r.bounds_violations[0].find("above ceiling"), std::string::npos);
  EXPECT_FALSE(r.stable());
}

}  // namespace
}  // namespace hyperpath
