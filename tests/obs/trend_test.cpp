// Tests for the cross-run performance ledger (obs/trend.hpp): median step
// detection, comparison-key grouping (series run at different thread
// counts are never compared; the committed ledger's older rows group with
// new ones), analytic-bounds checks, LedgerEntry round-trips through
// JSONL with their units, steps the committed baseline accepts, and the
// baseline diff: unchanged suites pass, perturbed exact records regress,
// timing/memory/rate records never gate, and suite/report shape handling.
#include "obs/trend.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/error.hpp"
#include "bench/table.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"

namespace hyperpath {
namespace {

using obs::LedgerEntry;
using obs::Record;
using obs::RecordClass;
using obs::TrendOptions;
using obs::TrendReport;
using obs::analyze_trend;
using obs::compare_to_baseline;
using obs::comparison_key;
using obs::detect_step;

// A ledger row of exact records (unit "count") plus timing records in "s".
LedgerEntry entry(std::map<std::string, double> metrics,
                  std::map<std::string, double> timings = {}) {
  LedgerEntry e;
  e.hostname = "host";
  e.compiler = "GNU 12";
  e.effective_threads = 4;
  for (const auto& [name, v] : metrics) {
    e.records[name] = {v, "count", RecordClass::kExact};
  }
  for (const auto& [name, v] : timings) {
    e.records[name] = {v, "s", RecordClass::kTiming};
  }
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

/// A ledger of "b.m" values, one row per (git sha, value) pair.
std::vector<LedgerEntry> ledger_of(
    const std::vector<std::pair<std::string, double>>& rows) {
  std::vector<LedgerEntry> ledger;
  for (const auto& [sha, v] : rows) {
    ledger.push_back(entry({{"b.m", v}, {"b.steady", 3}}));
    ledger.back().git_sha = sha;
  }
  return ledger;
}

TEST(AnalyzeTrend, BaselineAcceptsAnIntendedStep) {
  // A commit moved b.m from 10 to 20, and the committed baseline says 20.
  const auto ledger =
      ledger_of({{"a", 10}, {"a", 10}, {"b", 10}, {"c", 20}, {"d", 20}});
  const LedgerEntry baseline = entry({{"b.m", 20}, {"b.steady", 3}});
  EXPECT_FALSE(analyze_trend(ledger).stable());
  const TrendReport r = analyze_trend(ledger, {}, &baseline);
  EXPECT_TRUE(r.metric_steps.empty());
  ASSERT_EQ(r.accepted_steps.size(), 1u);
  EXPECT_EQ(r.accepted_steps[0].name, "b.m");
  EXPECT_EQ(r.accepted_steps[0].median_after, 20);
  EXPECT_TRUE(r.stable());
}

TEST(AnalyzeTrend, BaselineAcceptsNoOtherStep) {
  const LedgerEntry baseline = entry({{"b.m", 20}});
  // The series stepped somewhere the baseline does not record.
  const TrendReport elsewhere = analyze_trend(
      ledger_of({{"a", 10}, {"a", 10}, {"b", 30}, {"c", 30}}), {}, &baseline);
  ASSERT_EQ(elsewhere.metric_steps.size(), 1u);
  EXPECT_TRUE(elsewhere.accepted_steps.empty());
  EXPECT_FALSE(elsewhere.stable());
  // Two runs of one build that disagree are nondeterminism, even when the
  // newer one matches the baseline.
  const TrendReport same_build =
      analyze_trend(ledger_of({{"a", 10}, {"a", 20}}), {}, &baseline);
  ASSERT_EQ(same_build.metric_steps.size(), 1u);
  EXPECT_FALSE(same_build.stable());
  // A record the baseline lacks is never accepted.
  const LedgerEntry other = entry({{"b.other", 20}});
  EXPECT_FALSE(
      analyze_trend(ledger_of({{"a", 10}, {"b", 20}}), {}, &other).stable());
}

TEST(AnalyzeTrend, TimingStepsAreInformationalOnly) {
  std::vector<LedgerEntry> ledger;
  for (double secs : {1.0, 1.0, 2.0, 2.0}) {
    ledger.push_back(entry({{"b.m", 7}}, {{"b.total", secs}}));
  }
  const TrendReport r = analyze_trend(ledger);
  ASSERT_EQ(r.timing_steps.size(), 1u);
  EXPECT_EQ(r.timing_steps[0].cls, RecordClass::kTiming);
  EXPECT_EQ(r.timing_steps[0].unit, "s");
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
  e.records["b.pps"] = {1.5e7, "1/s", RecordClass::kRate};
  e.records["b.rss"] = {2048, "KiB", RecordClass::kMemory};
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
  EXPECT_EQ(back->records, e.records);  // values, units and classes
  EXPECT_EQ(back->records.at("b.pps").unit, "1/s");
  EXPECT_EQ(comparison_key(*back), comparison_key(e));
}

TEST(LedgerEntry, ParseRejectsEntriesWithoutMetrics) {
  for (const char* text :
       {R"({"kind":"bench_run","hostname":"h","metrics":{}})",
        R"({"kind":"bench_run","hostname":"h","records":[]})"}) {
    const auto doc = obs::json_parse(text);
    ASSERT_TRUE(doc.has_value());
    std::string error;
    EXPECT_FALSE(obs::parse_ledger_entry(*doc, &error).has_value()) << text;
    EXPECT_FALSE(error.empty());
  }

  const auto wrong_kind = obs::json_parse(R"({"kind":"sample"})");
  ASSERT_TRUE(wrong_kind.has_value());
  EXPECT_FALSE(obs::parse_ledger_entry(*wrong_kind).has_value());
}

TEST(LedgerEntry, OldRowsReadAsExactAndTimingRecords) {
  // Rows written before records carried units: metrics become exact
  // records with no unit, timings become timing records in seconds.
  const auto doc = obs::json_parse(
      R"({"kind":"bench_run","hostname":"h","metrics":{"b.m":3},)"
      R"("timings":{"b.alg_rss_kb":640}})");
  ASSERT_TRUE(doc.has_value());
  const auto e = obs::parse_ledger_entry(*doc);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->records.at("b.m"), (Record{3, "", RecordClass::kExact}));
  EXPECT_EQ(e->records.at("b.alg_rss_kb"),
            (Record{640, "s", RecordClass::kTiming}));
}

// One {"name","value","unit","class"} record as JSON text.
std::string rec(const std::string& name, const std::string& value,
                const std::string& unit, const std::string& cls) {
  return R"({"name":")" + name + R"(","value":)" + value + R"(,"unit":")" +
         unit + R"(","class":")" + cls + R"("})";
}

TEST(FlattenSuite, LiftsMetricsAndSpanSecondsFromASuiteDocument) {
  const auto suite = obs::json_parse(R"({
    "meta": {"timestamp": "t", "git_sha": "s", "hostname": "h",
             "compiler": "c", "flags": "-O2", "build_type": "Release",
             "effective_threads": 4},
    "reports": {
      "simcore": {"records": [)" +
      rec("makespan", "128", "steps", "exact") + "," +
      rec("pps", "null", "1/s", "rate") + "," +
      R"({"name": "label", "value": "not-a-number"},)" +
      rec("flat_run", "0.5", "s", "timing") + R"(]},
      "theorem1": {"records": [)" + rec("paths", "8", "count", "exact") +
      R"(]}
    }
  })");
  ASSERT_TRUE(suite.has_value());
  const LedgerEntry e = obs::flatten_suite(*suite);
  EXPECT_EQ(e.hostname, "h");
  EXPECT_EQ(e.effective_threads, 4);
  EXPECT_EQ(e.records,
            (std::map<std::string, Record>{
                {"simcore.makespan", {128, "steps", RecordClass::kExact}},
                {"simcore.flat_run", {0.5, "s", RecordClass::kTiming}},
                {"theorem1.paths", {8, "count", RecordClass::kExact}}}))
      << "a null value and a record without unit and class are skipped";
}

LedgerEntry flat(const std::string& text) {
  const auto doc = obs::json_parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return obs::flatten_suite(*doc);
}

// A two-report suite: theorem1 and theorem2 with the given exact
// worst_phase_cost values (theorem2 omitted when empty), theorem1's
// construct timing in seconds, and `extra` records appended to theorem1.
std::string suite(const std::string& t1_cost, const std::string& t2_cost,
                  const std::string& construct_s = "1.0",
                  const std::string& extra = "") {
  std::string text = R"({"meta": {"hostname": "ci-runner",
      "effective_threads": 4}, "reports": {"theorem1": {
      "experiment": "theorem1", "records": [)" +
      rec("worst_phase_cost", t1_cost, "steps", "exact") + "," +
      rec("paper_claimed_cost", "3", "steps", "exact") + "," +
      rec("construct", construct_s, "s", "timing") + extra + "]}";
  if (!t2_cost.empty()) {
    text += R"(, "theorem2": {"experiment": "theorem2", "records": [)" +
            rec("worst_phase_cost", t2_cost, "steps", "exact") + "]}";
  }
  return text + "}}";
}

const std::string kBaseline = suite("3", "3");

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
  const TrendReport r = compare_to_baseline(flat(kBaseline),
                                            flat(suite("4", "3")));
  EXPECT_FALSE(r.stable());
  ASSERT_EQ(r.metric_steps.size(), 1u);
  EXPECT_EQ(r.metric_steps[0].name, "theorem1.worst_phase_cost");
  EXPECT_EQ(r.metric_steps[0].unit, "steps");
  EXPECT_EQ(r.metric_steps[0].median_before, 3);
  EXPECT_EQ(r.metric_steps[0].median_after, 4);
  EXPECT_EQ(r.series, 3u);
}

TEST(TrendBaseline, MetricImprovementStillRegressesAtZeroTolerance) {
  // Deterministic outputs gate both directions: a lower cost than the
  // committed baseline means the baseline is stale, not that all is well.
  const TrendReport r =
      compare_to_baseline(flat(kBaseline), flat(suite("3", "2")));
  ASSERT_EQ(r.metric_steps.size(), 1u);
  EXPECT_LT(r.metric_steps[0].rel_change, 0);
  EXPECT_FALSE(r.stable());
}

TEST(TrendBaseline, MetricTolerancePermitsSmallDrift) {
  const LedgerEntry cur = flat(suite("3", "3.2"));
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
    const TrendReport r =
        compare_to_baseline(flat(kBaseline), flat(suite("3", "3", secs)));
    ASSERT_EQ(r.timing_steps.size(), 1u) << secs;
    EXPECT_EQ(r.timing_steps[0].name, "theorem1.construct");
    EXPECT_EQ(r.timing_steps[0].cls, RecordClass::kTiming);
    EXPECT_TRUE(r.stable()) << "timing drift must not gate";
  }
}

TEST(AnalyzeTrend, MemoryAndRateStepsNeverGateButExactOnesDo) {
  // Flattened suites whose memory and rate records grew 5x or shrank 10x
  // are reported against the timing tolerance and never gate; a changed
  // exact record beside them still gates.
  const auto run = [](const char* rss, const char* pps, const char* bytes) {
    return flat(suite("3", "3", "1.0",
                      "," + rec("rss_kb", rss, "KiB", "memory") + "," +
                          rec("pps", pps, "1/s", "rate") + "," +
                          rec("plan_bytes", bytes, "B", "exact")));
  };
  const LedgerEntry base = run("1000", "2e7", "4096");
  for (const LedgerEntry& later :
       {run("5000", "1e8", "4096"), run("100", "2e6", "4096")}) {
    const TrendReport r = analyze_trend({base, base, later, later});
    EXPECT_TRUE(r.stable());
    EXPECT_EQ(r.series, 4u);  // the three costs and plan_bytes
    ASSERT_EQ(r.timing_steps.size(), 2u);
    EXPECT_EQ(r.timing_steps[0].cls, RecordClass::kRate);  // theorem1.pps
    EXPECT_EQ(r.timing_steps[0].unit, "1/s");
    EXPECT_EQ(r.timing_steps[1].cls, RecordClass::kMemory);  // .rss_kb
    EXPECT_TRUE(compare_to_baseline(base, later).stable());
  }
  const LedgerEntry changed = run("1000", "2e7", "4097");
  const TrendReport r = analyze_trend({base, base, changed, changed});
  ASSERT_EQ(r.metric_steps.size(), 1u);
  EXPECT_EQ(r.metric_steps[0].name, "theorem1.plan_bytes");
  EXPECT_EQ(r.metric_steps[0].unit, "B");
  EXPECT_FALSE(r.stable());
  EXPECT_FALSE(compare_to_baseline(base, changed).stable());
}

TEST(TrendBaseline, MissingAndNewSeriesAreNotRegressions) {
  const LedgerEntry cur = flat(suite("3", ""));
  LedgerEntry with_new = cur;
  with_new.records["brand_new.x"] = {1, "count", RecordClass::kExact};
  const TrendReport r = compare_to_baseline(flat(kBaseline), with_new);
  EXPECT_TRUE(r.stable());
  EXPECT_EQ(r.series, 2u);
  EXPECT_EQ(r.missing, std::vector<std::string>{"theorem2.worst_phase_cost"});
  EXPECT_EQ(r.added, std::vector<std::string>{"brand_new.x"});
}

TEST(TrendBaseline, BareReportActsAsOneReportSuite) {
  const LedgerEntry bare =
      flat(R"({"experiment": "theorem2", "meta": {"hostname": "laptop"},
              "records": [)" +
           rec("worst_phase_cost", "3", "steps", "exact") + "]}");
  EXPECT_EQ(bare.hostname, "laptop");
  EXPECT_EQ(bare.records.size(), 1u);
  EXPECT_EQ(bare.records.at("theorem2.worst_phase_cost"),
            (Record{3, "steps", RecordClass::kExact}));
  const TrendReport r = compare_to_baseline(flat(kBaseline), bare);
  EXPECT_TRUE(r.stable());
  EXPECT_EQ(r.series, 1u);
  EXPECT_EQ(r.missing.size(), 2u);  // theorem1's two exact records
}

TEST(BenchReport, WritesOneRecordPerNumberWithUnitAndClass) {
  // Every number a bench reports is one {"name","value","unit","class"}
  // record in call order, then the profiler's root spans as timing
  // records; exact integers keep every digit, non-finite values are null.
  const std::string path = ::testing::TempDir() + "BENCH_report_test.json";
  const bool was_enabled = obs::Profiler::global().enabled();
  {
    std::string a0 = "bench", a1 = "--json", a2 = path;
    char* argv[] = {a0.data(), a1.data(), a2.data()};
    int argc = 3;
    bench::Report report("report_test", &argc, argv);
    report.metric("makespan", 6, "steps");
    report.metric("checksum", std::uint64_t{847267859980345183}, "count");
    report.metric("nan_ratio", std::nan(""), "ratio");
    report.record("rss_kb", 640.0, "KiB", RecordClass::kMemory);
    report.record("pps", HUGE_VAL, "1/s", RecordClass::kRate);
  }
  obs::Profiler::global().set_enabled(was_enabled);
  std::stringstream text;
  text << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  const auto doc = obs::json_parse(text.str());
  ASSERT_TRUE(doc.has_value()) << text.str();
  EXPECT_EQ(doc->find("metrics"), nullptr);
  EXPECT_EQ(doc->find("timings"), nullptr);
  std::vector<std::string> seen;
  for (const obs::JsonValue& r : doc->find("records")->as_array()) {
    seen.push_back(r.find("name")->as_string() + " " +
                   r.find("unit")->as_string() + " " +
                   r.find("class")->as_string());
  }
  ASSERT_GE(seen.size(), 5u);
  seen.resize(5);  // the profiler's root spans, if any, follow
  EXPECT_EQ(seen, (std::vector<std::string>{
                      "makespan steps exact", "checksum count exact",
                      "nan_ratio ratio exact", "rss_kb KiB memory",
                      "pps 1/s rate"}));
  for (const char* value : {R"("value":847267859980345183,)",
                            R"("nan_ratio","value":null,)",
                            R"("pps","value":null,)"}) {
    EXPECT_NE(text.str().find(value), std::string::npos) << value;
  }
}

TEST(TrendBaseline, RejectsUnrecognizedShape) {
  EXPECT_THROW(flat("[1,2]"), Error);
  EXPECT_THROW(flat(R"({"foo": 1})"), Error);
  EXPECT_THROW(flat(R"({"reports": [1]})"), Error);
}

TEST(TrendBaseline, DifferentComparisonKeyStillCompares) {
  // Exact records are host-independent, so a baseline recorded on another
  // host, compiler and thread count still gates the current run.
  const LedgerEntry base = flat(kBaseline);
  LedgerEntry cur = base;
  cur.hostname = "laptop";
  cur.compiler = "Clang 18";
  cur.effective_threads = 1;
  ASSERT_NE(comparison_key(cur), comparison_key(base));
  EXPECT_TRUE(compare_to_baseline(base, cur).stable());
  cur.records["theorem2.worst_phase_cost"].value = 5;
  const TrendReport r = compare_to_baseline(base, cur);
  EXPECT_EQ(r.series, 3u);
  EXPECT_EQ(r.metric_steps.size(), 1u);
  EXPECT_FALSE(r.stable());
}

TEST(TrendBaseline, BoundsViolationInCurrentFails) {
  // The floor/ceiling bracket is checked on the current run even when the
  // baseline carries the same violation: exact equality is not enough.
  const LedgerEntry bad = flat(
      R"({"reports": {"oracle": {"records": [)" +
      rec("q16_peak_congestion", "10", "count", "exact") + "," +
      rec("q16_congestion_floor", "5", "count", "exact") + "," +
      rec("q16_congestion_ceiling", "8", "count", "exact") + "]}}}");
  const TrendReport r = compare_to_baseline(bad, bad);
  EXPECT_TRUE(r.metric_steps.empty());
  ASSERT_EQ(r.bounds_violations.size(), 1u);
  EXPECT_NE(r.bounds_violations[0].find("above ceiling"), std::string::npos);
  EXPECT_FALSE(r.stable());
}

}  // namespace
}  // namespace hyperpath
