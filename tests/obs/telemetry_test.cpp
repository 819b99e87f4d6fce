// Tests for the live telemetry bus (obs/telemetry.hpp): sampling gate,
// ring-buffer retention, JSONL stream round-trip with its provenance
// header, sampling independent of the task pool, Prometheus exposition
// validity, and the in-tree promtool-shaped validator itself.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/cycle_multipath.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "par/task_pool.hpp"
#include "sim/phase.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {
namespace {

using obs::FixedHistogram;
using obs::SimTelemetry;
using obs::TelemetryBus;
using obs::TelemetrySample;
using obs::validate_prometheus_text;

SimTelemetry sim_at_step(int step) {
  SimTelemetry t;
  t.step = step;
  t.active_links = static_cast<std::uint64_t>(step) + 1;
  t.queued_packets = static_cast<std::uint64_t>(step) * 10;
  t.depth_hist = obs::telemetry_depth_histogram();
  t.depth_hist.observe(static_cast<double>(step + 1));
  return t;
}

TEST(Telemetry, DepthHistogramHasCanonicalShape) {
  const FixedHistogram h = obs::telemetry_depth_histogram();
  ASSERT_EQ(h.bounds().size(),
            static_cast<std::size_t>(obs::kTelemetryDepthBuckets));
  EXPECT_DOUBLE_EQ(h.bounds().front(), 1.0);
  EXPECT_DOUBLE_EQ(h.bounds().back(), 2048.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Telemetry, ShouldSampleFollowsThePeriod) {
  TelemetryBus bus;
  EXPECT_FALSE(bus.enabled());
  EXPECT_FALSE(bus.should_sample(0));  // disabled: no step samples

  TelemetryBus::Config cfg;
  cfg.period_steps = 7;
  bus.enable(cfg);
  EXPECT_TRUE(bus.enabled());
  EXPECT_EQ(bus.period_steps(), 7);
  EXPECT_TRUE(bus.should_sample(0));
  EXPECT_FALSE(bus.should_sample(1));
  EXPECT_FALSE(bus.should_sample(6));
  EXPECT_TRUE(bus.should_sample(7));
  EXPECT_TRUE(bus.should_sample(70));

  bus.disable();
  EXPECT_FALSE(bus.enabled());
  EXPECT_FALSE(bus.should_sample(0));
}

TEST(Telemetry, SampleIsDroppedWhenDisabled) {
  TelemetryBus bus;
  bus.sample(sim_at_step(0));
  EXPECT_EQ(bus.total_samples(), 0u);
  EXPECT_TRUE(bus.snapshot().empty());
}

TEST(Telemetry, SamplesCarryThroughputAndMirrorTheGauge) {
  TelemetryBus bus;
  TelemetryBus::Config cfg;
  cfg.period_steps = 1;
  bus.enable(cfg);
  // enable() must pre-create the live throughput gauge and zero it — the
  // sampling path is contractually non-creating.
  obs::Gauge& pps = obs::MetricsRegistry::global().gauge(
      "sim.packet_steps_per_sec");
  EXPECT_EQ(pps.value(), 0.0);

  SimTelemetry t = sim_at_step(0);
  t.transmissions = 5000;
  bus.sample(std::move(t));  // first sample: whole-run average since enable
  const auto snap = bus.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_GT(snap[0].packet_steps_per_sec, 0.0);
  EXPECT_EQ(pps.value(), snap[0].packet_steps_per_sec);

  // A transmissions counter below the previous sample's means a new run
  // started; the cumulative count is the delta (never a negative rate).
  SimTelemetry fresh = sim_at_step(1);
  fresh.transmissions = 10;
  bus.sample(std::move(fresh));
  const auto snap2 = bus.snapshot();
  ASSERT_EQ(snap2.size(), 2u);
  EXPECT_GE(snap2[1].packet_steps_per_sec, 0.0);
}

TEST(Telemetry, RingKeepsNewestSamplesOldestFirst) {
  TelemetryBus bus;
  TelemetryBus::Config cfg;
  cfg.period_steps = 1;
  cfg.ring_capacity = 4;
  bus.enable(cfg);
  for (int step = 0; step < 6; ++step) bus.sample(sim_at_step(step));

  EXPECT_EQ(bus.total_samples(), 6u);  // overwritten samples still counted
  const std::vector<TelemetrySample> snap = bus.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].seq, i + 2) << "slot " << i;
    EXPECT_EQ(snap[i].sim, sim_at_step(static_cast<int>(i) + 2));
  }
}

TEST(Telemetry, ReenableResetsRingAndSequence) {
  TelemetryBus bus;
  TelemetryBus::Config cfg;
  cfg.period_steps = 1;
  bus.enable(cfg);
  bus.sample(sim_at_step(0));
  bus.sample(sim_at_step(1));
  bus.enable(cfg);
  EXPECT_EQ(bus.total_samples(), 0u);
  EXPECT_TRUE(bus.snapshot().empty());
  bus.sample(sim_at_step(5));
  const auto snap = bus.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].seq, 0u);
}

TEST(Telemetry, JsonlStreamRoundTripsHeaderAndSamples) {
  const std::string path = testing::TempDir() + "telemetry_roundtrip.jsonl";
  {
    TelemetryBus bus;
    TelemetryBus::Config cfg;
    cfg.period_steps = 3;
    cfg.jsonl_path = path;
    bus.enable(cfg);
    bus.sample(sim_at_step(0));
    bus.sample(sim_at_step(3));
    bus.disable();
  }

  obs::JsonlReader reader(path);
  ASSERT_TRUE(reader.ok());
  obs::JsonValue doc;

  // Header first: provenance stamps bench_trend keys on (threads, period).
  ASSERT_TRUE(reader.next(&doc));
  ASSERT_NE(doc.find("kind"), nullptr);
  EXPECT_EQ(doc.find("kind")->as_string(), "telemetry_meta");
  ASSERT_NE(doc.find("period_steps"), nullptr);
  EXPECT_EQ(doc.find("period_steps")->as_number(), 3.0);
  EXPECT_NE(doc.find("effective_threads"), nullptr);
  EXPECT_NE(doc.find("hostname"), nullptr);
  EXPECT_NE(doc.find("compiler"), nullptr);

  // Then the two samples, in order, with the simulator gauges intact.
  ASSERT_TRUE(reader.next(&doc));
  EXPECT_EQ(doc.find("kind")->as_string(), "sample");
  EXPECT_EQ(doc.find("seq")->as_number(), 0.0);
  EXPECT_EQ(doc.find("step")->as_number(), 0.0);
  ASSERT_TRUE(reader.next(&doc));
  EXPECT_EQ(doc.find("seq")->as_number(), 1.0);
  EXPECT_EQ(doc.find("step")->as_number(), 3.0);
  EXPECT_EQ(doc.find("queued_packets")->as_number(), 30.0);
  ASSERT_NE(doc.find("depth_hist", "counts"), nullptr);
  ASSERT_NE(doc.find("par", "busy_seconds"), nullptr);
  ASSERT_NE(doc.find("recovery", "fragments_delivered"), nullptr);
  EXPECT_FALSE(reader.next(&doc));
  EXPECT_FALSE(reader.failed());

  std::remove(path.c_str());
}

TEST(Telemetry, SerialAndParallelSimulatorsSampleIdentically) {
  // The step loop is serial, so the task pool a run executes under must
  // not change what it samples: the SimTelemetry streams must be equal.
  const auto emb = theorem1_cycle_embedding(8);
  const auto packets = phase_packets(emb, 4);
  const int dims = emb.host().dims();

  TelemetryBus& bus = TelemetryBus::global();
  TelemetryBus::Config cfg;
  cfg.period_steps = 1;

  bus.enable(cfg);
  StoreForwardSim(dims).run(packets);
  const std::vector<TelemetrySample> serial = bus.snapshot();
  bus.disable();
  ASSERT_FALSE(serial.empty());

  for (int threads : {2, 3, 8}) {
    par::TaskPool pool(threads);
    const par::PoolScope scope(pool);
    bus.enable(cfg);
    StoreForwardSim(dims).run(packets);
    const std::vector<TelemetrySample> par = bus.snapshot();
    bus.disable();
    ASSERT_EQ(par.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < par.size(); ++i) {
      EXPECT_EQ(par[i].sim, serial[i].sim)
          << "threads=" << threads << " sample " << i;
    }
  }
}

TEST(Telemetry, ExposePrometheusPassesTheValidator) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("telemetry_test.events").add(3);
  reg.gauge("telemetry_test.rate").set(0.75);
  auto& h = reg.histogram("telemetry_test.depth", {1, 2, 4});
  h.observe(1);
  h.observe(3);
  h.observe(100);  // overflow bucket
  reg.record_span("telemetry_test.span", 0.25);

  const std::string text = reg.expose_prometheus();
  std::string err;
  EXPECT_TRUE(validate_prometheus_text(text, &err)) << err;

  EXPECT_NE(text.find("hyperpath_telemetry_test_events_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("hyperpath_telemetry_test_rate 0.75"),
            std::string::npos);
  EXPECT_NE(text.find("hyperpath_telemetry_test_depth_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("hyperpath_telemetry_test_span_seconds_total"),
            std::string::npos);
}

TEST(Telemetry, ValidatorAcceptsEdgeForms) {
  std::string err;
  EXPECT_TRUE(validate_prometheus_text("", &err)) << err;
  EXPECT_TRUE(validate_prometheus_text(
      "# plain comment, not TYPE or HELP\n"
      "untyped_metric 1\n"
      "weird_values{a=\"x\\\"y\",b=\"line\\nbreak\"} NaN\n"
      "with_timestamp 2.5 1712345678\n"
      "neg_inf -Inf\n",
      &err))
      << err;
}

TEST(Telemetry, ValidatorRejectsMalformedDocuments) {
  const auto rejects = [](const std::string& text) {
    std::string err;
    const bool ok = validate_prometheus_text(text, &err);
    EXPECT_FALSE(ok) << "accepted: " << text;
    if (!ok) {
      EXPECT_FALSE(err.empty());
    }
    return !ok;
  };
  // Two TYPE lines for one metric.
  rejects("# TYPE m counter\n# TYPE m counter\nm 1\n");
  // TYPE after the metric's samples.
  rejects("m 1\n# TYPE m counter\n");
  // Interleaved (non-contiguous) samples.
  rejects("a 1\nb 2\na 3\n");
  // Duplicate series.
  rejects("m{x=\"1\"} 1\nm{x=\"1\"} 2\n");
  // Unparsable value / bad names / broken labels.
  rejects("m notanumber\n");
  rejects("# TYPE 9bad counter\n");
  rejects("m{9bad=\"v\"} 1\n");
  rejects("m{l=\"unterminated} 1\n");
  rejects("m{l=\"bad\\escape\"} 1\n");
  rejects("m 1 123 extra\n");
  // Histogram rules: descending le, non-cumulative counts, missing +Inf,
  // +Inf disagreeing with _count.
  rejects(
      "# TYPE h histogram\n"
      "h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n"
      "h_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n");
  rejects(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\n"
      "h_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n");
  rejects(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\nh_sum 3\nh_count 2\n");
  rejects(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\n"
      "h_sum 3\nh_count 2\n");
}

TEST(Telemetry, WorkerStatsProviderFeedsSamples) {
  // Keep this test last in the file: it replaces the provider the par
  // layer registered at static-init time for the rest of the process.
  TelemetryBus::set_worker_stats_provider([] {
    obs::WorkerSnapshot snap;
    snap.regions = 4;
    snap.tasks = 17;
    snap.steals = 2;
    snap.busy_seconds = {0.5, 0.25};
    return snap;
  });
  TelemetryBus bus;
  TelemetryBus::Config cfg;
  cfg.period_steps = 1;
  bus.enable(cfg);
  bus.sample(sim_at_step(0));
  const auto snap = bus.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].par.regions, 4u);
  EXPECT_EQ(snap[0].par.tasks, 17u);
  EXPECT_EQ(snap[0].par.steals, 2u);
  EXPECT_EQ(snap[0].par.busy_seconds,
            (std::vector<double>{0.5, 0.25}));
}

}  // namespace
}  // namespace hyperpath
