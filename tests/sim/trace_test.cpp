// Tests for the observability layer: step-level tracing (src/obs/trace.hpp)
// wired into the simulators, and its determinism guarantees.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "base/rng.hpp"
#include "core/cycle_multipath.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "par/task_pool.hpp"
#include "sim/faults.hpp"
#include "sim/phase.hpp"
#include "sim/recovery.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"
#include "sim/wormhole.hpp"
#include "support/faulted_run.hpp"
#include "support/reference_sim.hpp"

namespace hyperpath {
namespace {

using obs::RingBufferSink;
using obs::TraceEvent;
using obs::TraceEventKind;

std::vector<Packet> random_workload(int dims, int count, std::uint64_t seed) {
  Rng rng(seed);
  const Hypercube q(dims);
  std::vector<Packet> out;
  for (int i = 0; i < count; ++i) {
    Packet p;
    const Node s = static_cast<Node>(rng.below(q.num_nodes()));
    const Node d = static_cast<Node>(rng.below(q.num_nodes()));
    p.route = ecube_route(q, s, d);
    p.release = static_cast<int>(rng.below(3));
    out.push_back(std::move(p));
  }
  return out;
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.dim_transmissions, b.dim_transmissions);
  EXPECT_EQ(a.latency, b.latency);
}

TEST(StepTrace, DisabledWhenSinkIsNull) {
  obs::StepTrace trace(nullptr);
  EXPECT_FALSE(trace.enabled());
  // Records are no-ops, end_step/finish are safe.
  trace.record(TraceEvent{0, TraceEventKind::kTransmit, 1, 2, 3});
  trace.end_step();
  trace.finish();
}

TEST(StepTrace, SortsEventsCanonicallyWithinAStep) {
  RingBufferSink sink;
  obs::StepTrace trace(&sink);
  EXPECT_TRUE(trace.enabled());
  trace.record(TraceEvent{0, TraceEventKind::kTransmit, 5, 9, 0});
  trace.record(TraceEvent{0, TraceEventKind::kRelease, 2,
                          TraceEvent::kNoLink, 0});
  trace.record(TraceEvent{0, TraceEventKind::kTransmit, 1, 3, 0});
  trace.end_step();
  trace.finish();
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[0].kind, TraceEventKind::kRelease);
  EXPECT_EQ(sink.events()[1].link, 3u);
  EXPECT_EQ(sink.events()[2].link, 9u);
}

TEST(RingBuffer, DropsBeyondCapacityAndCounts) {
  RingBufferSink sink(/*capacity=*/4);
  obs::StepTrace trace(&sink);
  for (int i = 0; i < 10; ++i) {
    trace.record(TraceEvent{i, TraceEventKind::kTransmit,
                            static_cast<std::uint32_t>(i), 0, 0});
    trace.end_step();
  }
  trace.finish();
  EXPECT_EQ(sink.events().size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  EXPECT_EQ(sink.total(), 10u);  // total counts everything seen
  EXPECT_EQ(sink.total(TraceEventKind::kTransmit), 10u);
}

TEST(TracedStoreForward, TransmitEventsMatchTotalTransmissions) {
  const int dims = 6;
  const auto packets = random_workload(dims, 300, 17);
  RingBufferSink sink;
  StoreForwardSim sim(dims);
  const auto r = sim.run(packets, Arbitration::kFifo, 1 << 22, &sink);
  EXPECT_EQ(sink.total(TraceEventKind::kTransmit), r.total_transmissions);
  // Trivial routes (source == destination) are delivered without entering
  // the network, so they produce no release/arrive events.
  std::uint64_t moving = 0;
  for (const auto& p : packets) {
    if (p.route.size() > 1) ++moving;
  }
  EXPECT_EQ(sink.total(TraceEventKind::kArrive), moving);
  EXPECT_EQ(sink.total(TraceEventKind::kRelease), moving);
  // Arrival latencies recorded in trace match the histogram count.
  EXPECT_EQ(r.latency.count(), moving);
}

TEST(TracedStoreForward, TracingDoesNotPerturbResults) {
  const int dims = 6;
  const auto packets = random_workload(dims, 300, 23);
  StoreForwardSim sim(dims);
  const auto plain = sim.run(packets);
  RingBufferSink sink;
  const auto traced = sim.run(packets, Arbitration::kFifo, 1 << 22, &sink);
  expect_identical(plain, traced);
  EXPECT_GT(sink.total(), 0u);
}

TEST(TracedParallelSim, BitIdenticalToSerialWithTracing) {
  const int n = 8;
  const auto emb = theorem1_cycle_embedding(n);
  const auto packets = phase_packets(emb, 2 * n);

  RingBufferSink serial_sink;
  const auto serial =
      StoreForwardSim(n).run(packets, Arbitration::kFifo, 1 << 22,
                             &serial_sink);
  for (int threads : {2, 3, 8}) {
    par::TaskPool pool(threads);
    const par::PoolScope scope(pool);
    RingBufferSink par_sink;
    const auto par =
        StoreForwardSim(n).run(packets, Arbitration::kFifo, 1 << 22, &par_sink);
    expect_identical(serial, par);
    // The canonical per-step sort makes the streams equal as sequences,
    // which subsumes multiset equality.
    ASSERT_EQ(serial_sink.events().size(), par_sink.events().size());
    EXPECT_TRUE(serial_sink.events() == par_sink.events());
  }
}

TEST(TracedParallelSim, RandomWorkloadTracesMatchSerial) {
  const int dims = 6;
  par::TaskPool pool(4);
  const par::PoolScope scope(pool);
  for (std::uint64_t seed : {4ull, 5ull}) {
    const auto packets = random_workload(dims, 400, seed);
    RingBufferSink a, b;
    const auto serial = refsim::RefStoreForwardSim(dims).run(
        packets, Arbitration::kFifo, 1 << 22, &a);
    const auto par =
        StoreForwardSim(dims).run(packets, Arbitration::kFifo, 1 << 22, &b);
    expect_identical(serial, par);
    EXPECT_TRUE(a.events() == b.events());
  }
}

TEST(TracedWormhole, EmitsStartDoneAndTransmits) {
  const int dims = 4;
  const Hypercube q(dims);
  std::vector<Worm> worms;
  for (Node s = 0; s < 8; ++s) {
    Worm w;
    w.route = ecube_route(q, s, static_cast<Node>(q.num_nodes() - 1 - s));
    w.flits = 4;
    worms.push_back(std::move(w));
  }
  RingBufferSink sink;
  WormholeSim sim(dims);
  const auto r = sim.run(worms, 1 << 22, &sink);
  EXPECT_GT(r.makespan, 0);
  EXPECT_EQ(sink.total(TraceEventKind::kWormStart),
            static_cast<std::uint64_t>(worms.size()));
  EXPECT_EQ(sink.total(TraceEventKind::kWormDone),
            static_cast<std::uint64_t>(worms.size()));
  EXPECT_GT(sink.total(TraceEventKind::kTransmit), 0u);
}

TEST(JsonlSink, WritesOneParseableLinePerEvent) {
  const int dims = 5;
  const auto packets = random_workload(dims, 100, 31);
  const std::string path = ::testing::TempDir() + "trace_test.jsonl";
  std::uint64_t expected_tx = 0;
  std::uint64_t written = 0;
  {
    obs::JsonlFileSink sink(path);
    StoreForwardSim sim(dims);
    const auto r = sim.run(packets, Arbitration::kFifo, 1 << 22, &sink);
    expected_tx = r.total_transmissions;
    written = sink.total();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::uint64_t lines = 0, transmits = 0;
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"step\":"), std::string::npos);
    if (line.find("\"kind\":\"transmit\"") != std::string::npos) ++transmits;
    ++lines;
  }
  EXPECT_EQ(lines, written);
  EXPECT_EQ(transmits, expected_tx);
  std::remove(path.c_str());
}

TEST(FaultTraceInterleaving, FaultRepairAndDropShareAStep) {
  // One packet 0 -> 1 -> 3 on Q_3.  A transient fault elsewhere is
  // repaired at step 1, the same step a new fault cuts the packet's next
  // link: the step carries kDrop, kFault, and kRepair together, in
  // canonical kind order.
  const int dims = 3;
  const Hypercube q(dims);
  std::vector<Packet> ps(1);
  ps[0].route = ecube_route(q, 0, 3);
  FaultSchedule schedule(dims);
  schedule.link_down(1, 1, 3);
  schedule.transient_link(0, 1, 4, q.neighbor(4, 0));
  RingBufferSink sink;
  const auto fr = run_with_faults(dims, ps, schedule, Arbitration::kFifo,
                                  1 << 22, &sink);
  EXPECT_EQ(fr.delivered, 0u);
  EXPECT_EQ(fr.lost, 1u);

  std::vector<TraceEventKind> step1;
  for (const auto& e : sink.events()) {
    if (e.step == 1) step1.push_back(e.kind);
  }
  const auto count = [&](TraceEventKind k) {
    std::size_t c = 0;
    for (auto kk : step1) c += kk == k;
    return c;
  };
  EXPECT_EQ(count(TraceEventKind::kDrop), 1u);
  EXPECT_EQ(count(TraceEventKind::kFault), 2u);   // both directions
  EXPECT_EQ(count(TraceEventKind::kRepair), 2u);
  EXPECT_TRUE(std::is_sorted(step1.begin(), step1.end()));

  // The flight recorder digests the interleaved step without complaint and
  // reproduces the fault-run outcome.
  obs::FlightRecorder rec;
  rec.on_events(sink.events());
  EXPECT_EQ(rec.inconsistencies(), 0u) << rec.first_inconsistency();
  EXPECT_EQ(rec.dropped(), fr.lost);
  EXPECT_EQ(rec.delivered(), fr.delivered);
  EXPECT_EQ(rec.makespan(), fr.sim.makespan);
  ASSERT_EQ(rec.fault_events().size(), 6u);  // down@0 x2, down@1 x2, up@1 x2
}

TEST(FaultTraceInterleaving, RecoveryStreamMixesDropsFaultsAndRetransmits) {
  // Faults inside the phase's active window truncate in-flight fragments
  // at the very steps the faults fire; the recovery waves then re-release
  // them (kRetransmit) into the same absolute clock.  The combined stream
  // must stay digestible: one recorder, zero inconsistencies, counts that
  // match the recovery engine's own accounting.
  const int n = 6;
  const auto emb = theorem1_cycle_embedding(n);
  const Hypercube q(n);
  FaultSchedule schedule(n);
  schedule.link_down(1, 1, q.neighbor(1, 0));
  schedule.link_down(1, 9, q.neighbor(9, 3));
  schedule.link_down(2, 20, q.neighbor(20, 1));
  RecoveryConfig cfg;
  cfg.timeout = 4;
  cfg.max_retries = 4;
  cfg.threshold = 0;  // all fragments required: every loss retransmits
  RingBufferSink sink;
  const auto r = run_recovery(emb, schedule, cfg, &sink);
  ASSERT_GT(r.retransmissions, 0u);
  ASSERT_GT(r.fragments_lost, 0u);

  std::set<int> fault_steps, drop_steps, retransmit_steps;
  for (const auto& e : sink.events()) {
    if (e.kind == TraceEventKind::kFault) fault_steps.insert(e.step);
    if (e.kind == TraceEventKind::kDrop) drop_steps.insert(e.step);
    if (e.kind == TraceEventKind::kRetransmit) {
      retransmit_steps.insert(e.step);
    }
  }
  // The faults fired inside the phase's active window, so at least one
  // fault step truncated traffic *that same step* — kFault and kDrop
  // interleave within one step of the stream.
  bool overlap = false;
  for (int s : fault_steps) overlap |= drop_steps.count(s) > 0;
  EXPECT_TRUE(overlap);
  EXPECT_FALSE(retransmit_steps.empty());

  obs::FlightRecorder rec;
  rec.on_events(sink.events());
  EXPECT_EQ(rec.inconsistencies(), 0u) << rec.first_inconsistency();
  EXPECT_EQ(rec.dropped(), r.fragments_lost);
  EXPECT_EQ(rec.delivered(), r.fragments_delivered);
  EXPECT_EQ(rec.retransmits().size(), r.retransmissions);
  EXPECT_EQ(rec.makespan(), r.makespan);
  EXPECT_GT(rec.max_generation(), 0u);  // waves reuse wave-local ids
}

TEST(Metrics, UtilizationProfileDownsamplesButKeepsExactMean) {
  obs::UtilizationProfile p;
  double sum = 0;
  const int steps = 5000;  // forces several slot-merge doublings past 512
  for (int i = 0; i < steps; ++i) {
    const double v = (i % 7) / 7.0;
    p.add(v);
    sum += v;
  }
  EXPECT_EQ(p.steps(), static_cast<std::uint64_t>(steps));
  EXPECT_NEAR(p.average(), sum / steps, 1e-12);
  EXPECT_LE(p.profile().size(), 512u);
  EXPECT_GT(p.granularity(), 1u);
}

}  // namespace
}  // namespace hyperpath
