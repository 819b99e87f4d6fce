// Tests for the flight recorder (src/obs/flight.hpp): hop-span
// reconstruction from handcrafted streams, generation handling, the JSONL
// streaming loader (including malformed-input line diagnostics), and the
// completeness contract — every simulator mode's SimResult must be
// reproducible from its trace alone, identically across thread counts.
#include "obs/flight.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "core/cycle_multipath.hpp"
#include "obs/critical_path.hpp"
#include "obs/json_parse.hpp"
#include "par/task_pool.hpp"
#include "sim/faults.hpp"
#include "sim/phase.hpp"
#include "sim/recovery.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"
#include "sim/wormhole.hpp"
#include "support/faulted_run.hpp"

namespace hyperpath {
namespace {

using obs::FlightRecord;
using obs::FlightRecorder;
using obs::TraceEvent;
using obs::TraceEventKind;

constexpr auto kNoPkt = TraceEvent::kNoPacket;
constexpr auto kNoLink = TraceEvent::kNoLink;

std::string write_temp(const char* name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(FlightRecorder, ReconstructsQueueWaitFromContention) {
  // Two packets released at step 0 on link 5; FIFO serves packet 0 first.
  FlightRecorder rec;
  rec.add({0, TraceEventKind::kRelease, 0, 5, 0});
  rec.add({0, TraceEventKind::kRelease, 1, 5, 0});
  rec.add({0, TraceEventKind::kQueueDepth, kNoPkt, 5, 2});
  rec.add({0, TraceEventKind::kTransmit, 0, 5, 2});
  rec.add({0, TraceEventKind::kArrive, 0, kNoLink, 1});
  rec.add({1, TraceEventKind::kTransmit, 1, 5, 1});
  rec.add({1, TraceEventKind::kArrive, 1, kNoLink, 2});

  ASSERT_EQ(rec.records().size(), 2u);
  const FlightRecord& p0 = rec.records()[0];
  const FlightRecord& p1 = rec.records()[1];
  EXPECT_TRUE(p0.delivered());
  ASSERT_EQ(p0.hops.size(), 1u);
  EXPECT_EQ(p0.hops[0].queue_wait(), 0);
  ASSERT_EQ(p1.hops.size(), 1u);
  EXPECT_EQ(p1.hops[0], (obs::HopSpan{5, 0, 1, 1}));
  EXPECT_EQ(p1.total_queue_wait(), 1);
  EXPECT_EQ(rec.makespan(), 2);
  EXPECT_EQ(rec.inconsistencies(), 0u);
}

TEST(FlightRecorder, ReleaseAfterTerminalOpensNewGeneration) {
  FlightRecorder rec;
  for (int start : {0, 2}) {
    rec.add({start, TraceEventKind::kRelease, 0, 3, 0});
    rec.add({start, TraceEventKind::kTransmit, 0, 3, 1});
    rec.add({start, TraceEventKind::kArrive, 0, kNoLink, 1});
  }
  ASSERT_EQ(rec.records().size(), 2u);
  EXPECT_EQ(rec.records()[0].generation, 0u);
  EXPECT_EQ(rec.records()[1].generation, 1u);
  EXPECT_EQ(rec.records()[1].release_step, 2);
  EXPECT_EQ(rec.max_generation(), 1u);
  EXPECT_EQ(rec.inconsistencies(), 0u);
}

TEST(FlightRecorder, MidFlightDropKeepsPendingHop) {
  FlightRecorder rec;
  rec.add({0, TraceEventKind::kRelease, 0, 2, 0});
  rec.add({0, TraceEventKind::kTransmit, 0, 2, 1});
  rec.add({1, TraceEventKind::kFault, kNoPkt, 7, 0});
  rec.add({1, TraceEventKind::kDrop, 0, 7, 1});  // value = hops completed
  ASSERT_EQ(rec.records().size(), 1u);
  const FlightRecord& f = rec.records()[0];
  EXPECT_TRUE(f.dropped());
  EXPECT_EQ(f.drop_link, 7u);
  EXPECT_EQ(f.end_step, 1);
  EXPECT_EQ(f.pending_enqueue_step, 1);  // joined the dead link at step 1
  ASSERT_EQ(rec.fault_events().size(), 1u);
  EXPECT_FALSE(rec.fault_events()[0].repaired);
  EXPECT_EQ(rec.inconsistencies(), 0u);
}

TEST(FlightRecorder, FlagsMalformedStreams) {
  FlightRecorder rec;
  rec.add({0, TraceEventKind::kArrive, 9, kNoLink, 1});
  EXPECT_EQ(rec.inconsistencies(), 1u);
  EXPECT_NE(rec.first_inconsistency().find("never released"),
            std::string::npos);
}

TEST(JsonlReader, ReportsMalformedLineWithLineNumber) {
  const std::string path = write_temp(
      "flight_bad.jsonl",
      "{\"step\":0,\"kind\":\"release\",\"packet\":0,\"link\":3}\n"
      "\n"
      "{\"step\":0,\"kind\":\"transmit\",\n"
      "{\"step\":1}\n");
  obs::JsonlReader reader(path);
  ASSERT_TRUE(reader.ok());
  obs::JsonValue v;
  EXPECT_TRUE(reader.next(&v));   // line 1 parses (line 2 is blank)
  EXPECT_FALSE(reader.next(&v));  // line 3 is truncated JSON
  EXPECT_TRUE(reader.failed());
  EXPECT_NE(reader.error().message.find("line 3"), std::string::npos);
  // A poisoned reader stays done.
  EXPECT_FALSE(reader.next(&v));
  std::remove(path.c_str());
}

TEST(JsonlReader, MissingFileFailsCleanly) {
  obs::JsonlReader reader(::testing::TempDir() + "no_such_trace.jsonl");
  EXPECT_FALSE(reader.ok());
  obs::JsonValue v;
  EXPECT_FALSE(reader.next(&v));
}

TEST(LoadTrace, RejectsRecordsWithoutAKind) {
  const std::string path =
      write_temp("flight_nokind.jsonl", "{\"step\":0}\n");
  FlightRecorder rec;
  const auto r = obs::load_trace_jsonl(path, rec);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 1"), std::string::npos);
  EXPECT_NE(r.error.find("kind"), std::string::npos);
  std::remove(path.c_str());
}

TEST(LoadTrace, RoundTripsALiveTraceThroughJsonl) {
  const int dims = 6;
  Rng rng(41);
  const Hypercube q(dims);
  std::vector<Packet> packets;
  for (int i = 0; i < 300; ++i) {
    Packet p;
    p.route = ecube_route(q, static_cast<Node>(rng.below(q.num_nodes())),
                          static_cast<Node>(rng.below(q.num_nodes())));
    p.release = static_cast<int>(rng.below(3));
    packets.push_back(std::move(p));
  }

  // The simulator is deterministic, so two identically-configured runs —
  // one feeding the file sink, one the live recorder — see the same stream.
  const std::string path = ::testing::TempDir() + "flight_roundtrip.jsonl";
  const StoreForwardSim sim(dims);
  FlightRecorder live;
  const SimResult r =
      sim.run(packets, Arbitration::kFifo, 1 << 22, &live);
  {
    obs::JsonlFileSink sink(path);
    sink.write_meta(dims, packets.size());
    sim.run(packets, Arbitration::kFifo, 1 << 22, &sink);
  }
  FlightRecorder loaded;
  const auto load = obs::load_trace_jsonl(path, loaded);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.dims, dims);
  EXPECT_EQ(load.meta_packets, packets.size());
  EXPECT_EQ(load.events, live.events_seen());

  // The offline recorder must agree with the live one record for record.
  ASSERT_EQ(loaded.records().size(), live.records().size());
  for (std::size_t i = 0; i < live.records().size(); ++i) {
    const FlightRecord& a = live.records()[i];
    const FlightRecord& b = loaded.records()[i];
    EXPECT_EQ(a.packet, b.packet);
    EXPECT_EQ(a.release_step, b.release_step);
    EXPECT_EQ(a.hops, b.hops);
    EXPECT_EQ(a.fate, b.fate);
    EXPECT_EQ(a.end_step, b.end_step);
    EXPECT_EQ(a.latency, b.latency);
  }
  EXPECT_EQ(loaded.makespan(), r.makespan);
  EXPECT_EQ(loaded.transmissions(), r.total_transmissions);
  EXPECT_EQ(loaded.delivered(), r.latency.count());
  EXPECT_EQ(loaded.inconsistencies(), 0u);
  std::remove(path.c_str());
}

// --- The completeness contract: each simulator mode's results must be
// --- reproducible from its trace alone.

TEST(FlightCompleteness, SerialStoreForwardPhase) {
  const int n = 8;
  const auto emb = theorem1_cycle_embedding(n);
  const auto packets = phase_packets(emb, n);
  FlightRecorder rec;
  const auto r =
      StoreForwardSim(n).run(packets, Arbitration::kFifo, 1 << 22, &rec);
  const auto a = obs::analyze_flights(rec);
  EXPECT_EQ(a.makespan, r.makespan);
  EXPECT_EQ(a.delivered, r.latency.count());
  EXPECT_EQ(a.transmissions, r.total_transmissions);
  EXPECT_EQ(a.max_queue, r.max_queue);
  EXPECT_EQ(a.inconsistencies, 0u);
  EXPECT_EQ(a.depth_mismatches, 0u);
}

TEST(FlightCompleteness, ParallelStoreForwardAcrossThreadCounts) {
  const int n = 8;
  const auto emb = theorem1_cycle_embedding(n);
  const auto packets = phase_packets(emb, 2 * n);
  const auto serial = StoreForwardSim(n).run(packets);
  for (int threads : {1, 2, 8}) {
    par::TaskPool pool(threads);
    const par::PoolScope scope(pool);
    FlightRecorder rec;
    const auto r =
        StoreForwardSim(n).run(packets, Arbitration::kFifo, 1 << 22, &rec);
    const auto a = obs::analyze_flights(rec);
    EXPECT_EQ(a.makespan, serial.makespan) << threads;
    EXPECT_EQ(a.makespan, r.makespan) << threads;
    EXPECT_EQ(a.delivered, r.latency.count()) << threads;
    EXPECT_EQ(a.transmissions, serial.total_transmissions) << threads;
    EXPECT_EQ(a.inconsistencies, 0u) << threads;
    EXPECT_EQ(a.depth_mismatches, 0u) << threads;
    EXPECT_EQ(a.critical_path.length(), a.makespan) << threads;
  }
}

TEST(FlightCompleteness, FaultReplayRun) {
  const int n = 6;
  const auto emb = theorem1_cycle_embedding(n);
  const auto packets = phase_packets(emb, n);
  FaultSchedule schedule(n);
  const Hypercube q(n);
  schedule.link_down(0, 0, q.neighbor(0, 0));
  schedule.link_down(1, 5, q.neighbor(5, 2));
  schedule.transient_link(0, 1, 9, q.neighbor(9, 1));
  FlightRecorder rec;
  const auto fr = run_with_faults(n, packets, schedule, Arbitration::kFifo,
                                  1 << 22, &rec);
  const auto a = obs::analyze_flights(rec);
  EXPECT_EQ(a.makespan, fr.sim.makespan);
  EXPECT_EQ(a.delivered, fr.delivered);
  EXPECT_EQ(a.dropped, fr.lost);
  EXPECT_EQ(a.transmissions, fr.sim.total_transmissions);
  EXPECT_GT(a.faults, 0u);
  EXPECT_EQ(a.repairs, 2u);  // the transient repair, one per direction
  EXPECT_EQ(a.inconsistencies, 0u);
  EXPECT_EQ(a.depth_mismatches, 0u);
}

TEST(FlightCompleteness, RecoveryRunAcrossThreadCounts) {
  const int n = 6;
  const auto emb = theorem1_cycle_embedding(n);
  FaultSchedule schedule(n);
  const Hypercube q(n);
  schedule.link_down(0, 1, q.neighbor(1, 0));
  schedule.link_down(1, 7, q.neighbor(7, 3));
  RecoveryConfig cfg;
  cfg.timeout = 4;
  cfg.max_retries = 4;
  cfg.threshold = 0;  // all fragments required: every loss retransmits

  FlightRecorder serial_rec;
  const auto serial = run_recovery(emb, schedule, cfg, &serial_rec);
  ASSERT_GT(serial.retransmissions, 0u);
  const auto sa = obs::analyze_flights(serial_rec);
  EXPECT_EQ(sa.makespan, serial.makespan);
  EXPECT_EQ(sa.delivered, serial.fragments_delivered);
  EXPECT_EQ(sa.dropped, serial.fragments_lost);
  EXPECT_EQ(sa.retransmissions, serial.retransmissions);
  EXPECT_EQ(sa.transmissions, serial.total_transmissions);
  EXPECT_EQ(sa.inconsistencies, 0u);
  EXPECT_EQ(sa.depth_mismatches, 0u);
}

TEST(FlightCompleteness, WormholeRun) {
  const int dims = 5;
  const Hypercube q(dims);
  std::vector<Worm> worms;
  for (Node s = 0; s < 16; ++s) {
    Worm w;
    w.route = ecube_route(q, s, static_cast<Node>(q.num_nodes() - 1 - s));
    w.flits = 4;
    worms.push_back(std::move(w));
  }
  FlightRecorder rec;
  WormholeSim sim(dims);
  const auto r = sim.run(worms, 1 << 22, &rec);
  EXPECT_TRUE(rec.worm_trace());
  EXPECT_EQ(rec.makespan(), r.makespan);
  EXPECT_EQ(rec.delivered(), worms.size());
  EXPECT_EQ(rec.records().size(), worms.size());
  EXPECT_EQ(rec.inconsistencies(), 0u);
}

}  // namespace
}  // namespace hyperpath
