// Determinism contract of the telemetry bus (obs/telemetry.hpp): turning
// sampling on, at ANY period and thread count, must leave simulation
// results and trace streams bit-identical to a run with telemetry off.
// The sampler rides the step counter and only reads simulator state, so
// this holds by construction — these tests are the license to keep the
// sampling hooks inside the hot loops.  Periods {1, 7, 64} cover every
// step, a period coprime to the workload's natural cadence, and the
// default; each run executes under a task pool of {1, 2, 8} participants,
// which the serial step loop must ignore.
#include <gtest/gtest.h>

#include <vector>

#include "base/rng.hpp"
#include "core/cycle_multipath.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "par/task_pool.hpp"
#include "sim/faults.hpp"
#include "sim/phase.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"

namespace hyperpath {
namespace {

using obs::RingBufferSink;
using obs::TelemetryBus;

const int kPeriods[] = {1, 7, 64};
const int kThreadCounts[] = {1, 2, 8};

void expect_same_result(const SimResult& a, const SimResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.total_transmissions, b.total_transmissions) << label;
  EXPECT_EQ(a.utilization, b.utilization) << label;
  EXPECT_EQ(a.max_queue, b.max_queue) << label;
  EXPECT_EQ(a.dim_transmissions, b.dim_transmissions) << label;
  EXPECT_EQ(a.latency, b.latency) << label;
  EXPECT_EQ(a.link_visits, b.link_visits) << label;
}

void expect_same_trace(const RingBufferSink& a, const RingBufferSink& b,
                       const std::string& label) {
  ASSERT_EQ(a.total(), b.total()) << label;
  ASSERT_EQ(a.dropped(), 0u) << label;
  EXPECT_EQ(a.events(), b.events()) << label;
}

/// Mixed workload: a Theorem 1 phase plus staggered random e-cube traffic,
/// so runs are long enough that every tested period actually fires.
std::vector<Packet> workload(int* dims_out) {
  const auto emb = theorem1_cycle_embedding(8);
  *dims_out = emb.host().dims();
  std::vector<Packet> packets = phase_packets(emb, 4);
  Rng rng(2026);
  const Hypercube q(*dims_out);
  for (int i = 0; i < 400; ++i) {
    Packet p;
    const Node s = static_cast<Node>(rng.below(q.num_nodes()));
    const Node d = static_cast<Node>(rng.below(q.num_nodes()));
    p.route = ecube_route(q, s, d);
    p.release = static_cast<int>(rng.below(12));
    packets.push_back(std::move(p));
  }
  return packets;
}

TEST(TelemetryEquivalence, ResultsAndTracesBitIdenticalAcrossPeriods) {
  int dims = 0;
  const auto packets = workload(&dims);
  TelemetryBus& bus = TelemetryBus::global();
  bus.disable();

  for (int threads : kThreadCounts) {
    par::TaskPool pool(threads);
    const par::PoolScope scope(pool);
    // Baseline with telemetry off.
    RingBufferSink base_sink;
    const SimResult base = StoreForwardSim(dims).run(
        packets, Arbitration::kFifo, 1 << 22, &base_sink);

    for (int period : kPeriods) {
      const std::string label =
          "threads=" + std::to_string(threads) +
          " period=" + std::to_string(period);
      TelemetryBus::Config cfg;
      cfg.period_steps = period;
      bus.enable(cfg);
      RingBufferSink sink;
      const SimResult got = StoreForwardSim(dims).run(
          packets, Arbitration::kFifo, 1 << 22, &sink);
      const std::uint64_t samples = bus.total_samples();
      bus.disable();

      expect_same_result(got, base, label);
      expect_same_trace(sink, base_sink, label);
      // The run must actually have been observed: one sample per period
      // boundary reached, starting at step 0.
      EXPECT_EQ(samples,
                static_cast<std::uint64_t>((base.makespan + period - 1) /
                                           period))
          << label;
    }
  }
}

TEST(TelemetryEquivalence, FaultReplayUnchangedByTelemetry) {
  int dims = 0;
  const auto packets = workload(&dims);
  FaultSchedule sched(dims);
  const Hypercube q(dims);
  sched.link_down(1, 0, q.neighbor(0, 0));
  sched.transient_link(2, 9, 5, q.neighbor(5, 1));
  sched.node_down(4, 17);
  sched.transient_node(3, 8, 33);

  TelemetryBus& bus = TelemetryBus::global();
  bus.disable();
  RingBufferSink base_sink;
  const FaultRunResult base = StoreForwardSim(dims).run_with_faults(
      packets, sched, Arbitration::kFifo, 1 << 22, &base_sink);

  for (int period : kPeriods) {
    const std::string label = "period=" + std::to_string(period);
    TelemetryBus::Config cfg;
    cfg.period_steps = period;
    bus.enable(cfg);
    RingBufferSink sink;
    const FaultRunResult got = StoreForwardSim(dims).run_with_faults(
        packets, sched, Arbitration::kFifo, 1 << 22, &sink);
    bus.disable();

    expect_same_result(got.sim, base.sim, label);
    EXPECT_EQ(got.fates, base.fates) << label;
    EXPECT_EQ(got.delivered, base.delivered) << label;
    EXPECT_EQ(got.lost, base.lost) << label;
    expect_same_trace(sink, base_sink, label);
  }

  // And under wider task pools, telemetry on at every step.
  for (int threads : {2, 8}) {
    const std::string label = "par threads=" + std::to_string(threads);
    TelemetryBus::Config cfg;
    cfg.period_steps = 1;
    bus.enable(cfg);
    par::TaskPool pool(threads);
    const par::PoolScope scope(pool);
    RingBufferSink sink;
    const FaultRunResult got = StoreForwardSim(dims).run_with_faults(
        packets, sched, Arbitration::kFifo, 1 << 22, &sink);
    bus.disable();
    expect_same_result(got.sim, base.sim, label);
    EXPECT_EQ(got.fates, base.fates) << label;
    expect_same_trace(sink, base_sink, label);
  }
}

}  // namespace
}  // namespace hyperpath
