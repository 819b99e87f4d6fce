// Infrastructure benchmark: Theorem 1 phase simulation, untraced vs traced.
//
// Not a paper experiment — this measures the simulator itself: a traced
// run (flight recorder assembling per-packet records in-line) against the
// untraced baseline, confirming the makespans agree.  Flight-record
// summaries (queue-wait percentiles, critical-path length) are exported as
// exact gated metrics.  The report keeps its historical name,
// `parallel_sim`, so its gated metric keys stay stable; the step loop
// itself is serial (store_forward.hpp).
#include <benchmark/benchmark.h>


#include "bench/table.hpp"
#include "core/cycle_multipath.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight.hpp"
#include "sim/phase.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {
namespace {

using bench::seconds_of;

void print_table(bench::Report& report) {
  bench::Table t("phase simulator — untraced vs traced",
                 {"n", "packets", "makespan", "serial ms", "traced ms",
                  "trace events"});
  for (int n : {10, 16}) {
    const auto emb = [&] {
      HP_PROFILE_SPAN("construct");
      return theorem1_cycle_embedding(n);
    }();
    const auto packets = phase_packets(emb, n);
    StoreForwardSim serial(n);

    SimResult rs, rt;
    obs::FlightRecorder rec;
    HP_PROFILE_SPAN("simulate");
    const double s_serial = seconds_of([&] { rs = serial.run(packets); });
    const double s_traced = seconds_of([&] {
      rt = serial.run(packets, Arbitration::kFifo, 1 << 22, &rec);
    });
    if (rs.makespan != rt.makespan) {
      std::fprintf(stderr, "FATAL: simulator variants disagree on n=%d\n", n);
      std::exit(1);
    }
    const obs::TraceAnalysis a = obs::analyze_flights(rec);
    if (a.makespan != rt.makespan || a.delivered != rt.latency.count() ||
        a.inconsistencies != 0 || a.depth_mismatches != 0) {
      std::fprintf(stderr, "FATAL: flight records disagree on n=%d\n", n);
      std::exit(1);
    }
    t.row(n, packets.size(), rs.makespan, s_serial * 1e3, s_traced * 1e3,
          rec.events_seen());
    // Wall-clock goes into timing records (reported, never gating), never
    // into exact ones: the baseline CI gate holds those to exact
    // equality, which only deterministic simulation outputs can satisfy.
    const std::string suffix = "_n" + std::to_string(n);
    report.record("serial" + suffix, s_serial, "s", obs::RecordClass::kTiming);
    report.record("traced" + suffix, s_traced, "s", obs::RecordClass::kTiming);
    report.metric("makespan" + suffix, rs.makespan, "steps");
    report.metric("trace_events" + suffix, rec.events_seen(), "count");
    report.metric("queue_wait_p50" + suffix,
                  a.queue_wait.quantile(0.5), "steps");
    report.metric("queue_wait_p99" + suffix,
                  a.queue_wait.quantile(0.99), "steps");
    report.metric("critical_path" + suffix, a.critical_path.length(), "steps");
    report.metric("critical_path_handoffs" + suffix,
                  a.critical_path.handoffs, "count");
    report.metric("peak_congestion" + suffix, a.peak_congestion, "count");
  }
  t.print();
  report.table(t);
}

void BM_SerialPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto emb = theorem1_cycle_embedding(n);
  const auto packets = phase_packets(emb, n);
  StoreForwardSim sim(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(packets).makespan);
  }
}
BENCHMARK(BM_SerialPhase)->Arg(10)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_TracedSerialPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto emb = theorem1_cycle_embedding(n);
  const auto packets = phase_packets(emb, n);
  StoreForwardSim sim(n);
  obs::RingBufferSink ring;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.run(packets, Arbitration::kFifo, 1 << 22, &ring).makespan);
  }
}
BENCHMARK(BM_TracedSerialPhase)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("parallel_sim", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
