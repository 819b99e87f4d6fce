// Infrastructure benchmark: thread-parallel phase simulation.
//
// Not a paper experiment — this measures the simulator itself: the sharded
// parallel store-and-forward simulator must match the serial one bit for
// bit (tests enforce that) and should win wall-clock on large phases.  The
// table also measures tracing overhead: a traced run (flight recorder
// assembling per-packet records in-line) against the untraced baseline,
// and confirms makespans agree.  Flight-record summaries (queue-wait
// percentiles, critical-path length) are exported as exact gated metrics —
// traced parallel runs are bit-identical to serial, so every one of them
// is thread-count invariant.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>

#include "bench/table.hpp"
#include "core/cycle_multipath.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight.hpp"
#include "par/task_pool.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void print_table(bench::Report& report) {
  bench::Table t("E15: parallel simulator — serial vs sharded vs traced",
                 {"n", "packets", "makespan", "serial ms", "parallel ms (4t)",
                  "speedup", "traced ms", "trace events"});
  // The sharded arm takes its shard count from the pool it runs on.
  par::TaskPool pool4(4);
  for (int n : {10, 16}) {
    const auto emb = [&] {
      HP_PROFILE_SPAN("construct");
      return theorem1_cycle_embedding(n);
    }();
    const auto packets = phase_packets(emb, n);
    StoreForwardSim serial(n);
    ParallelStoreForwardSim parallel(n);

    SimResult rs, rp, rt;
    obs::FlightRecorder rec;
    HP_PROFILE_SPAN("simulate");
    const double s_serial = seconds_of([&] { rs = serial.run(packets); });
    const double s_par = seconds_of([&] {
      const par::PoolScope scope(pool4);
      rp = parallel.run(packets);
    });
    const double s_traced = seconds_of([&] {
      rt = serial.run(packets, Arbitration::kFifo, 1 << 22, &rec);
    });
    if (rs.makespan != rp.makespan || rs.makespan != rt.makespan) {
      std::fprintf(stderr, "FATAL: simulator variants disagree on n=%d\n", n);
      std::exit(1);
    }
    const obs::TraceAnalysis a = obs::analyze_flights(rec);
    if (a.makespan != rt.makespan || a.delivered != rt.latency.count() ||
        a.inconsistencies != 0 || a.depth_mismatches != 0) {
      std::fprintf(stderr, "FATAL: flight records disagree on n=%d\n", n);
      std::exit(1);
    }
    t.row(n, packets.size(), rs.makespan, s_serial * 1e3, s_par * 1e3,
          s_serial / s_par, s_traced * 1e3, rec.events_seen());
    // Wall-clock goes into the timings section (reported, never gating),
    // never into metrics: the baseline CI gate holds metrics to exact
    // equality, which only deterministic simulation outputs can satisfy.
    auto& reg = obs::MetricsRegistry::global();
    reg.record_span("serial_n" + std::to_string(n), s_serial);
    reg.record_span("parallel_n" + std::to_string(n), s_par);
    reg.record_span("traced_n" + std::to_string(n), s_traced);
    const std::string suffix = "_n" + std::to_string(n);
    report.metric("makespan" + suffix, rs.makespan);
    report.metric("trace_events" + suffix, rec.events_seen());
    report.metric("queue_wait_p50" + suffix, a.queue_wait.quantile(0.5));
    report.metric("queue_wait_p99" + suffix, a.queue_wait.quantile(0.99));
    report.metric("critical_path" + suffix, a.critical_path.length());
    report.metric("critical_path_handoffs" + suffix,
                  a.critical_path.handoffs);
    report.metric("peak_congestion" + suffix, a.peak_congestion);
  }
  t.print();
  report.param("threads", 4);
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

void BM_ParallelPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const auto emb = theorem1_cycle_embedding(n);
  const auto packets = phase_packets(emb, n);
  par::TaskPool pool(threads);
  const par::PoolScope scope(pool);
  ParallelStoreForwardSim sim(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(packets).makespan);
  }
}
BENCHMARK(BM_ParallelPhase)
    ->Args({10, 2})
    ->Args({10, 4})
    ->Args({16, 2})
    ->Args({16, 4})
    ->Unit(benchmark::kMillisecond);

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
