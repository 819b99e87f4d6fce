// Experiment E2 (Theorem 1).
//
// The 2^n-node directed cycle in Q_n: width ⌊n/2⌋ (2⌊n/4⌋+1 paths built),
// ⌊n/2⌋-packet cost 3, and the stronger (2k+2)-packet cost 3 via the
// staged direct-path schedule.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench/table.hpp"
#include "core/cycle_multipath.hpp"
#include "core/lower_bounds.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

/// Flight-record pass over the Q_16 ⌊n/2⌋-packet phase: replays it with a
/// FlightRecorder attached and exports the measured edge congestion
/// bracketed by the analytic floor and the Lemma 3 / construction ceiling.
/// All values are deterministic, so they gate exactly in the baseline diff.
void report_q16_flight_metrics(bench::Report& report) {
  const int n = 16;
  const int p = n / 2;
  const auto emb = theorem1_cycle_embedding(n);
  obs::FlightRecorder rec;
  SimResult r;
  {
    HP_PROFILE_SPAN("simulate");
    r = measure_phase_cost(emb, p, Arbitration::kFifo, &rec);
  }
  const obs::TraceAnalysis a = obs::analyze_flights(rec);
  const PhaseCongestionBounds bounds = phase_congestion_bounds(emb, p);

  // The reconstruction must agree with the simulator bit for bit; a
  // disagreement means the trace stream is incomplete.
  if (a.makespan != r.makespan || a.delivered != r.latency.count() ||
      a.transmissions != r.total_transmissions ||
      a.inconsistencies != 0 || a.depth_mismatches != 0) {
    std::fprintf(stderr, "FATAL: flight records disagree with SimResult\n");
    std::exit(1);
  }

  std::printf("Q_16 flight records: peak congestion %llu in [%lld, %lld], "
              "critical path %d steps (%d handoffs), queue wait p99 %.2f\n\n",
              static_cast<unsigned long long>(a.peak_congestion),
              static_cast<long long>(bounds.floor),
              static_cast<long long>(bounds.ceiling),
              a.critical_path.length(), a.critical_path.handoffs,
              a.queue_wait.quantile(0.99));

  report.metric("q16_flight_makespan", a.makespan, "steps");
  report.metric("q16_flight_delivered", a.delivered, "count");
  report.metric("q16_peak_congestion", a.peak_congestion, "count");
  report.metric("q16_congestion_floor", bounds.floor, "count");
  report.metric("q16_congestion_ceiling", bounds.ceiling, "count");
  report.metric("q16_congestion_in_bounds",
                bounds.contains(static_cast<std::int64_t>(
                    a.peak_congestion))
                    ? 1
                    : 0, "count");
  report.metric("q16_congestion_floor_margin",
                static_cast<std::int64_t>(a.peak_congestion) - bounds.floor,
                "count");
  report.metric("q16_congestion_ceiling_margin",
                bounds.ceiling -
                    static_cast<std::int64_t>(a.peak_congestion), "count");
  report.metric("q16_critical_path_length", a.critical_path.length(), "steps");
  report.metric("q16_critical_path_handoffs",
                a.critical_path.handoffs, "count");
  report.metric("q16_queue_wait_p50", a.queue_wait.quantile(0.5), "steps");
  report.metric("q16_queue_wait_p99", a.queue_wait.quantile(0.99), "steps");
  report.metric("q16_depth_mismatches", a.depth_mismatches, "count");
}

void print_table(bench::Report& report) {
  bench::Table t(
      "E2: Theorem 1 — width-⌊n/2⌋ cycle embeddings",
      {"n", "width built", "⌊n/2⌋", "load", "dilation",
       "⌊n/2⌋-pkt cost (paper: 3)", "(2k+2)-pkt cost (paper: 3)",
       "3-step slot slack"});
  const std::vector<int> dims = {4, 5, 6, 7, 8, 9, 10, 11, 16};
  int worst_cost = 0;
  for (int n : dims) {
    const auto emb = [&] {
      HP_PROFILE_SPAN("construct");
      return theorem1_cycle_embedding(n);
    }();
    const int k = n / 4;
    StoreForwardSim sim(n);
    HP_PROFILE_SPAN("simulate");
    const int cost_halfn = measure_phase_cost(emb, n / 2).makespan;
    const int cost_2k2 =
        sim.run(theorem1_schedule_packets(emb, 2 * k + 2)).makespan;
    worst_cost = std::max({worst_cost, cost_halfn, cost_2k2});
    t.row(n, emb.width(), n / 2, emb.load(), emb.dilation(), cost_halfn,
          cost_2k2, edge_slot_slack(emb, 3));
  }
  t.print();
  report.param("dims_min", dims.front());
  report.param("dims_max", dims.back());
  report.metric("worst_phase_cost", worst_cost, "steps");
  report.metric("paper_claimed_cost", 3, "steps");
  report.table(t);
}

void BM_Theorem1Construct(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(theorem1_cycle_embedding(n).width());
  }
}
BENCHMARK(BM_Theorem1Construct)->Arg(8)->Arg(10)->Arg(16);

void BM_Theorem1Phase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto emb = theorem1_cycle_embedding(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_phase_cost(emb, n / 2).makespan);
  }
}
BENCHMARK(BM_Theorem1Phase)->Arg(8)->Arg(10);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("theorem1", &argc, argv);
  hyperpath::print_table(report);
  hyperpath::report_q16_flight_metrics(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
