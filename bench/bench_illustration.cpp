// Experiment E1 (Figure 1 + Section 2 illustration).
//
// The classical binary reflected Gray-code embedding of the directed cycle
// uses one of each node's n outgoing links; with m packets per node the
// dimension-0 counting argument forces ≥ m/2 steps.  Theorem 1's
// multiple-path embedding delivers the same traffic in Θ(m/n) steps.
//
// Paper shape to reproduce: classical cost grows linearly in m while the
// multipath cost is ~3 per width-batch, a Θ(n) speed-up.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/table.hpp"
#include "core/cycle_multipath.hpp"
#include "embed/classical.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

void print_table(bench::Report& report) {
  bench::Table t("E1: m-packet cycle phase — classical Gray code vs Theorem 1",
                 {"n", "m", "gray cost", "multipath cost", "speed-up",
                  "gray bound m/2", "multipath Θ(m/n) ≈ 3·⌈m/w⌉"});
  double best_speedup = 0.0;
  for (int n : {4, 6, 8, 10, 16}) {
    const auto gray = gray_code_cycle_embedding(n);
    const auto multi = [&] {
      HP_PROFILE_SPAN("construct");
      return theorem1_cycle_embedding(n);
    }();
    const int w = multi.width();
    HP_PROFILE_SPAN("simulate");
    for (int m : {n / 2, 2 * n, n <= 10 ? 8 * n : 4 * n}) {
      const int gray_cost = measure_phase_cost(gray, m).makespan;
      StoreForwardSim sim(n);
      const int multi_cost =
          sim.run(theorem1_schedule_packets(multi, m)).makespan;
      const double speedup = static_cast<double>(gray_cost) / multi_cost;
      best_speedup = std::max(best_speedup, speedup);
      t.row(n, m, gray_cost, multi_cost, speedup, m / 2,
            3 * ((m + w - 1) / w));
    }
  }
  t.print();
  report.metric("best_speedup", best_speedup);
  report.table(t);
}

void BM_GrayPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto gray = gray_code_cycle_embedding(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_phase_cost(gray, 2 * n).makespan);
  }
}
BENCHMARK(BM_GrayPhase)->Arg(6)->Arg(8)->Arg(10);

void BM_MultipathPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto multi = theorem1_cycle_embedding(n);
  StoreForwardSim sim(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.run(theorem1_schedule_packets(multi, 2 * n)).makespan);
  }
}
BENCHMARK(BM_MultipathPhase)->Arg(6)->Arg(8)->Arg(10);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("illustration", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
