// Experiment E7 (Lemma 1 / §3.1, after Alspach–Bermond–Sotteau).
//
// Hamiltonian decompositions of Q_n: ⌊n/2⌋ edge-disjoint Hamiltonian
// cycles (+ a perfect matching for odd n), re-oriented into the 2⌊n/2⌋
// directed Hamiltonian cycles of Lemma 1 with dilation 1 and joint
// congestion 1.  BM_SolveEvenDecomposition times the table generator's
// search (tools/hamdecomp_solver/), which the library never runs.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/table.hpp"
#include "embed/classical.hpp"
#include "hamdecomp/decomposition.hpp"
#include "hamdecomp_solver/solver.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

void print_table(bench::Report& report) {
  bench::Table t("E7: Lemma 1 — multiple-copy directed Hamiltonian cycles",
                 {"n", "undirected cycles", "matching", "directed copies",
                  "dilation", "joint congestion", "1-pkt phase cost",
                  "link util (even n: 1.0)"});
  int worst_congestion = 0;
  int worst_cost = 0;
  for (int n : {2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}) {
    const auto& d = [&]() -> const HamDecomposition& {
      HP_PROFILE_SPAN("construct");
      return hamiltonian_decomposition(n);
    }();
    const auto emb = [&] {
      HP_PROFILE_SPAN("construct");
      return multicopy_directed_cycles(n);
    }();
    HP_PROFILE_SPAN("simulate");
    const auto r = measure_phase_cost(emb.multipath(), 1);
    worst_congestion = std::max(worst_congestion, emb.edge_congestion());
    worst_cost = std::max(worst_cost, r.makespan);
    t.row(n, d.cycles.size(), d.matching.size(), emb.num_copies(),
          emb.dilation(), emb.edge_congestion(), r.makespan,
          r.utilization.empty() ? 0.0 : r.utilization.profile()[0]);
  }
  t.print();
  report.param("dims_max", 13);
  report.metric("worst_joint_congestion", worst_congestion, "count");
  report.metric("worst_phase_cost", worst_cost, "steps");
  report.table(t);
}

void BM_SolveEvenDecomposition(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_even_decomposition(dims, seed++).cycles.size());
  }
}
BENCHMARK(BM_SolveEvenDecomposition)->Arg(6)->Arg(8)->Arg(10)
    ->Unit(benchmark::kMillisecond);

void BM_SpliceOdd(benchmark::State& state) {
  const auto& even = hamiltonian_decomposition(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(splice_odd_decomposition(even).cycles.size());
  }
}
BENCHMARK(BM_SpliceOdd);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("hamdecomp", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
