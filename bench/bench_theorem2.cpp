// Experiment E3 (Theorem 2).
//
// The 2^{n+1}-node cycle with load 2: width w(n) = 2⌊n/4⌋, w(n)-packet
// cost 3, and — for n ≡ 0 (mod 4) — every hypercube link busy in every one
// of the 3 steps (the "fully utilize the links" headline).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/table.hpp"
#include "core/cycle_multipath.hpp"
#include "core/lower_bounds.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

void print_table(bench::Report& report) {
  bench::Table t("E3: Theorem 2 — load-2 cycle embeddings",
                 {"n", "n mod 4", "width", "paper w(n)", "cost (paper: 3)",
                  "min step util", "Lemma-3 cap ⌊n/2⌋"});
  int worst_cost = 0;
  double worst_min_util = 1.0;
  for (int n : {4, 5, 6, 7, 8, 9, 10, 11, 16}) {
    const auto emb = [&] {
      HP_PROFILE_SPAN("construct");
      return theorem2_cycle_embedding(n);
    }();
    const int k = n / 4;
    const int w_paper = (n % 4 <= 1) ? n / 2 : n / 2 - 1;
    HP_PROFILE_SPAN("simulate");
    const auto r = measure_phase_cost(emb, 2 * k);
    double min_util = 1.0;
    for (double u : r.utilization.profile()) min_util = std::min(min_util, u);
    worst_cost = std::max(worst_cost, r.makespan);
    if (n % 4 == 0) worst_min_util = std::min(worst_min_util, min_util);
    t.row(n, n % 4, emb.width(), w_paper, r.makespan, min_util,
          lemma3_max_cost3_packets(n));
  }
  t.print();
  report.metric("worst_phase_cost", worst_cost);
  report.metric("paper_claimed_cost", 3);
  report.metric("worst_min_util_n_mod4_0", worst_min_util);
  report.table(t);
}

void BM_Theorem2Construct(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(theorem2_cycle_embedding(n).width());
  }
}
BENCHMARK(BM_Theorem2Construct)->Arg(8)->Arg(10);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("theorem2", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
