// Ablation study: what each design choice in the paper actually buys.
//
//   A. Theorem 3's overlapping windows vs the two §5.3 straw men — the
//      paper predicts congestion n/r for both naive window choices and a
//      flat 2 for the overlapping construction.
//   B. Theorem 2's moment-indexed special cycles vs a constant selection —
//      without Lemma 2 the 2k neighbor projections pile onto the same host
//      edges and the measured w-packet cost degrades from 3 to Θ(k).
//   C. Link arbitration: FIFO vs farthest-first on a congested random
//      workload (an implementation choice, not a paper claim — included to
//      show the measured costs above are not arbitration artifacts).
#include <benchmark/benchmark.h>

#include "bench/table.hpp"
#include "ccc/strawmen.hpp"
#include "core/cycle_multipath.hpp"
#include "sim/phase.hpp"
#include "sim/workloads.hpp"

namespace hyperpath {
namespace {

void print_table(bench::Report& report) {
  {
    bench::Table t("Ablation A: CCC window choices (copies × congestion)",
                   {"construction", "n", "copies", "edge congestion",
                    "paper prediction"});
    int good_cong = 0, naive_cong = 0;
    for (int n : {4, 8}) {
      const auto good = [&] {
        HP_PROFILE_SPAN("construct");
        return ccc_multicopy_embedding(n);
      }();
      good_cong = good.edge_congestion();
      t.row("Theorem 3 overlapping", n, good.num_copies(),
            good.edge_congestion(), "2");
      const auto same = ccc_multicopy_same_windows(n);
      naive_cong = same.edge_congestion();
      t.row("same windows (naive)", n, same.num_copies(),
            same.edge_congestion(), "≥ n/r");
      const auto disj = ccc_multicopy_disjoint_windows(n);
      t.row("disjoint windows (naive)", n, disj.num_copies(),
            disj.edge_congestion(), "≥ copies on some dim");
    }
    t.print();
    report.metric("ccc_overlapping_congestion_q8", good_cong);
    report.metric("ccc_same_windows_congestion_q8", naive_cong);
    report.table(t);
  }
  {
    bench::Table t(
        "Ablation B: Theorem 2 with vs without moment cycle selection",
        {"n", "variant", "width", "congestion", "w-pkt cost"});
    int good_cost_16 = 0, naive_cost_16 = 0;
    for (int n : {8, 10, 16}) {
      const int w = 2 * (n / 4);
      const auto good = [&] {
        HP_PROFILE_SPAN("construct");
        return theorem2_cycle_embedding(n);
      }();
      HP_PROFILE_SPAN("simulate");
      const int gc = measure_phase_cost(good, w).makespan;
      t.row(n, "moments (Lemma 2)", good.width(), good.congestion(), gc);
      const auto naive = theorem2_cycle_embedding_naive(n);
      const int nc = measure_phase_cost(naive, w).makespan;
      t.row(n, "constant cycle 0", naive.width(), naive.congestion(), nc);
      if (n == 16) {
        good_cost_16 = gc;
        naive_cost_16 = nc;
      }
    }
    t.print();
    report.metric("moments_cost_q16", good_cost_16);
    report.metric("naive_cost_q16", naive_cost_16);
    report.table(t);
  }
  {
    bench::Table t("Ablation C: link arbitration on Theorem 1 phases",
                   {"n", "m", "FIFO steps", "farthest-first steps"});
    HP_PROFILE_SPAN("simulate");
    for (int n : {8, 10}) {
      const auto emb = theorem1_cycle_embedding(n);
      for (int m : {n, 4 * n}) {
        t.row(n, m, measure_phase_cost(emb, m, Arbitration::kFifo).makespan,
              measure_phase_cost(emb, m, Arbitration::kFarthestFirst)
                  .makespan);
      }
    }
    t.print();
    report.table(t);
  }
}

void BM_NaiveVsMoments(benchmark::State& state) {
  const auto naive = theorem2_cycle_embedding_naive(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_phase_cost(naive, 4).makespan);
  }
}
BENCHMARK(BM_NaiveVsMoments);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("ablation", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
