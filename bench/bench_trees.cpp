// Experiment E11 (Theorem 5 + §6.2).
//
// Width-n embedding of the complete binary tree into Q_{2n} at O(1) load
// and cost, and arbitrary binary trees composed through the CBT (heuristic
// tree → CBT stage; the paper's [6] proves O(log levels) for that stage —
// the table reports what the heuristic measures on random trees).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/table.hpp"
#include "base/rng.hpp"
#include "ccc/netmaps.hpp"
#include "core/tree_multipath.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

void print_table(bench::Report& report) {
  {
    bench::Table t("E11a: Theorem 5 — CBT multipath embeddings",
                   {"m", "CBT nodes", "host dims", "width", "load",
                    "dilation", "n-pkt cost (O(1))"});
    for (int m : {4}) {
      const auto emb = [&] {
        HP_PROFILE_SPAN("construct");
        return theorem5_cbt_embedding(m);
      }();
      const int n = emb.host().dims() / 2;
      HP_PROFILE_SPAN("simulate");
      const auto r = measure_phase_cost(emb, n);
      report.metric("cbt_width", emb.width(), "count");
      report.metric("cbt_load", emb.load(), "count");
      report.metric("cbt_phase_cost", r.makespan, "steps");
      t.row(m, emb.guest().num_nodes(), emb.host().dims(), emb.width(),
            emb.load(), emb.dilation(), r.makespan);
    }
    t.print();
    report.table(t);
  }
  {
    bench::Table t(
        "E11b: §6.2 — arbitrary binary trees via the CBT (m = 4, Q_12)",
        {"tree nodes", "tree→CBT dilation", "tree→CBT congestion", "width",
         "n-pkt cost", "2m (CBT levels)"});
    Rng rng(2026);
    int worst_cost = 0;
    for (Node size : {31u, 100u, 200u, 255u}) {
      std::vector<Node> parent;
      const Digraph tree = random_binary_tree(size, rng, &parent);
      const auto t2c = tree_into_cbt(tree, parent, 8);
      const auto emb = [&] {
        HP_PROFILE_SPAN("construct");
        return arbitrary_tree_multipath(tree, parent, 4);
      }();
      HP_PROFILE_SPAN("simulate");
      const auto r = measure_phase_cost(emb, emb.width());
      worst_cost = std::max(worst_cost, r.makespan);
      t.row(size, t2c.dilation(), t2c.congestion(), emb.width(), r.makespan,
            8);
    }
    t.print();
    report.metric("arbitrary_tree_worst_cost", worst_cost, "steps");
    report.table(t);
  }
}

void BM_Theorem5Construct(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(theorem5_cbt_embedding(4).width());
  }
}
BENCHMARK(BM_Theorem5Construct)->Unit(benchmark::kMillisecond);

void BM_TreeIntoCbt(benchmark::State& state) {
  Rng rng(7);
  std::vector<Node> parent;
  const Digraph tree = random_binary_tree(200, rng, &parent);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree_into_cbt(tree, parent, 8).dilation());
  }
}
BENCHMARK(BM_TreeIntoCbt);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("trees", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
