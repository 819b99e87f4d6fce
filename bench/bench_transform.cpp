// Experiment E10 (Theorem 4).
//
// The multiple-copy → multiple-path transform: from the n-copy cycle
// embedding (cost c = 1, out-degree δ = 1) it builds a width-n embedding of
// X(cycle) in Q_{2n} with measured n-packet cost c + 2δ = 3; from the
// m-copy butterfly embedding (δ = 4 symmetric) a width-n X(butterfly).
// Non-power-of-two n pays one extra step (moments collide mod n).
#include <benchmark/benchmark.h>

#include "bench/table.hpp"
#include "core/transform.hpp"
#include "core/tree_multipath.hpp"
#include "embed/classical.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

void print_table(bench::Report& report) {
  bench::Table t("E10: Theorem 4 — width-n embeddings of X(G) in Q_{2n}",
                 {"G", "n", "X nodes", "width", "dilation",
                  "n-pkt cost (paper: c+2δ)", "c+2δ"});
  int cycle_cost_n4 = 0;
  for (int n : {2, 4, 6}) {
    const auto copies = multicopy_directed_cycles(n);
    const auto emb = [&] {
      HP_PROFILE_SPAN("construct");
      return theorem4_transform(copies);
    }();
    HP_PROFILE_SPAN("simulate");
    const auto r = measure_phase_cost(emb, n);
    if (n == 4) cycle_cost_n4 = r.makespan;
    t.row("directed cycle", n, emb.guest().num_nodes(), emb.width(),
          emb.dilation(), r.makespan,
          std::string("3") + (n == 6 ? " (+1: n not a power of 2)" : ""));
  }
  {
    const int m = 4;
    const int n = 6;
    const auto copies = repeat_copies(butterfly_multicopy_embedding(m), n);
    const auto emb = [&] {
      HP_PROFILE_SPAN("construct");
      return theorem4_transform(copies);
    }();
    HP_PROFILE_SPAN("simulate");
    const auto r = measure_phase_cost(emb, n);
    report.metric("butterfly_x_cost", r.makespan);
    t.row("sym. butterfly (m=4)", n, emb.guest().num_nodes(), emb.width(),
          emb.dilation(), r.makespan, "c + 8, c = multicopy cost");
  }
  t.print();
  report.metric("cycle_x_cost_n4", cycle_cost_n4);
  report.metric("paper_claimed_cost", 3);
  report.table(t);
}

void BM_Theorem4Cycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto copies = multicopy_directed_cycles(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(theorem4_transform(copies).width());
  }
}
BENCHMARK(BM_Theorem4Cycle)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("transform", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
