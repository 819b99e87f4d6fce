// Experiment E5 (Corollaries 1–2, Section 4.5).
//
// k-axis grids and tori via cross products of Theorem 1 embeddings: width
// ⌊⌈log L⌉/2⌋ (2⌊a/4⌋+1 paths built per axis), cost 3, expansion from
// per-axis power-of-two rounding.  The paper's grid-squaring route to O(1)
// expansion for unequal sides is substituted by rounding (see DESIGN.md;
// the paper itself lists unequal sides as open in Section 9).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench/table.hpp"
#include "core/grid_multipath.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

std::string spec_name(const GridSpec& s) {
  std::string out;
  for (std::size_t i = 0; i < s.sides.size(); ++i) {
    if (i) out += "x";
    out += std::to_string(s.sides[i]);
  }
  return out + (s.wrap ? " torus" : " grid");
}

void print_table(bench::Report& report) {
  bench::Table t("E5: grid/torus multipath embeddings (Corollary 1)",
                 {"guest", "host dims", "width", "load", "expansion",
                  "cost@⌊a/2⌋ pkts (paper: 3)"});
  const std::vector<GridSpec> specs = {
      {{16, 16}, true},   {{16, 16}, false},  {{32, 32}, true},
      {{16, 16, 16}, true}, {{10, 16}, false}, {{20, 30}, false},
  };
  int built = 0, worst_cost = 0;
  double worst_expansion = 0;
  for (const auto& spec : specs) {
    if (!grid_multipath_supported(spec)) continue;
    const auto emb = [&] {
      HP_PROFILE_SPAN("construct");
      return grid_multipath_embedding(spec);
    }();
    HP_PROFILE_SPAN("simulate");
    const auto r = measure_phase_cost(emb, 2);
    ++built;
    worst_cost = std::max(worst_cost, r.makespan);
    worst_expansion = std::max(worst_expansion, emb.expansion());
    t.row(spec_name(spec), emb.host().dims(), emb.width(), emb.load(),
          emb.expansion(), r.makespan);
  }
  t.print();
  report.param("specs", static_cast<int>(specs.size()));
  report.param("packets_per_edge", 2);
  report.metric("embeddings_built", built);
  report.metric("worst_phase_cost", worst_cost);
  report.metric("worst_expansion", worst_expansion);
  report.table(t);
}

void BM_GridConstruct(benchmark::State& state) {
  const GridSpec spec{{16, 16}, true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid_multipath_embedding(spec).width());
  }
}
BENCHMARK(BM_GridConstruct);

void BM_GridPhase(benchmark::State& state) {
  const auto emb = grid_multipath_embedding(GridSpec{{16, 16}, true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_phase_cost(emb, 2).makespan);
  }
}
BENCHMARK(BM_GridPhase);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("grids", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
