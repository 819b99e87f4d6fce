// Experiment E6 (Section 2 grid relaxation + Section 8.3 mapping choices).
//
// An M×M grid relaxation runs on an N×N process torus (N² hypercube
// nodes); each process exchanges its M/N boundary values with neighbors
// every step.  The paper's claim is asymptotic: Θ(M/(N log N)) per phase
// for the multipath mapping vs Θ(M/N) classical — a Θ(log N) speed-up.
//
// What is measurable at laptop scale: the multipath cost per packet is
// ≈ 3/w with w = ⌊log N/2⌋-ish paths per edge (≈ 6/w when both directions
// of every axis are active, since reverse traffic reuses the same detour
// dimensions), while the Gray-code cost per packet is a constant 1.  The
// table reports both absolute steps and the normalized cost·w product,
// which is flat — the Θ(1/ log N) trend — and the crossover prediction:
// multipath wins outright once w > 6 (bidirectional) or w > 3
// (unidirectional sweeps, e.g. wavefront relaxations), i.e. at larger N
// than a 2^24-node simulation can hold.  The unidirectional rows already
// show multipath ahead at N = 256.
#include <benchmark/benchmark.h>

#include "bench/table.hpp"
#include "core/grid_multipath.hpp"
#include "embed/classical.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

void print_table(bench::Report& report) {
  {
    bench::Table t(
        "E6a: unidirectional sweep (wavefront) — steps per phase",
        {"N per side", "w", "M/N pkts", "gray steps", "multipath steps",
         "speed-up", "steps·w/pkts (≈3, flat)"});
    double last_norm_cost = 0.0;
    for (int a : {4, 6, 8}) {  // N = 2^a per side
      const Node n_side = Node{1} << a;
      const GridSpec spec{{n_side, n_side}, true};
      if (!grid_multipath_supported(spec)) continue;
      const auto multi = [&] {
        HP_PROFILE_SPAN("construct");
        return grid_multipath_embedding(spec);
      }();
      const int w = multi.width();
      HP_PROFILE_SPAN("simulate");
      // Gray unidirectional: same directed guest, width-1 direct links.
      for (int mn : {8, 32}) {
        const int gray_steps = mn;  // dedicated link per edge serializes
        const int ms = measure_phase_cost(multi, mn).makespan;
        last_norm_cost = static_cast<double>(ms) * w / mn;
        t.row(static_cast<int>(n_side), w, mn, gray_steps, ms,
              static_cast<double>(gray_steps) / ms, last_norm_cost);
      }
    }
    t.print();
    report.metric("unidir_norm_cost_largest", last_norm_cost);
    report.table(t);
  }
  {
    bench::Table t(
        "E6b: full 4-neighbor exchange — steps per phase",
        {"N per side", "M/N pkts", "gray steps", "multipath steps (2 dirs)",
         "norm. cost·w/(6·pkts)", "crossover (needs w>6 ⇒ N≥2^13)"});
    for (int a : {4, 5}) {
      const Node n_side = Node{1} << a;
      const GridSpec spec{{n_side, n_side}, true};
      if (!grid_multipath_supported(spec)) continue;
      const auto multi = [&] {
        HP_PROFILE_SPAN("construct");
        return grid_multipath_embedding(spec);
      }();
      const auto gray = gray_code_grid_embedding(spec);
      const int w = multi.width();
      HP_PROFILE_SPAN("simulate");
      for (int mn : {16, 64}) {
        const int gray_steps = measure_phase_cost(gray, mn).makespan;
        const int ms = 2 * measure_phase_cost(multi, mn).makespan;
        t.row(static_cast<int>(n_side), mn, gray_steps, ms,
              static_cast<double>(ms) * w / (6.0 * mn),
              w > 6 ? "yes" : "not yet");
      }
    }
    t.print();
    report.table(t);
  }
  std::printf(
      "Section 8.3 traffic totals (analytic): point-per-process large-copy "
      "O(M^2); blocked multipath O(MN); blocked large-copy O(MN log N).\n\n");
}

void BM_RelaxPhaseGray(benchmark::State& state) {
  const auto gray = gray_code_grid_embedding(GridSpec{{16, 16}, true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_phase_cost(gray, 16).makespan);
  }
}
BENCHMARK(BM_RelaxPhaseGray);

void BM_RelaxPhaseMultipath(benchmark::State& state) {
  const auto multi = grid_multipath_embedding(GridSpec{{16, 16}, true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_phase_cost(multi, 16).makespan);
  }
}
BENCHMARK(BM_RelaxPhaseMultipath);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("relaxation", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
