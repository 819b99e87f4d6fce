// Experiment E13 (Corollary 3, Lemma 9, §8.2 comparison).
//
// Large-copy embeddings: dilation-1, congestion ≤ 2 packings that use every
// link without forwarding, at the price of load n — and the §8.2
// three-family comparison for cycle workloads.
#include <benchmark/benchmark.h>

#include "bench/table.hpp"
#include "core/cycle_multipath.hpp"
#include "core/largecopy.hpp"
#include "embed/classical.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

void print_table(bench::Report& report) {
  {
    bench::Table t("E13a: large-copy embeddings (Corollary 3, Lemma 9)",
                   {"guest", "n", "guest nodes", "load", "dilation",
                    "congestion", "1-pkt cost", "link util"});
    double cycle_util_at_8 = 0.0;
    for (int n : {4, 6, 8}) {
      const auto cyc = [&] {
        HP_PROFILE_SPAN("construct");
        return largecopy_directed_cycle(n);
      }();
      const auto r = measure_phase_cost(cyc, 1);
      const double util =
          r.utilization.empty() ? 0.0 : r.utilization.profile()[0];
      if (n == 8) cycle_util_at_8 = util;
      t.row("directed cycle", n, cyc.guest().num_nodes(), cyc.load(),
            cyc.dilation(), cyc.congestion(), r.makespan, util);
    }
    for (int n : {4, 6}) {
      const auto ccc = [&] {
        HP_PROFILE_SPAN("construct");
        return largecopy_ccc(n);
      }();
      const auto r = measure_phase_cost(ccc, 1);
      t.row("CCC", n, ccc.guest().num_nodes(), ccc.load(), ccc.dilation(),
            ccc.congestion(), r.makespan,
            r.utilization.empty() ? 0.0 : r.utilization.profile()[0]);
      const auto bf = largecopy_butterfly(n);
      t.row("butterfly", n, bf.guest().num_nodes(), bf.load(), bf.dilation(),
            bf.congestion(), measure_phase_cost(bf, 1).makespan, "");
      const auto fft = largecopy_fft(n);
      t.row("FFT", n, fft.guest().num_nodes(), fft.load(), fft.dilation(),
            fft.congestion(), measure_phase_cost(fft, 1).makespan, "");
    }
    t.print();
    report.metric("directed_cycle_util_q8", cycle_util_at_8, "ratio");
    report.table(t);
  }
  {
    // §8.2: three ways to run cycle traffic with m packets per guest edge.
    const int n = 8;
    bench::Table t(
        "E13b: §8.2 comparison — cycle traffic on Q_8, m packets/edge",
        {"method", "guest nodes", "load", "m", "steps", "forwarding?"});
    const auto multi = theorem1_cycle_embedding(n);
    const auto kcopy = multicopy_directed_cycles(n);
    const auto large = largecopy_directed_cycle(n);
    HP_PROFILE_SPAN("simulate");
    int multi_steps_16 = 0, large_steps_16 = 0;
    for (int m : {4, 16}) {
      StoreForwardSim sim(n);
      const int s_multi = sim.run(theorem1_schedule_packets(multi, m)).makespan;
      const int s_large = measure_phase_cost(large, m).makespan;
      if (m == 16) {
        multi_steps_16 = s_multi;
        large_steps_16 = s_large;
      }
      t.row("multipath (Thm 1)", multi.guest().num_nodes(), multi.load(), m,
            s_multi, "yes (3-step paths)");
      t.row("multicopy (Lem 1)", kcopy.guest().num_nodes(), "n", m,
            measure_phase_cost(kcopy.multipath(), m).makespan, "no");
      t.row("large-copy (Cor 3)", large.guest().num_nodes(), large.load(), m,
            s_large, "no");
    }
    t.print();
    report.metric("multipath_steps_m16", multi_steps_16, "steps");
    report.metric("largecopy_steps_m16", large_steps_16, "steps");
    report.table(t);
  }
}

void BM_LargeCopyCycle(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(largecopy_directed_cycle(8).load());
  }
}
BENCHMARK(BM_LargeCopyCycle);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("largecopy", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
