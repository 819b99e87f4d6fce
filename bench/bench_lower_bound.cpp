// Experiment E4 (Lemma 3).
//
// The bounds that sandwich Theorems 1 and 2: any width-w (w > 2) embedding
// has dilation ≥ 3, and no cost-3 embedding of the 2^{n+1}-cycle carries
// more than ⌊n/2⌋ packets.  The table shows the constructions sitting at
// (Theorem 2, n ≡ 0 mod 4) or within one of (other n) the bound, plus the
// counting-argument slack: negative slack would disprove a cost-3 claim.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/table.hpp"
#include "core/cycle_multipath.hpp"
#include "core/lower_bounds.hpp"

namespace hyperpath {
namespace {

void print_table(bench::Report& report) {
  bench::Table t("E4: Lemma 3 — width/cost bounds vs achieved",
                 {"n", "bound ⌊n/2⌋", "Thm2 width", "at bound?",
                  "Thm1 dilation (≥3 req)", "Thm1 slack@3", "Thm2 slack@3"});
  long long min_slack = 0;
  bool first = true;
  for (int n : {4, 5, 6, 7, 8, 9, 10, 11, 16}) {
    const auto t1 = [&] {
      HP_PROFILE_SPAN("construct");
      return theorem1_cycle_embedding(n);
    }();
    const auto t2 = theorem2_cycle_embedding(n);
    const int cap = lemma3_max_cost3_packets(n);
    const auto s1 = edge_slot_slack(t1, 3);
    const auto s2 = edge_slot_slack(t2, 3);
    const long long here = std::min<long long>(s1, s2);
    min_slack = first ? here : std::min(min_slack, here);
    first = false;
    t.row(n, cap, t2.width(), t2.width() == cap ? "yes" : "within 1",
          t1.dilation(), s1, s2);
  }
  t.print();
  report.metric("min_slot_slack_at_cost3", min_slack, "steps");
  report.table(t);
}

void BM_SlackAudit(benchmark::State& state) {
  const auto emb = theorem2_cycle_embedding(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(edge_slot_slack(emb, 3));
  }
}
BENCHMARK(BM_SlackAudit)->Arg(8)->Arg(10);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("lower_bound", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
