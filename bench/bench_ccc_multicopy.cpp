// Experiments E8 and E9 (Theorem 3 and §5.4).
//
// n copies of the n-stage directed CCC in Q_{n + log n}: dilation 1 and
// edge-congestion exactly 2, flat in n — with the per-dimension breakdown
// the proof promises (cross-edges ≤ 1 per link and none on dimension 1;
// straight-edges ≤ 1 except ≤ 2 on dimension 1).  The undirected variant
// stays within congestion 4, and the butterfly inherits multiple copies
// through the CCC with O(1) congestion.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/table.hpp"
#include "ccc/ccc_embed.hpp"
#include "core/tree_multipath.hpp"
#include "sim/phase.hpp"

namespace hyperpath {
namespace {

void print_table(bench::Report& report) {
  {
    bench::Table t("E8: Theorem 3 — n-copy CCC embeddings",
                   {"n (stages)", "host dims", "copies", "dilation",
                    "edge congestion (paper: 2)", "max dim-1 congestion",
                    "1-pkt phase cost"});
    int worst_congestion = 0;
    for (int n : {2, 4, 8}) {
      const auto emb = [&] {
        HP_PROFILE_SPAN("construct");
        return ccc_multicopy_embedding(n);
      }();
      const auto cong = emb.congestion_per_link();
      std::uint32_t dim1 = 0;
      const Hypercube& q = emb.host();
      for (Node v = 0; v < q.num_nodes(); ++v) {
        dim1 = std::max(dim1, cong[q.edge_id(v, 1)]);
      }
      HP_PROFILE_SPAN("simulate");
      const auto r = measure_phase_cost(emb, 1);
      worst_congestion = std::max(worst_congestion, emb.edge_congestion());
      t.row(n, emb.host().dims(), emb.num_copies(), emb.dilation(),
            emb.edge_congestion(), dim1, r.makespan);
    }
    t.print();
    report.metric("directed_ccc_worst_congestion", worst_congestion);
    report.metric("paper_claimed_congestion", 2);
    report.table(t);
  }
  {
    bench::Table t(
        "E8b: Lemma 4 for general n — dilation 1 (even) / 2 (odd)",
        {"n (stages)", "host dims", "dilation", "paper claim"});
    int worst_dilation = 0;
    for (int n : {3, 5, 6, 7, 9, 12}) {
      const auto emb = [&] {
        HP_PROFILE_SPAN("construct");
        return ccc_single_embedding_general(n);
      }();
      worst_dilation = std::max(worst_dilation, emb.dilation());
      t.row(n, emb.host().dims(), emb.dilation(),
            n % 2 == 0 ? "1 (even)" : "2 (odd)");
    }
    t.print();
    report.metric("lemma4_worst_dilation", worst_dilation);
    report.table(t);
  }
  {
    bench::Table t("E9: §5.4 extensions — undirected CCC and butterfly copies",
                   {"network", "n", "copies", "dilation",
                    "congestion (paper bound)"});
    int und_worst = 0, bf_worst = 0;
    for (int n : {4, 8}) {
      const auto und = [&] {
        HP_PROFILE_SPAN("construct");
        return ccc_multicopy_embedding_undirected(n);
      }();
      und_worst = std::max(und_worst, und.edge_congestion());
      t.row("undirected CCC", n, und.num_copies(), und.dilation(),
            std::to_string(und.edge_congestion()) + " (<=4)");
    }
    for (int m : {4, 8}) {
      const auto bf = [&] {
        HP_PROFILE_SPAN("construct");
        return butterfly_multicopy_embedding(m);
      }();
      bf_worst = std::max(bf_worst, bf.edge_congestion());
      t.row("sym. butterfly", m, bf.num_copies(), bf.dilation(),
            std::to_string(bf.edge_congestion()) + " (O(1), <=8)");
    }
    t.print();
    report.metric("undirected_ccc_worst_congestion", und_worst);
    report.metric("butterfly_worst_congestion", bf_worst);
    report.table(t);
  }
}

void BM_CccMulticopyConstruct(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ccc_multicopy_embedding(n).num_copies());
  }
}
BENCHMARK(BM_CccMulticopyConstruct)->Arg(4)->Arg(8);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("ccc_multicopy", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
