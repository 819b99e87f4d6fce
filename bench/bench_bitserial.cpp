// Experiment E12 (Section 7: bit-serial permutation routing).
//
// Random permutations of M-flit messages on Q_{n + log n}:
//
//   * store-and-forward on e-cube routes: each queueing point can hold a
//     message for Θ(M) steps — completion grows like n·M;
//   * whole-message wormhole through one CCC copy: serialization on shared
//     CCC links again costs Θ(M) per conflict;
//   * the paper's scheme: split each message into n pieces of M/n flits and
//     route piece k through copy k of Theorem 3's CCC embedding —
//     completion drops to O(M).
#include <benchmark/benchmark.h>

#include "bench/table.hpp"
#include "core/bitserial.hpp"
#include "core/transform.hpp"
#include "core/tree_multipath.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {
namespace {

int store_forward_makespan(int dims, const Pattern& pattern, int flits) {
  // Message-granularity store-and-forward: a whole M-flit message must be
  // received before it is forwarded, so every link transfer costs M steps.
  // The queueing structure is that of one packet per message; the makespan
  // scales by M (the Θ(nM) behaviour Section 7 describes).
  StoreForwardSim sim(dims);
  std::vector<Packet> packets;
  const Hypercube q(dims);
  for (Node v = 0; v < pattern.size(); ++v) {
    if (pattern[v] == v) continue;
    Packet p;
    p.route = ecube_route(q, v, pattern[v]);
    packets.push_back(std::move(p));
  }
  return sim.run(packets).makespan * flits;
}

void print_table(bench::Report& report) {
  const int stages = 8;  // CCC_8 in Q_11
  const auto emb = [&] {
    HP_PROFILE_SPAN("construct");
    return ccc_multicopy_embedding(stages);
  }();
  const int dims = emb.host().dims();
  WormholeSim worm(dims);
  Rng rng(42);
  const auto pattern = random_permutation_pattern(dims, rng);

  bench::Table t(
      "E12a: §7 — M-flit random permutation on Q_11 (CCC_8 copies)",
      {"M", "store&forward e-cube", "wormhole 1 CCC copy",
       "wormhole n-split (paper: O(M))", "split speed-up vs 1 copy"});
  HP_PROFILE_SPAN("simulate");
  double speedup_at_1024 = 0.0;
  for (int m : {16, 64, 256, 1024}) {
    const int sf = store_forward_makespan(dims, pattern, m);
    const int single =
        worm.run(ccc_single_copy_worms(emb, 0, pattern, m)).makespan;
    const int split = worm.run(ccc_split_worms(emb, pattern, m)).makespan;
    if (m == 1024) speedup_at_1024 = static_cast<double>(single) / split;
    t.row(m, sf, single, split, static_cast<double>(single) / split);
  }
  t.print();
  report.param("stages", stages);
  report.metric("split_speedup_m1024", speedup_at_1024, "ratio");
  report.table(t);
}

// The two-phase X(butterfly) router (end of §7): messages between X
// vertices take a row butterfly then a column butterfly, each X hop split
// across the width-n bundles.
void print_two_phase_table(bench::Report& report) {
  const int m = 4;
  const int n = 6;  // m + log m
  const auto copies = [&] {
    HP_PROFILE_SPAN("construct");
    return repeat_copies(butterfly_multicopy_embedding(m), n);
  }();
  const auto x = theorem4_transform(copies);
  WormholeSim worm(x.host().dims());
  Rng rng(77);

  bench::Table t(
      "E12b: §7 — two-phase routing on X(butterfly), Q_12, 64 messages",
      {"M", "split worms", "makespan", "makespan / M"});
  HP_PROFILE_SPAN("simulate");
  double last_ratio = 0.0;
  // A partial permutation: 64 random disjoint source→dest pairs.
  for (int mflits : {24, 96, 384}) {
    Pattern pattern(x.guest().num_nodes());
    for (Node v = 0; v < pattern.size(); ++v) pattern[v] = v;
    auto nodes = rng.permutation(static_cast<std::uint32_t>(pattern.size()));
    for (int i = 0; i < 128; i += 2) pattern[nodes[i]] = nodes[i + 1];
    const auto worms = x_two_phase_worms(m, x, copies, pattern, mflits);
    const auto r = worm.run(worms);
    last_ratio = static_cast<double>(r.makespan) / mflits;
    t.row(mflits, worms.size(), r.makespan, last_ratio);
  }
  t.print();
  report.metric("two_phase_makespan_per_flit_m384", last_ratio, "ratio");
  report.table(t);
}

void BM_SplitRouting(benchmark::State& state) {
  const auto emb = ccc_multicopy_embedding(4);
  Rng rng(3);
  const auto pattern = random_permutation_pattern(emb.host().dims(), rng);
  WormholeSim sim(emb.host().dims());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.run(ccc_split_worms(emb, pattern, 64)).makespan);
  }
}
BENCHMARK(BM_SplitRouting);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("bitserial", &argc, argv);
  hyperpath::print_table(report);
  hyperpath::print_two_phase_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
