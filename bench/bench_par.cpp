// Infrastructure benchmark: the work-stealing parallel layer (src/par)
// under the PR's acceptance workloads — Theorem-1 on Q_16 and the
// Corollary-1 torus product on Q_14 (128×128).
//
// Not a paper experiment — this measures the library itself: construction
// and verification wall-clock serial (threads=1 PoolScope) vs parallel
// (threads=8 PoolScope), plus the fused metrics() sweep against the four
// legacy single-metric re-walks.  Every metric in the report is a
// deterministic output (metric values, congestion checksums, and
// serial==parallel equality flags, which the determinism contract pins to
// 1) and is held to exact equality by the baseline CI gate;
// wall-clock — and with it any speedup, which depends on the host's core
// count — goes into the timings section only.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>

#include "bench/table.hpp"
#include "core/cycle_multipath.hpp"
#include "core/grid_multipath.hpp"
#include "embed/embedding.hpp"
#include "par/task_pool.hpp"

namespace hyperpath {
namespace {

constexpr int kParThreads = 8;

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t checksum(const std::vector<std::uint32_t>& v) {
  // Order-sensitive FNV-1a so any per-link difference, including a swap,
  // changes the value.
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint32_t x : v) {
    h ^= x;
    h *= 1099511628211ull;
  }
  return h;
}

struct Workload {
  const char* name;   // metric key suffix
  const char* label;  // table row label
  std::function<MultiPathEmbedding()> make;
};

std::vector<Workload> workloads() {
  return {
      {"t1_q16", "Theorem 1, Q_16",
       [] { return theorem1_cycle_embedding(16); }},
      {"c1_q14", "Corollary 1 torus 128x128, Q_14",
       [] { return grid_multipath_embedding(GridSpec{{128, 128}, true}); }},
  };
}

void print_construct_verify_table(bench::Report& report) {
  // P1: construction (which internally verifies) and a standalone
  // re-verification, serial vs kParThreads-way.  The embeddings themselves
  // must be bit-identical — checked field by field here, not just assumed.
  bench::Table t("P1: construction + verification — serial vs parallel pool",
                 {"workload", "edges", "construct s1 ms",
                  "construct p8 ms", "speedup", "verify s1 ms",
                  "verify p8 ms", "speedup", "identical"});
  auto& reg = obs::MetricsRegistry::global();
  for (const auto& w : workloads()) {
    par::TaskPool pool1(1), poolN(kParThreads);

    MultiPathEmbedding serial = [&] {
      par::PoolScope scope(pool1);
      return w.make();
    }();
    double s_construct1 = 0, s_constructN = 0;
    {
      par::PoolScope scope(pool1);
      s_construct1 = seconds_of([&] { w.make(); });
    }
    std::optional<MultiPathEmbedding> parallel_opt;
    {
      par::PoolScope scope(poolN);
      s_constructN = seconds_of([&] { parallel_opt.emplace(w.make()); });
    }
    const MultiPathEmbedding& parallel = *parallel_opt;

    double s_verify1 = 0, s_verifyN = 0;
    {
      par::PoolScope scope(pool1);
      s_verify1 = seconds_of([&] { serial.verify_or_throw(); });
    }
    {
      par::PoolScope scope(poolN);
      s_verifyN = seconds_of([&] { parallel.verify_or_throw(); });
    }

    bool identical = serial.guest().num_edges() == parallel.guest().num_edges();
    for (Node v = 0; identical && v < serial.guest().num_nodes(); ++v) {
      identical = serial.host_of(v) == parallel.host_of(v);
    }
    for (std::size_t e = 0; identical && e < serial.guest().num_edges();
         ++e) {
      const auto pa = serial.paths(e);
      const auto pb = parallel.paths(e);
      identical = pa.size() == pb.size();
      for (std::size_t j = 0; identical && j < pa.size(); ++j) {
        identical = pa[j] == pb[j];
      }
    }
    if (!identical) {
      std::fprintf(stderr, "FATAL: parallel construction diverged on %s\n",
                   w.name);
      std::exit(1);
    }

    t.row(w.label, serial.guest().num_edges(), s_construct1 * 1e3,
          s_constructN * 1e3, s_construct1 / s_constructN, s_verify1 * 1e3,
          s_verifyN * 1e3, s_verify1 / s_verifyN, 1);

    const std::string key(w.name);
    reg.record_span("construct_serial_" + key, s_construct1);
    reg.record_span("construct_par8_" + key, s_constructN);
    reg.record_span("verify_serial_" + key, s_verify1);
    reg.record_span("verify_par8_" + key, s_verifyN);
    report.metric("identical_" + key, 1);
    report.metric("edges_" + key, serial.guest().num_edges());
  }
  t.print();
  report.table(t);
}

void print_metrics_table(bench::Report& report) {
  // P2: the fused metrics() sweep against the four legacy single-metric
  // accessors (each a full re-walk), serial and parallel.  The fused sweep
  // wins even at threads=1 — one pass instead of four.
  bench::Table t("P2: fused metric sweep vs four single-metric re-walks",
                 {"workload", "4-pass s1 ms", "fused s1 ms", "speedup",
                  "fused p8 ms", "speedup vs 4-pass", "congestion",
                  "checksum ok"});
  auto& reg = obs::MetricsRegistry::global();
  for (const auto& w : workloads()) {
    const MultiPathEmbedding emb = w.make();
    par::TaskPool pool1(1), poolN(kParThreads);

    int load = 0, dilation = 0, width = 0, congestion = 0;
    double s_four = 0;
    {
      par::PoolScope scope(pool1);
      s_four = seconds_of([&] {
        load = emb.load();
        dilation = emb.dilation();
        width = emb.width();
        congestion = emb.congestion();
      });
    }
    EmbeddingMetrics fused1, fusedN;
    double s_fused1 = 0, s_fusedN = 0;
    {
      par::PoolScope scope(pool1);
      s_fused1 = seconds_of([&] { fused1 = emb.metrics(); });
    }
    {
      par::PoolScope scope(poolN);
      s_fusedN = seconds_of([&] { fusedN = emb.metrics(); });
    }

    const bool agree = fused1.load == load && fused1.dilation == dilation &&
                       fused1.width == width &&
                       fused1.congestion == congestion &&
                       fused1.load == fusedN.load &&
                       fused1.dilation == fusedN.dilation &&
                       fused1.width == fusedN.width &&
                       fused1.congestion == fusedN.congestion &&
                       fused1.congestion_per_link == fusedN.congestion_per_link;
    if (!agree) {
      std::fprintf(stderr, "FATAL: metric passes disagree on %s\n", w.name);
      std::exit(1);
    }

    t.row(w.label, s_four * 1e3, s_fused1 * 1e3, s_four / s_fused1,
          s_fusedN * 1e3, s_four / s_fusedN, congestion, 1);

    const std::string key(w.name);
    reg.record_span("metrics_four_pass_" + key, s_four);
    reg.record_span("metrics_fused_serial_" + key, s_fused1);
    reg.record_span("metrics_fused_par8_" + key, s_fusedN);
    report.metric("load_" + key, fused1.load);
    report.metric("dilation_" + key, fused1.dilation);
    report.metric("width_" + key, fused1.width);
    report.metric("congestion_" + key, fused1.congestion);
    report.metric("congestion_checksum_" + key,
                  checksum(fused1.congestion_per_link));
    report.metric("metrics_agree_" + key, 1);
  }
  t.print();
  report.table(t);
}

void print_pool_table(bench::Report& report) {
  // P3: pool accounting for one parallel verification region — how many
  // tasks ran and how much total worker time the region consumed.  Steal
  // counts are scheduling artifacts (nondeterministic), so they appear here
  // and in the timings only, never as gated metrics.
  bench::Table t("P3: pool accounting (threads=8 verification region)",
                 {"workload", "regions", "tasks", "steals", "busy ms"});
  auto& reg = obs::MetricsRegistry::global();
  for (const auto& w : workloads()) {
    const MultiPathEmbedding emb = w.make();
    par::TaskPool pool(kParThreads);
    par::PoolScope scope(pool);
    emb.verify_or_throw();
    const auto s = pool.stats();
    double busy = 0;
    for (double b : s.busy_seconds) busy += b;
    t.row(w.label, s.regions, s.tasks, s.steals, busy * 1e3);
    reg.record_span("pool_busy_" + std::string(w.name), busy);
  }
  t.print();
  report.table(t);
  report.metric("pool_threads", kParThreads);
}

void BM_VerifySerial(benchmark::State& state) {
  const auto emb = theorem1_cycle_embedding(16);
  par::TaskPool pool(1);
  par::PoolScope scope(pool);
  for (auto _ : state) emb.verify_or_throw();
}
BENCHMARK(BM_VerifySerial)->Unit(benchmark::kMillisecond);

void BM_VerifyParallel(benchmark::State& state) {
  const auto emb = theorem1_cycle_embedding(16);
  par::TaskPool pool(static_cast<int>(state.range(0)));
  par::PoolScope scope(pool);
  for (auto _ : state) emb.verify_or_throw();
}
BENCHMARK(BM_VerifyParallel)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_FusedMetrics(benchmark::State& state) {
  const auto emb = theorem1_cycle_embedding(16);
  par::TaskPool pool(static_cast<int>(state.range(0)));
  par::PoolScope scope(pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(emb.metrics().congestion);
  }
}
BENCHMARK(BM_FusedMetrics)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("par", &argc, argv);
  hyperpath::print_construct_verify_table(report);
  hyperpath::print_metrics_table(report);
  hyperpath::print_pool_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
