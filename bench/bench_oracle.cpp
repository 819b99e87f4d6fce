// PathOracle benchmark: algebraic closed-form routing vs the materialized
// pipeline (DESIGN.md §10).
//
// Three claims, each FATAL-gated so CI fails loudly instead of recording a
// regression:
//
//   O1 — the algebraic backend is bit-identical to the materialized one
//        where both exist (sample digests must match at n ≤ 16).
//   O2 — time-to-first-route and peak RSS: the algebraic oracle answers
//        its first route in O(1) state, the materialized pipeline builds
//        every bundle first.  Gates at Q_20: ≥ 10× lower TTFR, ≥ 5× lower
//        RSS (measured margins are orders of magnitude beyond both).
//   O3 — a Q_24 store-and-forward phase runs end to end from the algebraic
//        backend alone, every packet delivered, measured peak congestion
//        at or above the analytic floor (core/lower_bounds), inside a
//        2 GiB RSS budget.
//
// Metric discipline: everything in the metrics section is a deterministic
// algorithmic output (digests, counts, makespans, gate booleans) held to
// exact equality by bench_trend --baseline; wall-clock seconds and RSS
// deltas are machine-dependent and go to record_span timings, which the
// ledger records and bench_trend reports without gating.
//
// RSS note: getrusage's ru_maxrss is a process-lifetime high-water mark,
// so phases are measured as deltas and the algebraic (small) measurements
// run before the materialized (large) ones — growth only registers beyond
// the previous peak, which is exactly the order that keeps every delta
// meaningful.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "bench/table.hpp"
#include "core/algebraic_oracle.hpp"
#include "core/cycle_multipath.hpp"
#include "core/grid_multipath.hpp"
#include "core/lower_bounds.hpp"
#include "embed/path_oracle.hpp"
#include "obs/metrics.hpp"
#include "sim/oracle_sim.hpp"

namespace hyperpath {
namespace {

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double rss_kb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss);  // KiB on Linux
}

/// Sink that counts hops without storing them — the streaming throughput
/// measurement (no allocation per path, like a real RoutePlan consumer).
class CountingSink final : public NodeSink {
 public:
  void push(Node v) override {
    ++nodes_;
    checksum_ ^= v;
  }
  std::uint64_t nodes() const { return nodes_; }
  Node checksum() const { return checksum_; }

 private:
  std::uint64_t nodes_ = 0;
  Node checksum_ = 0;
};

// O1: backend equivalence digests.  The property suite checks every edge
// exhaustively; the bench re-checks a seeded sample on both backends and
// FATALs on digest mismatch, so a broken generator can never publish
// numbers.
void print_equivalence_table(bench::Report& report) {
  bench::Table t("O1: backend equivalence — sampled digests, both backends",
                 {"family", "host", "edges", "paths", "digest", "match"});
  struct Case {
    const char* tag;
    std::function<MultiPathEmbedding()> build;
    std::function<std::unique_ptr<PathOracle>()> oracle;
  };
  const Case cases[] = {
      {"theorem1_n8", [] { return theorem1_cycle_embedding(8); },
       [] { return algebraic_theorem1_oracle(8); }},
      {"theorem1_n16", [] { return theorem1_cycle_embedding(16); },
       [] { return algebraic_theorem1_oracle(16); }},
      {"torus_64x16",
       [] { return grid_multipath_embedding(GridSpec{{64, 16}, true}); },
       [] { return algebraic_grid_oracle(GridSpec{{64, 16}, true}); }},
  };
  for (const Case& c : cases) {
    const auto alg = c.oracle();
    const MultiPathEmbedding emb = c.build();
    const MaterializedOracle mat(emb);
    const OracleSampleReport ra = oracle_sample_check(*alg, 256, 42);
    const OracleSampleReport rm = oracle_sample_check(mat, 256, 42);
    const bool match = ra.node_digest == rm.node_digest &&
                       ra.hops_checked == rm.hops_checked;
    if (!match) {
      std::fprintf(stderr, "FATAL: %s algebraic/materialized digests differ\n",
                   c.tag);
      std::exit(1);
    }
    char digest[20];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(ra.node_digest));
    t.row(c.tag, alg->host_dims(), ra.edges_checked, ra.paths_checked,
          std::string(digest), "yes");
    const std::string tag = c.tag;
    report.metric("digest_hi_" + tag,
                  static_cast<std::uint64_t>(ra.node_digest >> 32));
    report.metric("digest_lo_" + tag,
                  static_cast<std::uint64_t>(ra.node_digest & 0xffffffffull));
    report.metric("equiv_" + tag, 1);
  }
  t.print();
  report.table(t);
}

// O2: time-to-first-route and peak RSS, materialized vs algebraic,
// Q_12..Q_24.  TTFR is cold-start: construct the backend AND answer one
// bundle-path query.  The materialized column at Q_24 would need tens of
// GiB and is skipped — which is the point of the oracle.
void print_ttfr_table(bench::Report& report) {
  bench::Table t("O2: time-to-first-route and peak RSS — mat vs alg",
                 {"host", "mat ms", "alg ms", "ttfr ratio", "mat MB",
                  "alg MB", "rss ratio", "alg Mpaths/s"});
  auto& reg = obs::MetricsRegistry::global();

  struct Case {
    const char* tag;
    int dims;
    GridSpec spec;
    bool materialize;
  };
  const Case cases[] = {
      {"q12", 12, GridSpec{{64, 64}, true}, true},
      {"q16", 16, GridSpec{{256, 256}, true}, true},
      {"q20", 20, GridSpec{{1024, 1024}, true}, true},
      {"q24", 24, GridSpec{{256, 256, 256}, true}, false},
  };

  for (const Case& c : cases) {
    // Algebraic first (RSS ordering, see header comment).
    const double alg_rss0 = rss_kb();
    HostPath first;
    const double s_alg = seconds_of([&] {
      const auto oracle = algebraic_grid_oracle(c.spec);
      const OracleEdge e = oracle->out_edge(0, 0);
      first = oracle->path_vec(e, 0);
    });
    const double alg_rss = rss_kb() - alg_rss0;

    // Streaming throughput: every bundle path of a seeded edge sample.
    const auto oracle = algebraic_grid_oracle(c.spec);
    const auto edges = sample_guest_edges(*oracle, 20000, 11);
    CountingSink sink;
    std::uint64_t paths = 0;
    const double s_stream = seconds_of([&] {
      for (const OracleEdge& e : edges) {
        const int w = oracle->width(e);
        for (int i = 0; i < w; ++i) {
          oracle->path(e, i, sink);
          ++paths;
        }
      }
    });
    const double mpaths = static_cast<double>(paths) / s_stream / 1e6;

    double s_mat = 0.0, mat_rss = 0.0;
    if (c.materialize) {
      const double mat_rss0 = rss_kb();
      s_mat = seconds_of([&] {
        const MultiPathEmbedding emb = grid_multipath_embedding(c.spec);
        const MaterializedOracle mat(emb);
        const OracleEdge e = mat.out_edge(0, 0);
        first = mat.path_vec(e, 0);
      });
      mat_rss = rss_kb() - mat_rss0;
    }
    // A backend whose whole state fits in the page already mapped reads a
    // zero delta; clamp to one page so ratios stay finite.
    const double alg_rss_c = std::max(alg_rss, 4.0);
    const double ttfr_ratio = c.materialize ? s_mat / s_alg : 0.0;
    const double rss_ratio = c.materialize ? mat_rss / alg_rss_c : 0.0;

    t.row(c.tag, c.materialize ? s_mat * 1e3 : 0.0, s_alg * 1e3, ttfr_ratio,
          mat_rss / 1024.0, alg_rss / 1024.0, rss_ratio, mpaths);

    const std::string tag = c.tag;
    reg.record_span("ttfr_alg_" + tag, s_alg);
    reg.record_span("alg_rss_kb_" + tag, alg_rss);
    reg.record_span("alg_mpaths_per_s_" + tag, mpaths);
    if (c.materialize) {
      reg.record_span("ttfr_mat_" + tag, s_mat);
      reg.record_span("mat_rss_kb_" + tag, mat_rss);
      reg.record_span("ttfr_ratio_" + tag, ttfr_ratio);
      reg.record_span("rss_ratio_" + tag, rss_ratio);
    }
    report.metric("stream_paths_" + tag, paths);
    report.metric("stream_nodes_" + tag, sink.nodes());

    if (c.tag == std::string("q20")) {
      const bool ttfr_ok = ttfr_ratio >= 10.0;
      const bool rss_ok = rss_ratio >= 5.0;
      if (!ttfr_ok || !rss_ok) {
        std::fprintf(stderr,
                     "FATAL: Q_20 oracle advantage gate failed "
                     "(ttfr %.1fx, rss %.1fx)\n",
                     ttfr_ratio, rss_ratio);
        std::exit(1);
      }
      report.metric("ttfr_gate_10x_q20", 1);
      report.metric("rss_gate_5x_q20", 1);
    }
  }
  t.print();
  report.table(t);
}

// O3: the acceptance workload — a Q_24 phase end to end from the algebraic
// backend, measured congestion gated against the analytic floor, inside a
// 2 GiB RSS budget.
void print_q24_phase_table(bench::Report& report) {
  bench::Table t("O3: Q_24 phase from the algebraic backend",
                 {"edges", "p", "packets", "makespan", "peak", "floor",
                  "links", "plan MB", "sim s"});
  auto& reg = obs::MetricsRegistry::global();

  const auto oracle = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
  const auto edges = sample_guest_edges(*oracle, 50000, 7);
  const int p = 32;

  const double rss0 = rss_kb();
  OraclePhaseSpec spec;
  spec.packets_per_edge = p;
  OraclePhaseResult r;
  const double s_sim =
      seconds_of([&] { r = run_oracle_phase(*oracle, edges, spec); });
  const double rss_delta = rss_kb() - rss0;
  const OraclePhaseFloor floor = oracle_phase_floor(*oracle, edges, p);

  const std::uint64_t expect =
      static_cast<std::uint64_t>(edges.size()) * static_cast<std::uint64_t>(p);
  if (r.delivered != expect) {
    std::fprintf(stderr, "FATAL: Q_24 phase dropped packets (%llu of %llu)\n",
                 static_cast<unsigned long long>(r.delivered),
                 static_cast<unsigned long long>(expect));
    std::exit(1);
  }
  if (static_cast<std::int64_t>(r.peak_congestion) < floor.floor) {
    std::fprintf(stderr, "FATAL: measured congestion %llu below floor %lld\n",
                 static_cast<unsigned long long>(r.peak_congestion),
                 static_cast<long long>(floor.floor));
    std::exit(1);
  }
  const double budget_kb = 2.0 * 1024 * 1024;  // 2 GiB
  if (rss_delta > budget_kb) {
    std::fprintf(stderr, "FATAL: Q_24 phase RSS delta %.0f KiB over budget\n",
                 rss_delta);
    std::exit(1);
  }

  t.row(edges.size(), p, expect, r.makespan, r.peak_congestion, floor.floor,
        r.unique_links, static_cast<double>(r.compiled_bytes) / 1048576.0,
        s_sim);
  report.metric("q24_makespan", r.makespan);
  report.metric("q24_delivered", r.delivered);
  report.metric("q24_transmissions", r.total_transmissions);
  report.metric("q24_peak_congestion", r.peak_congestion);
  report.metric("q24_floor", floor.floor);
  report.metric("q24_unique_links", r.unique_links);
  report.metric("q24_route_nodes", r.route_nodes);
  report.metric("q24_compiled_bytes", r.compiled_bytes);
  report.metric("q24_congestion_gate", 1);
  report.metric("q24_rss_gate_2gib", 1);
  reg.record_span("q24_phase_sim", s_sim);
  reg.record_span("q24_phase_rss_kb", rss_delta);
  t.print();
  report.table(t);
}

void BM_AlgebraicFirstRoute(benchmark::State& state) {
  const GridSpec spec{{256, 256, 256}, true};
  for (auto _ : state) {
    const auto oracle = algebraic_grid_oracle(spec);
    benchmark::DoNotOptimize(oracle->path_vec(oracle->out_edge(0, 0), 0));
  }
}
BENCHMARK(BM_AlgebraicFirstRoute)->Unit(benchmark::kMicrosecond);

void BM_AlgebraicPathStream(benchmark::State& state) {
  const auto oracle = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
  const auto edges = sample_guest_edges(*oracle, 1024, 3);
  CountingSink sink;
  std::size_t i = 0;
  for (auto _ : state) {
    const OracleEdge& e = edges[i++ % edges.size()];
    oracle->path(e, 0, sink);
    benchmark::DoNotOptimize(sink.checksum());
  }
}
BENCHMARK(BM_AlgebraicPathStream);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("oracle", &argc, argv);
  hyperpath::print_equivalence_table(report);
  hyperpath::print_ttfr_table(report);
  hyperpath::print_q24_phase_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
