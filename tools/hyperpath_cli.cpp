// hyperpath command-line inspector.
//
//   hyperpath_cli cycle <n>             Theorem 1/2 metrics + measured costs
//   hyperpath_cli grid  <torus|grid> <side>...   grid embedding metrics
//   hyperpath_cli ccc   <n>             Theorem 3 multicopy metrics
//   hyperpath_cli decomp <n>            Hamiltonian decomposition summary
//   hyperpath_cli moments <n>           moment table of Q_n
//   hyperpath_cli faults <n> <count> [seed]   fault-tolerance snapshot
//   hyperpath_cli faults replay <schedule-file> [...]   timed-fault replay
//   hyperpath_cli campaign <n> [...]    Monte-Carlo reliability campaign
//   hyperpath_cli trace <cycle|grid|ccc> ...  traced phase simulation
//   hyperpath_cli analyze <trace.jsonl> ...   offline trace analytics
//   hyperpath_cli watch <telemetry.jsonl> ... live telemetry dashboard
//
// The global `--threads N` (or `--threads=N`) flag, accepted anywhere on
// the command line, sizes the process-wide par::TaskPool — overriding the
// HYPERPATH_THREADS environment variable — and thereby every parallel
// construction/verification pass and the parallel simulator's shard count.
//
// `campaign` fans a seeded Monte-Carlo fault campaign (sim/montecarlo.hpp)
// across the process pool: every trial draws its own randomized timed
// fault schedule and runs sender-side recovery over the Theorem 1 cycle
// embedding on Q_n (or the width-1 Gray baseline with --gray).  The
// campaign digest printed at the end is bit-identical at every --threads
// value and under any --begin/--end partition of the trial range — CI
// gates on exactly that.  Flags: --trials T, --seed S, --begin/--end
// (trial subrange of [0,T)), --rate R (link-fault intensity), --node-rate,
// --window, --transient F, --timeout s, --retries k, --threshold m,
// --sweep r1,r2,... (reliability envelope; prints the critical rate where
// delivery drops below --min-delivery, default 0.99), --json [FILE].
//
// `faults replay` parses a FaultSchedule text file (see
// sim/faults.hpp: `dims N` header, then `<step> link-down|link-up|
// node-down|node-up <u> [<v>]` lines) and replays one Theorem 1 cycle
// phase on Q_dims under that schedule with sender-side recovery —
// timeout detection, failover onto surviving bundle paths, bounded
// retries.  Flags: --timeout s, --retries k, --threshold m (default
// w-1, i.e. IDA dispersal; 0 = all fragments required), --json [FILE].
//
// The trace subcommand runs one phase of the chosen embedding through the
// store-and-forward simulator with a streaming JSONL trace sink attached:
//
//   hyperpath_cli trace cycle 8 [p] [--trace t.jsonl] [--json summary.json]
//   hyperpath_cli trace grid torus 16 16 [--packets p] [...]
//   hyperpath_cli trace ccc 4 [p] [...]
//
// It dumps the step-level trace (default TRACE_<kind>.jsonl, prefixed with
// a {"kind":"meta",...} header recording the host dimension), prints a
// per-dimension link-utilization summary plus the latency histogram, and
// with --json writes a machine-readable {experiment, params, metrics,
// timings} record.  The construction-phase profiler runs throughout and a
// chrome://tracing span timeline lands in CHROME_TRACE_<kind>.json (or
// --chrome FILE); load it at chrome://tracing or ui.perfetto.dev.
//
// The analyze subcommand (same driver as the standalone trace_query
// binary, see tools/analyze_driver.hpp) consumes such a trace offline:
// flight-record reassembly, latency percentiles, critical path, blame
// report, queue-depth heatmap CSV and a JSON summary that reproduces the
// SimResult makespan/delivery counts from the trace alone.
//
// A quick way to poke at the library without writing code.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/moment.hpp"
#include "ccc/ccc_embed.hpp"
#include "core/algebraic_oracle.hpp"
#include "core/cycle_multipath.hpp"
#include "core/grid_multipath.hpp"
#include "embed/classical.hpp"
#include "hamdecomp/decomposition.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "par/task_pool.hpp"
#include "sim/faults.hpp"
#include "sim/montecarlo.hpp"
#include "sim/phase.hpp"
#include "sim/recovery.hpp"

#include "analyze_driver.hpp"
#include "parse_number.hpp"
#include "watch_driver.hpp"

namespace hyperpath {
namespace {

using tools::parse_number;

// Bounds of the numeric reads shared by several subcommands: a grid side
// fits a Q_30 host, and route and bundle-path counts fit 32 bits.
constexpr Node kMaxSide = Node{1} << 30;
constexpr long long kMaxU32LL = UINT32_MAX;

int cmd_cycle(int n) {
  if (!cycle_multipath_supported(n)) {
    std::fprintf(stderr, "n = %d unsupported (need ⌊n/4⌋ a power of two)\n",
                 n);
    return 1;
  }
  const auto t1 = theorem1_cycle_embedding(n);
  std::printf("Theorem 1 (2^%d-cycle): width %d, dilation %d, load %d, "
              "congestion %d\n",
              n, t1.width(), t1.dilation(), t1.load(), t1.congestion());
  std::printf("  ⌊n/2⌋-packet cost: %d\n",
              measure_phase_cost(t1, n / 2).makespan);
  const auto t2 = theorem2_cycle_embedding(n);
  std::printf("Theorem 2 (2^%d-cycle): width %d, dilation %d, load %d\n",
              n + 1, t2.width(), t2.dilation(), t2.load());
  const auto r = measure_phase_cost(t2, t2.width());
  std::printf("  w-packet cost: %d, link utilization:", r.makespan);
  for (double u : r.utilization.profile()) std::printf(" %.3f", u);
  std::printf("\n");
  return 0;
}

int cmd_grid(int argc, char** argv) {
  const auto usage = [] {
    std::fprintf(stderr, "usage: grid <torus|grid> <side>...\n");
    return 1;
  };
  if (argc < 2) return usage();
  GridSpec spec;
  spec.wrap = !std::strcmp(argv[0], "torus");
  for (int i = 1; i < argc; ++i) {
    Node side = 0;
    if (!parse_number("grid <side>", argv[i], Node{1}, kMaxSide, side)) {
      return usage();
    }
    spec.sides.push_back(side);
  }
  if (!grid_multipath_supported(spec)) {
    std::fprintf(stderr, "unsupported grid spec\n");
    return 1;
  }
  const auto emb = grid_multipath_embedding(spec);
  std::printf("%s in Q_%d: width %d, dilation %d, load %d, expansion %.3g\n",
              spec.wrap ? "torus" : "grid", emb.host().dims(), emb.width(),
              emb.dilation(), emb.load(), emb.expansion());
  std::printf("  2-packet phase cost: %d\n",
              measure_phase_cost(emb, 2).makespan);
  return 0;
}

// route: print bundle paths for one guest edge straight from the algebraic
// oracle — no embedding is ever materialized, so Q_24+ hosts answer
// instantly.  --verify-sample K additionally runs the sampling-verification
// contract (endpoints, host adjacency, declared lengths, edge-disjointness)
// over K seeded random guest edges.
int cmd_route(int argc, char** argv) {
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: route <cycle N | torus SIDE... | grid SIDE... | "
                 "largecopy N>\n"
                 "             [--edge FROM[,TO]] [--path I] "
                 "[--verify-sample K] [--seed S]\n");
    return 1;
  };
  if (argc < 2) return usage();

  std::unique_ptr<PathOracle> oracle;
  const std::string fam = argv[0];
  int i = 1;
  if (fam == "cycle") {
    int n = 0;
    if (!parse_number("route cycle <n>", argv[i++], 1, 30, n)) return usage();
    if (!cycle_multipath_supported(n)) {
      std::fprintf(stderr, "n = %d unsupported (need ⌊n/4⌋ a power of two)\n",
                   n);
      return 1;
    }
    oracle = algebraic_theorem1_oracle(n);
  } else if (fam == "largecopy") {
    int n = 0;
    if (!parse_number("route largecopy <n>", argv[i++], 2, 15, n)) {
      return usage();
    }
    oracle = algebraic_largecopy_oracle(n);
  } else if (fam == "torus" || fam == "grid") {
    GridSpec spec;
    spec.wrap = fam == "torus";
    while (i < argc && argv[i][0] != '-') {
      Node side = 0;
      if (!parse_number("route <side>", argv[i++], Node{1}, kMaxSide, side)) {
        return usage();
      }
      spec.sides.push_back(side);
    }
    if (!algebraic_grid_supported(spec)) {
      std::fprintf(stderr, "unsupported %s spec for the algebraic oracle\n",
                   fam.c_str());
      return 1;
    }
    oracle = algebraic_grid_oracle(spec);
  } else {
    return usage();
  }

  bool have_edge = false, have_to = false;
  OracleEdge edge;
  long long path_index = -1;
  std::uint64_t verify = 0, seed = 1;
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--edge" && i + 1 < argc) {
      const std::string v = argv[++i];
      const std::size_t comma = v.find(',');
      have_to = comma != std::string::npos;
      if (!parse_number<OracleId>("--edge FROM", v.substr(0, comma).c_str(),
                                  0, LLONG_MAX, edge.from) ||
          (have_to &&
           !parse_number<OracleId>("--edge TO", v.c_str() + comma + 1, 0,
                                   LLONG_MAX, edge.to))) {
        return usage();
      }
      have_edge = true;
    } else if (a == "--path" && i + 1 < argc) {
      if (!parse_number("--path", argv[++i], 0LL, kMaxU32LL, path_index)) {
        return usage();
      }
    } else if (a == "--verify-sample" && i + 1 < argc) {
      if (!parse_number<std::uint64_t>("--verify-sample", argv[++i], 0,
                                       kMaxU32LL, verify)) {
        return usage();
      }
    } else if (a == "--seed" && i + 1 < argc) {
      if (!parse_number<std::uint64_t>("--seed", argv[++i], 0, LLONG_MAX,
                                       seed)) {
        return usage();
      }
    } else {
      return usage();
    }
  }

  std::printf("%s oracle: host Q_%d, guest %llu nodes / %llu edges\n",
              oracle->family(), oracle->host_dims(),
              static_cast<unsigned long long>(oracle->guest_nodes()),
              static_cast<unsigned long long>(oracle->guest_edges()));

  if (have_edge) {
    if (edge.from >= oracle->guest_nodes()) {
      std::fprintf(stderr, "guest node %llu out of range\n",
                   static_cast<unsigned long long>(edge.from));
      return 1;
    }
    if (!have_to) {
      if (oracle->out_degree(edge.from) == 0) {
        std::fprintf(stderr, "guest node %llu has no out-edges\n",
                     static_cast<unsigned long long>(edge.from));
        return 1;
      }
      edge = oracle->out_edge(edge.from, 0);
    }
    const int w = oracle->width(edge);
    std::printf("edge %llu -> %llu: eta %u -> %u, width %d\n",
                static_cast<unsigned long long>(edge.from),
                static_cast<unsigned long long>(edge.to),
                oracle->host_of(edge.from), oracle->host_of(edge.to), w);
    const int lo = path_index >= 0 ? static_cast<int>(path_index) : 0;
    const int hi = path_index >= 0 ? static_cast<int>(path_index) + 1 : w;
    if (lo >= w) {
      std::fprintf(stderr, "path index %d out of range (width %d)\n", lo, w);
      return 1;
    }
    for (int idx = lo; idx < hi; ++idx) {
      const HostPath p = oracle->path_vec(edge, idx);
      std::printf("  path %d (%u hops):", idx, oracle->path_hops(edge, idx));
      for (Node v : p) std::printf(" %u", v);
      std::printf("\n");
    }
  }

  if (verify > 0) {
    const OracleSampleReport rep = oracle_sample_check(*oracle, verify, seed);
    std::printf("verify-sample: %llu edges, %llu paths, %llu hops checked; "
                "digest %016llx\n",
                static_cast<unsigned long long>(rep.edges_checked),
                static_cast<unsigned long long>(rep.paths_checked),
                static_cast<unsigned long long>(rep.hops_checked),
                static_cast<unsigned long long>(rep.node_digest));
  }
  return 0;
}

int cmd_ccc(int n) {
  const auto emb = ccc_multicopy_embedding(n);
  std::printf("Theorem 3: %d copies of CCC_%d in Q_%d — dilation %d, "
              "edge-congestion %d\n",
              emb.num_copies(), n, emb.host().dims(), emb.dilation(),
              emb.edge_congestion());
  return 0;
}

int cmd_decomp(int n) {
  const auto& d = hamiltonian_decomposition(n);
  std::printf("Q_%d: %zu Hamiltonian cycles", n, d.cycles.size());
  if (!d.matching.empty()) {
    std::printf(" + perfect matching (%zu edges)", d.matching.size());
  }
  std::printf("\n");
  for (std::size_t i = 0; i < d.cycles.size() && n <= 4; ++i) {
    std::printf("  cycle %zu:", i);
    for (Node v : d.cycles[i]) std::printf(" %u", v);
    std::printf("\n");
  }
  return 0;
}

int cmd_moments(int n) {
  std::printf("moments of Q_%d (Definition 1):\n", n);
  for (Node v = 0; v < (Node{1} << n); ++v) {
    std::printf("%3u → %u%s", v, moment(v), (v % 8 == 7) ? "\n" : "   ");
  }
  std::printf("\n");
  return 0;
}

int cmd_faults(int n, int count, std::uint64_t seed) {
  if (!cycle_multipath_supported(n)) {
    std::fprintf(stderr, "n = %d unsupported\n", n);
    return 1;
  }
  const auto emb = theorem1_cycle_embedding(n);
  Rng rng(seed);
  const auto f = FaultSet::random(n, count, rng);
  int dead = 0, degraded = 0;
  for (const auto& d : deliver_phase(f, emb)) {
    dead += (d.paths_alive == 0);
    degraded += (d.paths_alive > 0 && d.paths_alive < d.paths_total);
  }
  std::printf("%d faults on Q_%d (width %d): %d edges degraded, %d dead of "
              "%zu\n",
              count, n, emb.width(), degraded, dead,
              emb.guest().num_edges());
  return 0;
}

int cmd_faults_replay(int argc, char** argv) {
  std::string file, json_path, trace_path;
  bool json = false;
  RecoveryConfig cfg;
  int threshold = -1;  // -1 = width - 1 (IDA), resolved once width is known
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    bool ok = true;
    if (a == "--timeout" && i + 1 < argc) {
      ok = parse_number("--timeout", argv[++i], 0, INT_MAX, cfg.timeout);
    } else if (a == "--retries" && i + 1 < argc) {
      ok = parse_number("--retries", argv[++i], 0, INT_MAX, cfg.max_retries);
    } else if (a == "--threshold" && i + 1 < argc) {
      ok = parse_number("--threshold", argv[++i], 0, INT_MAX, threshold);
    } else if (a == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (a == "--json") {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (file.empty() && !a.empty() && a[0] != '-') {
      file = a;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: faults replay <schedule-file> [--timeout s] "
                   "[--retries k] [--threshold m] [--trace FILE] "
                   "[--json [FILE]]\n");
      return 1;
    }
  }
  if (file.empty()) {
    std::fprintf(stderr, "faults replay: missing schedule file\n");
    return 1;
  }
  std::ifstream in(file);
  if (!in) {
    std::perror(file.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  // A malformed schedule is a user-input error, not an internal one: report
  // it with the parser's line number (same shape as JsonlReader errors),
  // prefixed with the file name, instead of letting the throw escape.
  FaultSchedule schedule(1);
  try {
    schedule = FaultSchedule::parse(buf.str());
  } catch (const Error& e) {
    std::fprintf(stderr, "faults replay: %s: %s\n", file.c_str(), e.what());
    return 1;
  }

  const int n = schedule.dims();
  if (!cycle_multipath_supported(n)) {
    std::fprintf(stderr, "schedule dims %d unsupported by Theorem 1\n", n);
    return 1;
  }
  const auto emb = theorem1_cycle_embedding(n);
  cfg.threshold = threshold >= 0 ? threshold : emb.width() - 1;

  const auto final_state = schedule.final_state();
  std::printf("schedule: %zu events on Q_%d (final state: %zu directed "
              "links dead, %zu nodes dead)\n",
              schedule.size(), n, final_state.num_dead_directed(),
              final_state.num_dead_nodes());

  std::unique_ptr<obs::JsonlFileSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink = std::make_unique<obs::JsonlFileSink>(trace_path);
    trace_sink->write_meta(n, emb.guest().num_edges() * emb.width());
  }
  const RecoveryResult r = run_recovery(emb, schedule, cfg, trace_sink.get());
  if (trace_sink) {
    std::printf("trace: %llu events -> %s\n",
                static_cast<unsigned long long>(trace_sink->total()),
                trace_path.c_str());
  }
  std::printf("replay: width %d, threshold %d of %d fragments, timeout %d, "
              "max retries %d\n",
              emb.width(), cfg.threshold, emb.width(), cfg.timeout,
              cfg.max_retries);
  std::printf("  messages: %zu/%zu delivered (%.4f), %zu recovered after a "
              "loss\n",
              r.messages_complete, r.messages_total, r.delivery_rate(),
              r.messages_recovered);
  std::printf("  fragments: %llu sent, %llu delivered, %llu lost, %llu "
              "exhausted; %llu retransmissions\n",
              static_cast<unsigned long long>(r.fragments_sent),
              static_cast<unsigned long long>(r.fragments_delivered),
              static_cast<unsigned long long>(r.fragments_lost),
              static_cast<unsigned long long>(r.fragments_exhausted),
              static_cast<unsigned long long>(r.retransmissions));
  std::printf("  recovery latency: mean %.2f, max %.0f steps; makespan %d, "
              "%d waves, goodput %.4f\n",
              r.recovery_latency.mean(), r.recovery_latency.max(),
              r.makespan, r.waves, r.goodput());

  if (json) {
    if (json_path.empty()) json_path = "SUMMARY_faults_replay.json";
    obs::JsonWriter w;
    w.begin_object();
    w.field("experiment", "faults_replay");
    w.key("params").begin_object();
    w.field("schedule_file", file);
    w.field("n", n);
    w.field("events", schedule.size());
    w.field("width", emb.width());
    w.field("threshold", cfg.threshold);
    w.field("timeout", cfg.timeout);
    w.field("max_retries", cfg.max_retries);
    w.end_object();
    w.key("metrics").begin_object();
    w.field("messages_total", r.messages_total);
    w.field("messages_complete", r.messages_complete);
    w.field("messages_recovered", r.messages_recovered);
    w.field("delivery_rate", r.delivery_rate());
    w.field("fragments_sent", r.fragments_sent);
    w.field("fragments_delivered", r.fragments_delivered);
    w.field("fragments_lost", r.fragments_lost);
    w.field("fragments_exhausted", r.fragments_exhausted);
    w.field("retransmissions", r.retransmissions);
    w.field("makespan", r.makespan);
    w.field("waves", r.waves);
    w.field("goodput", r.goodput());
    w.key("recovery_latency");
    r.recovery_latency.write_json(w);
    w.end_object();
    w.end_object();
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::perror(json_path.c_str());
      return 1;
    }
    std::fputs(w.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

void write_campaign_json(obs::JsonWriter& w, const CampaignStats& s) {
  // uint64 digests do not survive a JSON double round-trip; emit exact
  // 32-bit halves (same convention as bench_mc).
  w.field("digest_hi", static_cast<std::uint64_t>(s.digest >> 32));
  w.field("digest_lo", static_cast<std::uint64_t>(s.digest & 0xffffffffull));
  w.field("trials", s.trials);
  w.field("schedule_events", s.schedule_events);
  w.field("messages_total", s.messages_total);
  w.field("messages_complete", s.messages_complete);
  w.field("messages_recovered", s.messages_recovered);
  w.field("retransmissions", s.retransmissions);
  w.field("fragments_lost", s.fragments_lost);
  w.field("fragments_exhausted", s.fragments_exhausted);
  w.field("trials_fully_delivered", s.trials_fully_delivered);
  w.field("delivery_rate", s.delivery_rate());
  w.field("survival_rate", s.survival_rate());
  w.field("max_makespan", s.max_makespan);
  w.field("max_waves", s.max_waves);
  w.key("recovery_latency");
  s.recovery_latency.write_json(w);
  w.key("retransmit_generations");
  s.retransmit_generations.write_json(w);
  w.key("delivery_permille");
  s.delivery_permille.write_json(w);
}

void print_campaign(const CampaignStats& s) {
  std::printf("  digest: %016llx\n",
              static_cast<unsigned long long>(s.digest));
  std::printf("  delivery %.4f (%llu/%llu messages), survival %.4f "
              "(%llu/%llu trials)\n",
              s.delivery_rate(),
              static_cast<unsigned long long>(s.messages_complete),
              static_cast<unsigned long long>(s.messages_total),
              s.survival_rate(),
              static_cast<unsigned long long>(s.trials_fully_delivered),
              static_cast<unsigned long long>(s.trials));
  std::printf("  %llu retransmissions, %llu fragments lost, %llu exhausted; "
              "%llu messages recovered after a loss\n",
              static_cast<unsigned long long>(s.retransmissions),
              static_cast<unsigned long long>(s.fragments_lost),
              static_cast<unsigned long long>(s.fragments_exhausted),
              static_cast<unsigned long long>(s.messages_recovered));
  std::printf("  recovery latency mean %.2f max %.0f steps; max makespan "
              "%d, max waves %d\n",
              s.recovery_latency.mean(), s.recovery_latency.max(),
              s.max_makespan, s.max_waves);
}

int cmd_campaign(int argc, char** argv) {
  int n = -1;
  CampaignConfig cfg;
  int threshold = -1;  // -1 = width - 1 (IDA), resolved once width is known
  bool gray = false, json = false;
  std::string json_path;
  std::vector<double> sweep;
  double min_delivery = 0.99;
  const auto usage = [] {
    std::fprintf(
        stderr,
        "usage: campaign <n> [--trials T] [--seed S] [--begin B] "
        "[--end E] [--rate R] [--node-rate R] [--window W] "
        "[--transient F] [--timeout s] [--retries k] [--threshold m] "
        "[--gray] [--sweep r1,r2,...] [--min-delivery d] "
        "[--json [FILE]]\n");
    return 1;
  };
  constexpr std::uint32_t kMaxU32 = UINT32_MAX;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    bool ok = true;
    if (a == "--trials" && has_value) {
      ok = parse_number("--trials", argv[++i], 1u, kMaxU32, cfg.trials);
    } else if (a == "--seed" && has_value) {
      ok = parse_number<std::uint64_t>("--seed", argv[++i], 0, LLONG_MAX,
                                       cfg.seed);
    } else if (a == "--begin" && has_value) {
      ok = parse_number("--begin", argv[++i], 0u, kMaxU32, cfg.trial_begin);
    } else if (a == "--end" && has_value) {
      ok = parse_number("--end", argv[++i], 0u, kMaxU32, cfg.trial_end);
    } else if (a == "--rate" && has_value) {
      ok = parse_number("--rate", argv[++i], 0.0, 1.0,
                        cfg.schedule.link_rate);
    } else if (a == "--node-rate" && has_value) {
      ok = parse_number("--node-rate", argv[++i], 0.0, 1.0,
                        cfg.schedule.node_rate);
    } else if (a == "--window" && has_value) {
      ok = parse_number("--window", argv[++i], 1, INT_MAX,
                        cfg.schedule.window);
    } else if (a == "--transient" && has_value) {
      ok = parse_number("--transient", argv[++i], 0.0, 1.0,
                        cfg.schedule.transient_fraction);
    } else if (a == "--timeout" && has_value) {
      ok = parse_number("--timeout", argv[++i], 0, INT_MAX,
                        cfg.recovery.timeout);
    } else if (a == "--retries" && has_value) {
      ok = parse_number("--retries", argv[++i], 0, INT_MAX,
                        cfg.recovery.max_retries);
    } else if (a == "--threshold" && has_value) {
      ok = parse_number("--threshold", argv[++i], 0, INT_MAX, threshold);
    } else if (a == "--min-delivery" && has_value) {
      ok = parse_number("--min-delivery", argv[++i], 0.0, 1.0, min_delivery);
    } else if (a == "--sweep" && has_value) {
      std::stringstream list(argv[++i]);
      std::string item;
      while (ok && std::getline(list, item, ',')) {
        double rate = 0;
        ok = parse_number("--sweep", item.c_str(), 0.0, 1.0, rate);
        sweep.push_back(rate);
      }
    } else if (a == "--gray") {
      gray = true;
    } else if (a == "--json") {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (n < 0 && !a.empty() && a[0] != '-') {
      ok = parse_number("campaign <n>", a.c_str(), 1, 30, n);
    } else {
      ok = false;
    }
    if (!ok) return usage();
  }
  if (n < 0) {
    std::fprintf(stderr, "campaign: missing hypercube dimension\n");
    return 1;
  }
  if (!gray && !cycle_multipath_supported(n)) {
    std::fprintf(stderr, "campaign: n=%d unsupported by Theorem 1\n", n);
    return 1;
  }
  const MultiPathEmbedding emb =
      gray ? gray_code_cycle_embedding(n) : theorem1_cycle_embedding(n);
  cfg.recovery.threshold = threshold >= 0 ? threshold : emb.width() - 1;

  std::printf("campaign: Q_%d %s width %d, trials [%u, %u) of %u, seed "
              "%llu\n",
              n, gray ? "gray" : "theorem1", emb.width(), cfg.trial_begin,
              cfg.trial_end ? cfg.trial_end : cfg.trials, cfg.trials,
              static_cast<unsigned long long>(cfg.seed));
  std::printf("  faults: link rate %.3f, node rate %.3f, window %d, "
              "transient %.2f; recovery: timeout %d, retries %d, threshold "
              "%d of %d\n",
              cfg.schedule.link_rate, cfg.schedule.node_rate,
              cfg.schedule.window, cfg.schedule.transient_fraction,
              cfg.recovery.timeout, cfg.recovery.max_retries,
              cfg.recovery.threshold, emb.width());

  const MonteCarloDriver driver(emb);
  obs::JsonWriter w;
  w.begin_object();
  w.field("experiment", "campaign");
  w.key("params").begin_object();
  w.field("n", n);
  w.field("embedding", gray ? "gray" : "theorem1");
  w.field("width", emb.width());
  w.field("trials", static_cast<std::uint64_t>(cfg.trials));
  w.field("seed", cfg.seed);
  w.field("link_rate", cfg.schedule.link_rate);
  w.field("node_rate", cfg.schedule.node_rate);
  w.field("timeout", cfg.recovery.timeout);
  w.field("max_retries", cfg.recovery.max_retries);
  w.field("threshold", cfg.recovery.threshold);
  w.end_object();

  if (sweep.empty()) {
    const CampaignStats s = driver.run(cfg);
    print_campaign(s);
    w.key("metrics").begin_object();
    write_campaign_json(w, s);
    w.end_object();
  } else {
    const std::vector<EnvelopePoint> envelope =
        sweep_envelope(emb, cfg, sweep);
    w.key("envelope").begin_array();
    for (const EnvelopePoint& pt : envelope) {
      std::printf("-- link rate %.3f --\n", pt.link_rate);
      print_campaign(pt.stats);
      w.begin_object();
      w.field("link_rate", pt.link_rate);
      write_campaign_json(w, pt.stats);
      w.end_object();
    }
    w.end_array();
    const double critical = critical_fault_rate(envelope, min_delivery);
    if (critical < 0) {
      std::printf("critical link rate: delivery never dropped below %.3f "
                  "within the sweep\n",
                  min_delivery);
    } else {
      std::printf("critical link rate: delivery drops below %.3f at "
                  "%.4f\n",
                  min_delivery, critical);
    }
    w.field("min_delivery", min_delivery);
    w.field("critical_rate", critical);
  }
  w.end_object();

  if (json) {
    if (json_path.empty()) json_path = "SUMMARY_campaign.json";
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::perror(json_path.c_str());
      return 1;
    }
    std::fputs(w.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// trace subcommand

struct TraceOptions {
  std::string trace_path;   // JSONL trace output
  std::string json_path;    // summary JSON output
  std::string chrome_path;  // chrome://tracing span timeline output
  bool json = false;        // write summary (default path if json_path empty)
  int packets = -1;         // packets per guest edge (-1 = kind default)
  bool telemetry = false;       // stream live samples alongside the trace
  std::string telemetry_path;   // default: <trace-stem>.telemetry.jsonl
  int telemetry_period = 64;    // sample every N simulation steps
  bool prom = false;            // dump a Prometheus snapshot after the run
  std::string prom_path;        // default: METRICS_<kind>.prom
  std::vector<std::string> positional;
};

// Accepts --flag value and --flag=value; bare --json selects the default
// summary path (SUMMARY_<kind>.json), mirroring the bench --json handling.
// Returns false, having named the flag, on a malformed numeric value.
bool parse_trace_args(int argc, char** argv, TraceOptions& opt) {
  const auto next_or_eq = [&](const std::string& a, const std::string& flag,
                              int& i, std::string* out) {
    if (a == flag && i + 1 < argc) {
      *out = argv[++i];
      return true;
    }
    if (a.rfind(flag + "=", 0) == 0) {
      *out = a.substr(flag.size() + 1);
      return true;
    }
    return false;
  };
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (next_or_eq(a, "--trace", i, &v)) {
      opt.trace_path = v;
    } else if (next_or_eq(a, "--chrome", i, &v)) {
      opt.chrome_path = v;
    } else if (a == "--json" && (i + 1 >= argc || argv[i + 1][0] == '-')) {
      opt.json = true;
    } else if (next_or_eq(a, "--json", i, &v)) {
      opt.json = true;
      opt.json_path = v;
    } else if (a == "--telemetry" &&
               (i + 1 >= argc || argv[i + 1][0] == '-')) {
      opt.telemetry = true;
    } else if (next_or_eq(a, "--telemetry", i, &v)) {
      opt.telemetry = true;
      opt.telemetry_path = v;
    } else if (next_or_eq(a, "--telemetry-period", i, &v)) {
      opt.telemetry = true;
      if (!parse_number("--telemetry-period", v.c_str(), 1, INT_MAX,
                        opt.telemetry_period)) {
        return false;
      }
    } else if (a == "--prom" && (i + 1 >= argc || argv[i + 1][0] == '-')) {
      opt.prom = true;
    } else if (next_or_eq(a, "--prom", i, &v)) {
      opt.prom = true;
      opt.prom_path = v;
    } else if (next_or_eq(a, "--packets", i, &v) ||
               next_or_eq(a, "-p", i, &v)) {
      if (!parse_number("--packets", v.c_str(), 1, INT_MAX, opt.packets)) {
        return false;
      }
    } else {
      opt.positional.push_back(a);
    }
  }
  return true;
}

void print_trace_summary(const char* kind, const SimResult& r,
                         const Hypercube& host,
                         const obs::JsonlFileSink& sink) {
  std::printf("%s phase: makespan %d, %llu transmissions, max queue %zu, "
              "avg utilization %.4f\n",
              kind, r.makespan,
              static_cast<unsigned long long>(r.total_transmissions),
              r.max_queue, r.average_utilization());
  std::printf("per-dimension transmissions (dimension: count, utilization):\n");
  const double dim_links =
      static_cast<double>(host.num_nodes()) * std::max(r.makespan, 1);
  for (int d = 0; d < host.dims(); ++d) {
    const auto tx = r.dim_transmissions[d];
    std::printf("  dim %2d: %10llu  %.4f\n", d,
                static_cast<unsigned long long>(tx),
                static_cast<double>(tx) / dim_links);
  }
  std::printf("latency: %llu packets, mean %.2f steps, max %.0f\n",
              static_cast<unsigned long long>(r.latency.count()),
              r.latency.mean(), r.latency.max());
  std::printf("trace: %llu events → %s\n",
              static_cast<unsigned long long>(sink.total()),
              sink.path().c_str());
}

void write_trace_json(const std::string& path, const char* kind,
                      const std::vector<std::pair<std::string, double>>& params,
                      const SimResult& r, const obs::JsonlFileSink& sink) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("experiment", std::string("trace_") + kind);
  w.key("params").begin_object();
  for (const auto& [k, v] : params) w.field(k, v);
  w.field("threads", par::global_threads());
  w.field("trace_file", sink.path());
  w.end_object();
  w.key("metrics").begin_object();
  w.field("makespan", r.makespan);
  w.field("total_transmissions", r.total_transmissions);
  w.field("max_queue", r.max_queue);
  w.field("average_utilization", r.average_utilization());
  w.field("trace_events", sink.total());
  w.key("dim_transmissions").begin_array();
  for (auto tx : r.dim_transmissions) w.value(tx);
  w.end_array();
  w.key("utilization");
  r.utilization.write_json(w);
  w.key("latency");
  r.latency.write_json(w);
  w.end_object();
  w.key("timings").begin_object();
  for (const auto& span : obs::MetricsRegistry::global().timings()) {
    w.key(span.name).begin_object();
    w.field("seconds", span.seconds);
    w.field("count", span.count);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::perror(path.c_str());
    return;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

void dump_chrome_trace(TraceOptions& opt, const char* kind) {
  if (opt.chrome_path.empty()) {
    opt.chrome_path = std::string("CHROME_TRACE_") + kind + ".json";
  }
  if (obs::Profiler::global().dump_chrome_trace(opt.chrome_path)) {
    std::printf("chrome trace: %s\n", opt.chrome_path.c_str());
  } else {
    std::perror(opt.chrome_path.c_str());
  }
}

// Enable the process-wide telemetry bus for a traced run.  The time-series
// lands next to the trace (<trace-stem>.telemetry.jsonl) unless an explicit
// path was given.  The thread pool is touched first so the stream header's
// effective_threads stamp reflects the pool the run will actually use.
void begin_telemetry(const TraceOptions& opt) {
  if (!opt.telemetry) return;
  par::global_threads();
  obs::TelemetryBus::Config cfg;
  cfg.period_steps = opt.telemetry_period;
  if (!opt.telemetry_path.empty()) {
    cfg.jsonl_path = opt.telemetry_path;
  } else {
    std::string stem = opt.trace_path;
    const std::string ext = ".jsonl";
    if (stem.size() > ext.size() &&
        stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0) {
      stem.resize(stem.size() - ext.size());
    }
    cfg.jsonl_path = stem + ".telemetry.jsonl";
  }
  obs::TelemetryBus::global().enable(cfg);
}

// Stop sampling, report what the bus captured, and (with --prom) write a
// Prometheus text snapshot of the whole metrics registry.
void end_telemetry(TraceOptions& opt, const char* kind) {
  if (opt.telemetry) {
    obs::TelemetryBus& bus = obs::TelemetryBus::global();
    const std::uint64_t samples = bus.total_samples();
    const std::string path = bus.jsonl_path();
    bus.disable();
    std::printf("telemetry: %llu samples (every %d steps) → %s\n",
                static_cast<unsigned long long>(samples),
                opt.telemetry_period, path.c_str());
  }
  if (opt.prom) {
    if (opt.prom_path.empty()) {
      opt.prom_path = std::string("METRICS_") + kind + ".prom";
    }
    const std::string text =
        obs::MetricsRegistry::global().expose_prometheus();
    FILE* f = std::fopen(opt.prom_path.c_str(), "w");
    if (!f) {
      std::perror(opt.prom_path.c_str());
      return;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
    std::printf("prometheus snapshot: %s\n", opt.prom_path.c_str());
  }
}

void trace_help(std::FILE* out) {
  std::fputs(
      "usage: trace <cycle|grid|ccc> ... [options]\n"
      "\n"
      "  trace cycle <n> [p]            Theorem 1 phase on Q_n, p packets\n"
      "                                 per cycle edge (default n/2)\n"
      "  trace grid <torus|grid> <side>...   grid/torus phase\n"
      "  trace ccc <n> [p]              Theorem 3 multicopy CCC phase\n"
      "\n"
      "options:\n"
      "  --packets p, -p p    packets per guest edge\n"
      "  --trace FILE         JSONL trace output (default "
      "TRACE_<kind>.jsonl);\n"
      "                       first line is a {\"kind\":\"meta\",...} header "
      "with the\n"
      "                       host dimension, then one event per line\n"
      "  --json [FILE]        summary JSON (default SUMMARY_<kind>.json)\n"
      "  --chrome FILE        chrome://tracing span timeline\n"
      "  --telemetry [FILE]   stream live queue/worker/recovery gauges to a\n"
      "                       JSONL time-series (default "
      "<trace-stem>.telemetry.jsonl);\n"
      "                       view live with `hyperpath_cli watch FILE "
      "--follow`\n"
      "  --telemetry-period N sample every N simulator steps (default 64;\n"
      "                       implies --telemetry).  Results are "
      "bit-identical\n"
      "                       at any period — sampling only reads sim "
      "state\n"
      "  --prom [FILE]        Prometheus text snapshot of the metrics\n"
      "                       registry after the run (default "
      "METRICS_<kind>.prom)\n"
      "  --threads N          global thread-pool size\n"
      "\n"
      "Feed the trace to `analyze` (or the standalone trace_query binary)\n"
      "for per-packet flight records, latency percentiles per bundle path,\n"
      "the makespan-critical blocking chain, a blame report and a\n"
      "queue-depth heatmap:\n"
      "\n"
      "  hyperpath_cli trace cycle 8 --trace t.jsonl\n"
      "  hyperpath_cli analyze t.jsonl --blame 5 --heatmap q.csv --json "
      "s.json\n",
      out);
}

int cmd_trace(int argc, char** argv) {
  if (argc < 1) {
    trace_help(stderr);
    return 1;
  }
  const std::string kind = argv[0];
  if (kind == "--help" || kind == "-h" || kind == "help") {
    trace_help(stdout);
    return 0;
  }
  TraceOptions opt;
  if (!parse_trace_args(argc - 1, argv + 1, opt)) {
    trace_help(stderr);
    return 1;
  }
  obs::Profiler::global().set_enabled(true);
  std::vector<std::pair<std::string, double>> params;

  if (kind == "cycle") {
    if (opt.positional.empty()) {
      std::fprintf(stderr, "usage: trace cycle <n> [p]\n");
      return 1;
    }
    int n = 0;
    int p = opt.packets;
    if (!parse_number("trace cycle <n>", opt.positional[0].c_str(), 1, 30,
                      n) ||
        (p <= 0 && opt.positional.size() > 1 &&
         !parse_number("trace cycle [p]", opt.positional[1].c_str(), 1,
                       INT_MAX, p))) {
      std::fprintf(stderr, "usage: trace cycle <n> [p]\n");
      return 1;
    }
    if (!cycle_multipath_supported(n)) {
      std::fprintf(stderr, "n = %d unsupported\n", n);
      return 1;
    }
    if (p <= 0) p = n / 2;
    if (opt.trace_path.empty()) opt.trace_path = "TRACE_cycle.jsonl";
    MultiPathEmbedding emb = [&] {
      HP_PROFILE_SPAN("construct");
      return theorem1_cycle_embedding(n);
    }();
    obs::JsonlFileSink sink(opt.trace_path);
    sink.write_meta(emb.host().dims(),
                    static_cast<std::uint64_t>(emb.guest().num_edges()) * p);
    begin_telemetry(opt);
    SimResult r;
    {
      HP_PROFILE_SPAN("simulate");
      r = measure_phase_cost(emb, p, Arbitration::kFifo, &sink);
    }
    params = {{"n", static_cast<double>(n)}, {"packets_per_edge",
                                             static_cast<double>(p)}};
    print_trace_summary("cycle", r, emb.host(), sink);
    end_telemetry(opt, "cycle");
    dump_chrome_trace(opt, "cycle");
    if (opt.json) {
      if (opt.json_path.empty()) opt.json_path = "SUMMARY_cycle.json";
      write_trace_json(opt.json_path, "cycle", params, r, sink);
    }
    return 0;
  }

  if (kind == "grid") {
    if (opt.positional.size() < 2) {
      std::fprintf(stderr, "usage: trace grid <torus|grid> <side>... [p]\n");
      return 1;
    }
    GridSpec spec;
    spec.wrap = opt.positional[0] == "torus";
    const int p = opt.packets > 0 ? opt.packets : 2;
    for (std::size_t i = 1; i < opt.positional.size(); ++i) {
      Node side = 0;
      if (!parse_number("trace grid <side>", opt.positional[i].c_str(),
                        Node{1}, kMaxSide, side)) {
        std::fprintf(stderr,
                     "usage: trace grid <torus|grid> <side>... [p]\n");
        return 1;
      }
      spec.sides.push_back(side);
    }
    if (!grid_multipath_supported(spec)) {
      std::fprintf(stderr, "unsupported grid spec\n");
      return 1;
    }
    if (opt.trace_path.empty()) opt.trace_path = "TRACE_grid.jsonl";
    MultiPathEmbedding emb = [&] {
      HP_PROFILE_SPAN("construct");
      return grid_multipath_embedding(spec);
    }();
    obs::JsonlFileSink sink(opt.trace_path);
    sink.write_meta(emb.host().dims(),
                    static_cast<std::uint64_t>(emb.guest().num_edges()) * p);
    begin_telemetry(opt);
    SimResult r;
    {
      HP_PROFILE_SPAN("simulate");
      r = measure_phase_cost(emb, p, Arbitration::kFifo, &sink);
    }
    params = {{"axes", static_cast<double>(spec.sides.size())},
              {"wrap", spec.wrap ? 1.0 : 0.0},
              {"packets_per_edge", static_cast<double>(p)}};
    print_trace_summary("grid", r, emb.host(), sink);
    end_telemetry(opt, "grid");
    dump_chrome_trace(opt, "grid");
    if (opt.json) {
      if (opt.json_path.empty()) opt.json_path = "SUMMARY_grid.json";
      write_trace_json(opt.json_path, "grid", params, r, sink);
    }
    return 0;
  }

  if (kind == "ccc") {
    if (opt.positional.empty()) {
      std::fprintf(stderr, "usage: trace ccc <n> [p]\n");
      return 1;
    }
    int n = 0;
    int p = opt.packets;
    if (!parse_number("trace ccc <n>", opt.positional[0].c_str(), 1, 30, n) ||
        (p <= 0 && opt.positional.size() > 1 &&
         !parse_number("trace ccc [p]", opt.positional[1].c_str(), 1, INT_MAX,
                       p))) {
      std::fprintf(stderr, "usage: trace ccc <n> [p]\n");
      return 1;
    }
    if (p <= 0) p = 1;
    if (opt.trace_path.empty()) opt.trace_path = "TRACE_ccc.jsonl";
    KCopyEmbedding emb = [&] {
      HP_PROFILE_SPAN("construct");
      return ccc_multicopy_embedding(n);
    }();
    obs::JsonlFileSink sink(opt.trace_path);
    sink.write_meta(emb.host().dims(),
                    static_cast<std::uint64_t>(emb.guest().num_edges()) * p *
                        emb.num_copies());
    begin_telemetry(opt);
    SimResult r;
    {
      HP_PROFILE_SPAN("simulate");
      r = measure_phase_cost(emb, p, Arbitration::kFifo, &sink);
    }
    params = {{"n", static_cast<double>(n)},
              {"copies", static_cast<double>(emb.num_copies())},
              {"packets_per_edge", static_cast<double>(p)}};
    print_trace_summary("ccc", r, emb.host(), sink);
    end_telemetry(opt, "ccc");
    dump_chrome_trace(opt, "ccc");
    if (opt.json) {
      if (opt.json_path.empty()) opt.json_path = "SUMMARY_ccc.json";
      write_trace_json(opt.json_path, "ccc", params, r, sink);
    }
    return 0;
  }

  std::fprintf(stderr, "unknown trace target '%s'\n", kind.c_str());
  return 1;
}

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  using namespace hyperpath;

  // Strip the global --threads flag (valid anywhere) before dispatch so
  // subcommand parsers never see it.
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--threads N] "
                 "cycle|grid|route|ccc|decomp|moments|faults|campaign|trace|"
                 "analyze|watch ...\n",
                 argv[0]);
    return 1;
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* value = nullptr;
    if (a == "--threads" && i + 1 < argc) {
      value = argv[++i];
    } else if (a.rfind("--threads=", 0) == 0) {
      value = argv[i] + 10;
    } else {
      argv[out++] = argv[i];
      continue;
    }
    int threads = 0;
    if (!parse_number("--threads", value, 1, par::TaskPool::kMaxThreads,
                      threads)) {
      return usage();
    }
    par::set_global_threads(threads);
  }
  argc = out;

  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  // The cube dimension <n> that most subcommands take first.
  int n = 0;
  const auto dims_arg = [&](const char* what) {
    return parse_number(what, argv[2], 1, 30, n);
  };
  try {
    if (cmd == "cycle" && argc >= 3) {
      return dims_arg("cycle <n>") ? cmd_cycle(n) : usage();
    }
    if (cmd == "grid") return cmd_grid(argc - 2, argv + 2);
    if (cmd == "route") return cmd_route(argc - 2, argv + 2);
    if (cmd == "ccc" && argc >= 3) {
      return dims_arg("ccc <n>") ? cmd_ccc(n) : usage();
    }
    if (cmd == "decomp" && argc >= 3) {
      return dims_arg("decomp <n>") ? cmd_decomp(n) : usage();
    }
    if (cmd == "moments" && argc >= 3) {
      return dims_arg("moments <n>") ? cmd_moments(n) : usage();
    }
    if (cmd == "faults" && argc >= 3 && !std::strcmp(argv[2], "replay")) {
      return cmd_faults_replay(argc - 3, argv + 3);
    }
    if (cmd == "campaign") return cmd_campaign(argc - 2, argv + 2);
    if (cmd == "faults" && argc >= 4) {
      int count = 0;
      std::uint64_t seed = 1;
      if (!dims_arg("faults <n>") ||
          !parse_number("faults <count>", argv[3], 0, INT_MAX, count) ||
          (argc >= 5 && !parse_number<std::uint64_t>("faults [seed]", argv[4],
                                                     0, LLONG_MAX, seed))) {
        return usage();
      }
      return cmd_faults(n, count, seed);
    }
    if (cmd == "trace") return cmd_trace(argc - 2, argv + 2);
    if (cmd == "analyze") return tools::run_analyze(argc - 2, argv + 2);
    if (cmd == "watch") return tools::run_watch(argc - 2, argv + 2);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown or incomplete command '%s'\n", cmd.c_str());
  return 1;
}
