// Infrastructure benchmark: throughput of the simulator core (simcore.hpp,
// step_kernel.hpp).
//
// Not a paper experiment — this measures the simulator itself: steps/sec
// and packet-hops/sec throughput of the store-and-forward core (serial and
// parallel, traced and untraced) and the wormhole core, on Theorem-1-phase
// workloads (the heaviest traffic the paper's tables run) and a bit-reversal
// wormhole permutation.  Every simulation metric in the report is a
// deterministic output (makespans, transmissions, active-set visits, trace
// event counts, campaign digests) and is held to exact equality by the
// baseline CI gate; wall-clock goes into the timings section only.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>

#include "bench/table.hpp"
#include "core/bitserial.hpp"
#include "obs/telemetry.hpp"
#include "core/cycle_multipath.hpp"
#include "core/grid_multipath.hpp"
#include "par/task_pool.hpp"
#include "sim/montecarlo.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/phase.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"
#include "sim/wormhole.hpp"

namespace hyperpath {
namespace {

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double mhops_per_sec(std::uint64_t hops, double seconds) {
  return static_cast<double>(hops) / seconds / 1e6;
}

// Theorem-1 phase traffic on Q_n with p = n packets per guest edge.
// theorem1_cycle_embedding's direct range needs ⌊n/4⌋ to be a power of two,
// which excludes 12 and 14 — those use the Corollary-1 torus product
// (64×64 and 128×128; every axis embedded by Theorem 1) instead.
MultiPathEmbedding phase_embedding(int n) {
  if (cycle_multipath_supported(n)) return theorem1_cycle_embedding(n);
  const Node side = static_cast<Node>(1) << (n / 2);
  return grid_multipath_embedding(GridSpec{{side, side}, true});
}

void print_store_forward_table(bench::Report& report) {
  // Theorem-1 phases with p = n packets per guest edge on Q_12..Q_16.
  // Q_12 and Q_14 are not in theorem1_cycle_embedding's direct range
  // (⌊n/4⌋ must be a power of two), so they run the Corollary-1 torus
  // product — every axis embedded by Theorem 1 — at 64×64 and 128×128;
  // Q_16 is the direct Theorem-1 cycle.  The parallel column runs on a
  // 4-thread pool (4 shards) and must agree with the serial run (FATAL
  // otherwise).
  bench::Table t("S1: store-and-forward core — serial vs 4 shards",
                 {"n", "packets", "makespan", "Mhops", "flat ms",
                  "flat Mhops/s", "par4 ms"});
  auto& reg = obs::MetricsRegistry::global();
  // The sharded arm takes its shard count from the pool it runs on.
  par::TaskPool pool4(4);
  for (int n : {12, 14, 16}) {
    const auto emb = [&] {
      HP_PROFILE_SPAN("construct");
      return phase_embedding(n);
    }();
    const auto packets = phase_packets(emb, n);
    const StoreForwardSim flat(n);
    const ParallelStoreForwardSim sharded(n);

    SimResult rf, rp;
    HP_PROFILE_SPAN("simulate");
    const double s_flat = seconds_of([&] { rf = flat.run(packets); });
    const double s_par = seconds_of([&] {
      const par::PoolScope scope(pool4);
      rp = sharded.run(packets);
    });
    if (rf.makespan != rp.makespan ||
        rf.total_transmissions != rp.total_transmissions) {
      std::fprintf(stderr, "FATAL: core variants disagree on n=%d\n", n);
      std::exit(1);
    }
    t.row(n, packets.size(), rf.makespan,
          static_cast<double>(rf.total_transmissions) / 1e6, s_flat * 1e3,
          mhops_per_sec(rf.total_transmissions, s_flat), s_par * 1e3);

    const std::string sn = std::to_string(n);
    reg.record_span("flat_serial_n" + sn, s_flat);
    reg.record_span("flat_parallel4_n" + sn, s_par);
    report.metric("makespan_n" + sn, rf.makespan);
    report.metric("hops_n" + sn, rf.total_transmissions);
    report.metric("link_visits_n" + sn, rf.link_visits);
    report.metric("max_queue_n" + sn, rf.max_queue);
  }
  t.print();
  report.table(t);
}

void print_tracing_table(bench::Report& report) {
  // Observation overhead of the flat core on the Q_12 phase workload:
  // trace sink (every event) and live telemetry (one ring-buffer sample
  // every period steps) against the plain run.  Both must leave the
  // simulation bit-identical; the sample counts are deterministic outputs
  // (gated by the baseline diff), the overhead ratios are wall-clock and live
  // in the timings section only.  The telemetry acceptance bound is <= 5%
  // at the default period of 64.
  bench::Table t("S2: flat core observation overhead (tracing + telemetry)",
                 {"n", "packets", "plain ms", "traced ms", "tele64 ms",
                  "tele1 ms", "events", "samples64", "samples1"});
  const int n = 12;
  const auto emb = phase_embedding(n);
  const auto packets = phase_packets(emb, n);
  const StoreForwardSim flat(n);

  SimResult rp, rt, r64, r1;
  obs::RingBufferSink ring;
  HP_PROFILE_SPAN("simulate");
  const double s_plain = seconds_of([&] { rp = flat.run(packets); });
  const double s_traced = seconds_of(
      [&] { rt = flat.run(packets, Arbitration::kFifo, 1 << 22, &ring); });

  // Telemetry at the default period and at the worst case (every step),
  // ring-only so no I/O rides the measurement.
  obs::TelemetryBus& bus = obs::TelemetryBus::global();
  const auto telemetry_run = [&](int period, SimResult* out) {
    obs::TelemetryBus::Config cfg;
    cfg.period_steps = period;
    bus.enable(cfg);
    const double s = seconds_of([&] { *out = flat.run(packets); });
    bus.disable();
    return s;
  };
  const double s_tele64 = telemetry_run(64, &r64);
  const std::uint64_t samples64 = bus.total_samples();
  const double s_tele1 = telemetry_run(1, &r1);
  const std::uint64_t samples1 = bus.total_samples();

  const auto same = [&](const SimResult& r) {
    return r.makespan == rp.makespan &&
           r.total_transmissions == rp.total_transmissions &&
           r.max_queue == rp.max_queue && r.link_visits == rp.link_visits &&
           r.dim_transmissions == rp.dim_transmissions &&
           r.latency == rp.latency && r.utilization == rp.utilization;
  };
  if (!same(rt) || !same(r64) || !same(r1)) {
    std::fprintf(stderr, "FATAL: observation changed the simulation\n");
    std::exit(1);
  }
  t.row(n, packets.size(), s_plain * 1e3, s_traced * 1e3, s_tele64 * 1e3,
        s_tele1 * 1e3, ring.total(), samples64, samples1);
  t.print();
  report.table(t);
  auto& reg = obs::MetricsRegistry::global();
  reg.record_span("flat_plain_n12", s_plain);
  reg.record_span("flat_traced_n12", s_traced);
  reg.record_span("flat_telemetry64_n12", s_tele64);
  reg.record_span("flat_telemetry1_n12", s_tele1);
  reg.record_span("telemetry64_overhead_ratio", s_tele64 / s_plain);
  reg.record_span("telemetry1_overhead_ratio", s_tele1 / s_plain);
  report.metric("trace_events_n12", ring.total());
  report.metric("telemetry_samples_p64_n12", samples64);
  report.metric("telemetry_samples_p1_n12", samples1);
}

void print_wormhole_table(bench::Report& report) {
  // Wormhole core (held-link bitmap + compacted worm worklists) on the
  // bit-reversal permutation, the classic hard pattern for
  // dimension-ordered routes.
  bench::Table t("S3: wormhole core — bitmap worklists",
                 {"n", "worms", "flits", "makespan", "flat ms"});
  auto& reg = obs::MetricsRegistry::global();
  for (int n : {10, 12}) {
    const auto pattern = bit_reversal_pattern(n);
    const auto worms = ecube_worms(n, pattern, 32);
    const WormholeSim flat(n);

    WormResult rf;
    HP_PROFILE_SPAN("simulate");
    const double s_flat = seconds_of([&] { rf = flat.run(worms); });
    t.row(n, worms.size(), 32, rf.makespan, s_flat * 1e3);
    const std::string sn = std::to_string(n);
    reg.record_span("flat_wormhole_n" + sn, s_flat);
    report.metric("worm_makespan_n" + sn, rf.makespan);
    report.metric("worm_flit_hops_n" + sn, rf.total_flit_hops);
  }
  t.print();
  report.table(t);
}

void print_engine_table(bench::Report& report) {
  // S4: the serial step sweep on the same Theorem-1 phase workloads as S1,
  // untraced and fault-free — exactly the branch-light specialization
  // step_sweep<false, false>.  The packet-steps/second column is the
  // first-class throughput metric (SimResult::packet_steps_per_sec) and
  // lands in the timings section as pps_* spans so bench_runner --history
  // and bench_trend chart it.
  bench::Table t("S4: step sweep — SoA route plan throughput",
                 {"n", "packets", "makespan", "soa ms", "soa Mpps"});
  auto& reg = obs::MetricsRegistry::global();
  for (int n : {12, 14, 16}) {
    const auto emb = [&] {
      HP_PROFILE_SPAN("construct");
      return phase_embedding(n);
    }();
    const auto packets = phase_packets(emb, n);
    const StoreForwardSim soa(n);

    HP_PROFILE_SPAN("simulate");
    // One warm-up run so the measured one does not pay the
    // cold-cache/page-fault toll.
    (void)soa.run(packets);
    const SimResult rs = soa.run(packets);
    const double pps_soa = rs.packet_steps_per_sec();
    t.row(n, packets.size(), rs.makespan, rs.elapsed_seconds * 1e3,
          pps_soa / 1e6);

    const std::string sn = std::to_string(n);
    reg.record_span("soa_serial_n" + sn, rs.elapsed_seconds);
    reg.record_span("pps_soa_serial_n" + sn, pps_soa);
    report.metric("s4_makespan_n" + sn, rs.makespan);
    report.metric("s4_hops_n" + sn, rs.total_transmissions);
    report.metric("s4_link_visits_n" + sn, rs.link_visits);
  }
  t.print();
  report.table(t);

  // End to end: a 1000-trial Q_10 Monte-Carlo fault campaign (serial
  // transport, threshold w-1, moderate transient-heavy intensity).  The
  // campaign digest folds every field of every trial, so any behavioural
  // change anywhere in recovery — fates, truncation steps, retransmit
  // scheduling — moves it; the baseline diff holds it at tolerance 0.
  const auto emb10 = [&] {
    HP_PROFILE_SPAN("construct");
    return theorem1_cycle_embedding(10);
  }();
  CampaignConfig cfg;
  cfg.seed = 2026;
  cfg.trials = 1000;
  cfg.schedule.window = 8;
  cfg.schedule.link_rate = 0.05;
  cfg.schedule.transient_fraction = 0.5;
  cfg.recovery.timeout = 4;
  cfg.recovery.max_retries = 5;
  cfg.recovery.threshold = emb10.width() - 1;
  cfg.live_metrics = false;

  par::TaskPool pool(8);
  par::PoolScope scope(pool);
  const MonteCarloDriver driver(emb10);
  HP_PROFILE_SPAN("simulate");
  CampaignStats mc;
  const double s_mc = seconds_of([&] { mc = driver.run(cfg); });
  std::printf("S4 Monte-Carlo: Q_10 x %u trials, digest %016llx (%.2fs)\n\n",
              cfg.trials, static_cast<unsigned long long>(mc.digest), s_mc);
  reg.record_span("mc_soa_q10", s_mc);
  // uint64 digests do not survive a JSON double round-trip (> 2^53): carry
  // the gated value as two exact 32-bit halves.
  report.metric("s4_mc_digest_hi", static_cast<std::uint64_t>(mc.digest >> 32));
  report.metric("s4_mc_digest_lo",
                static_cast<std::uint64_t>(mc.digest & 0xffffffffull));
  report.metric("s4_mc_messages_complete", mc.messages_complete);
  report.metric("s4_mc_retransmissions", mc.retransmissions);
}

void BM_FlatSerialPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto emb = phase_embedding(n);
  const auto packets = phase_packets(emb, n);
  const StoreForwardSim sim(n);
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const auto r = sim.run(packets);
    benchmark::DoNotOptimize(r.makespan);
    hops += r.total_transmissions;
  }
  state.counters["hops/s"] = benchmark::Counter(
      static_cast<double>(hops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FlatSerialPhase)->Arg(12)->Arg(14)->Unit(benchmark::kMillisecond);

void BM_FlatParallelPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const auto emb = phase_embedding(n);
  const auto packets = phase_packets(emb, n);
  par::TaskPool pool(threads);
  const par::PoolScope scope(pool);
  const ParallelStoreForwardSim sim(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(packets).makespan);
  }
}
BENCHMARK(BM_FlatParallelPhase)
    ->Args({14, 2})
    ->Args({14, 4})
    ->Unit(benchmark::kMillisecond);

void BM_FlatWormhole(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto worms = ecube_worms(n, bit_reversal_pattern(n), 32);
  const WormholeSim sim(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(worms).makespan);
  }
}
BENCHMARK(BM_FlatWormhole)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("simcore", &argc, argv);
  hyperpath::print_store_forward_table(report);
  hyperpath::print_tracing_table(report);
  hyperpath::print_wormhole_table(report);
  hyperpath::print_engine_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
