// Infrastructure benchmark: throughput of the simulator core (simcore.hpp,
// step_kernel.hpp).
//
// Not a paper experiment — this measures the simulator itself: steps/sec
// and packet-hops/sec throughput of the store-and-forward core (traced and
// untraced) and the wormhole core, on Theorem-1-phase
// workloads (the heaviest traffic the paper's tables run) and a bit-reversal
// wormhole permutation.  Every exact record in the report is a
// deterministic output (makespans, transmissions, active-set visits, trace
// event counts, campaign digests) and is held to exact equality by the
// baseline CI gate; wall-clock goes into timing and rate records only.
#include <benchmark/benchmark.h>


#include "bench/table.hpp"
#include "core/bitserial.hpp"
#include "core/cycle_multipath.hpp"
#include "core/grid_multipath.hpp"
#include "par/task_pool.hpp"
#include "sim/montecarlo.hpp"
#include "sim/phase.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"
#include "sim/wormhole.hpp"

namespace hyperpath {
namespace {

using bench::seconds_of;
using obs::RecordClass;

// Theorem-1 phase traffic on Q_n with p = n packets per guest edge.
// theorem1_cycle_embedding's direct range needs ⌊n/4⌋ to be a power of two,
// which excludes 12 and 14 — those use the Corollary-1 torus product
// (64×64 and 128×128; every axis embedded by Theorem 1) instead.
MultiPathEmbedding phase_embedding(int n) {
  if (cycle_multipath_supported(n)) return theorem1_cycle_embedding(n);
  const Node side = static_cast<Node>(1) << (n / 2);
  return grid_multipath_embedding(GridSpec{{side, side}, true});
}

void print_tracing_table(bench::Report& report) {
  // Tracing overhead of the flat core on the Q_12 phase workload: the run
  // with a trace sink (every event) against the plain run.  Tracing must
  // leave the simulation bit-identical; the event count is a deterministic
  // output (gated by the baseline diff), the times are wall-clock timing
  // records.
  bench::Table t("S2: flat core tracing overhead",
                 {"n", "packets", "plain ms", "traced ms", "events"});
  const int n = 12;
  const auto emb = phase_embedding(n);
  const auto packets = phase_packets(emb, n);
  const StoreForwardSim flat(n);

  SimResult rp, rt;
  obs::RingBufferSink ring;
  HP_PROFILE_SPAN("simulate");
  const double s_plain = seconds_of([&] { rp = flat.run(packets); });
  const double s_traced = seconds_of(
      [&] { rt = flat.run(packets, Arbitration::kFifo, 1 << 22, &ring); });

  const auto same = [&](const SimResult& r) {
    return r.makespan == rp.makespan &&
           r.total_transmissions == rp.total_transmissions &&
           r.max_queue == rp.max_queue && r.link_visits == rp.link_visits &&
           r.dim_transmissions == rp.dim_transmissions &&
           r.latency == rp.latency && r.utilization == rp.utilization;
  };
  if (!same(rt)) {
    std::fprintf(stderr, "FATAL: observation changed the simulation\n");
    std::exit(1);
  }
  t.row(n, packets.size(), s_plain * 1e3, s_traced * 1e3, ring.total());
  t.print();
  report.table(t);
  report.record("flat_plain_n12", s_plain, "s", RecordClass::kTiming);
  report.record("flat_traced_n12", s_traced, "s", RecordClass::kTiming);
  report.metric("trace_events_n12", ring.total(), "count");
}

void print_wormhole_table(bench::Report& report) {
  // Wormhole core (held-link bitmap + compacted worm worklists) on the
  // bit-reversal permutation, the classic hard pattern for
  // dimension-ordered routes.
  bench::Table t("S3: wormhole core — bitmap worklists",
                 {"n", "worms", "flits", "makespan", "flat ms"});
  for (int n : {10, 12}) {
    const auto pattern = bit_reversal_pattern(n);
    const auto worms = ecube_worms(n, pattern, 32);
    const WormholeSim flat(n);

    WormResult rf;
    HP_PROFILE_SPAN("simulate");
    const double s_flat = seconds_of([&] { rf = flat.run(worms); });
    t.row(n, worms.size(), 32, rf.makespan, s_flat * 1e3);
    const std::string sn = std::to_string(n);
    report.record("flat_wormhole_n" + sn, s_flat, "s", RecordClass::kTiming);
    report.metric("worm_makespan_n" + sn, rf.makespan, "steps");
    report.metric("worm_flit_hops_n" + sn, rf.total_flit_hops, "count");
  }
  t.print();
  report.table(t);
}

void print_engine_table(bench::Report& report) {
  // S4: the serial step sweep on the phase workloads of phase_embedding
  // (Q_12..Q_16, p = n packets per guest edge), untraced and fault-free —
  // exactly the branch-light specialization step_sweep<false, false>.  The
  // store-and-forward outputs (makespan, hops, link visits, max queue) are
  // exact records.  The packet-steps/second column is the first-class
  // throughput number (SimResult::packet_steps_per_sec), a `rate` record
  // that bench_trend prints for the newest ledger run.
  bench::Table t("S4: step sweep — SoA route plan throughput",
                 {"n", "packets", "makespan", "max queue", "soa ms",
                  "soa Mpps"});
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
    t.row(n, packets.size(), rs.makespan, rs.max_queue,
          rs.elapsed_seconds * 1e3, pps_soa / 1e6);

    const std::string sn = std::to_string(n);
    report.record("soa_serial_n" + sn, rs.elapsed_seconds, "s",
                  RecordClass::kTiming);
    report.record("pps_soa_serial_n" + sn, pps_soa, "1/s", RecordClass::kRate);
    report.metric("s4_makespan_n" + sn, rs.makespan, "steps");
    report.metric("s4_hops_n" + sn, rs.total_transmissions, "count");
    report.metric("s4_link_visits_n" + sn, rs.link_visits, "count");
    report.metric("max_queue_n" + sn, rs.max_queue, "count");
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

  par::TaskPool pool(8);
  par::PoolScope scope(pool);
  const MonteCarloDriver driver(emb10);
  HP_PROFILE_SPAN("simulate");
  CampaignStats mc;
  const double s_mc = seconds_of([&] { mc = driver.run(cfg); });
  std::printf("S4 Monte-Carlo: Q_10 x %u trials, digest %016llx (%.2fs)\n\n",
              cfg.trials, static_cast<unsigned long long>(mc.digest), s_mc);
  report.record("mc_soa_q10", s_mc, "s", RecordClass::kTiming);
  report.digest("s4_mc_digest_hi", "s4_mc_digest_lo", mc.digest);
  report.metric("s4_mc_messages_complete", mc.messages_complete, "count");
  report.metric("s4_mc_retransmissions", mc.retransmissions, "count");
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
  hyperpath::print_tracing_table(report);
  hyperpath::print_wormhole_table(report);
  hyperpath::print_engine_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
