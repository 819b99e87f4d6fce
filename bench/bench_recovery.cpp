// Experiment E16: dynamic fault injection with sender-side recovery (§1/§9
// made executable).
//
// A seeded random schedule of timed link faults plays out *during* the
// simulation on Q_8; every guest edge sends one message dispersed over its
// path bundle.  The schedule is built greedily so that every width-5
// Theorem 1 bundle keeps at least one surviving path — the regime the paper
// claims the embedding tolerates.  Under sender-side failover (timeout
// detection, cyclic path probing, exponential backoff) the Theorem 1
// embedding then delivers 100% of messages, paying only measured recovery
// latency; the width-1 Gray-code embedding has nowhere to fail over to and
// loses every message whose single path is cut.
#include <benchmark/benchmark.h>

#include "bench/table.hpp"
#include "core/cycle_multipath.hpp"
#include "embed/classical.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight.hpp"
#include "sim/recovery.hpp"

namespace hyperpath {
namespace {

/// Seeded schedule of permanent link faults over steps [0, window) that
/// leaves every bundle of `emb` at least one alive path in the final state.
/// The window must sit inside the phase's active steps (a cycle phase on
/// Q_8 completes within a handful of steps), or the faults fire after the
/// traffic has already drained.
FaultSchedule survivable_schedule(const MultiPathEmbedding& emb,
                                  int target_faults, std::uint64_t seed,
                                  int window = 2) {
  const int n = emb.host().dims();
  const Hypercube q(n);
  Rng rng(seed);
  FaultSchedule schedule(n);
  FaultSet accum(n);
  const auto every_bundle_survives = [&] {
    for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
      if (deliver_over_bundle(accum, emb.paths(e)).paths_alive == 0) {
        return false;
      }
    }
    return true;
  };
  int added = 0;
  for (int tries = 0; tries < 50 * target_faults && added < target_faults;
       ++tries) {
    const Node u = static_cast<Node>(rng.below(q.num_nodes()));
    const Dim d = static_cast<Dim>(rng.below(n));
    const Node v = q.neighbor(u, d);
    if (accum.link_dead(u, v)) continue;
    accum.kill_link(u, v);
    if (!every_bundle_survives()) {
      accum.revive_link(u, v);
      continue;
    }
    schedule.link_down(static_cast<int>(rng.below(window)), u, v);
    ++added;
  }
  return schedule;
}

void print_table(bench::Report& report) {
  const int n = 8;
  const auto multi = [&] {
    HP_PROFILE_SPAN("construct");
    return theorem1_cycle_embedding(n);
  }();
  const auto gray = gray_code_cycle_embedding(n);
  const int w = multi.width();

  // One schedule, built against the Theorem 1 bundles (the claim under
  // test), replayed against both embeddings.
  const FaultSchedule schedule = survivable_schedule(multi, 48, 2024);

  RecoveryConfig cfg;
  cfg.timeout = 8;
  cfg.max_retries = 6;

  bench::Table t("E16: mid-run link faults + sender failover on Q_8",
                 {"embedding", "width", "messages", "delivered", "rate",
                  "retransmits", "rec lat mean", "rec lat max", "goodput",
                  "makespan"});
  const auto run_one = [&](const char* name, const MultiPathEmbedding& emb,
                           int threshold, obs::TraceSink* sink = nullptr) {
    RecoveryConfig c = cfg;
    c.threshold = threshold;
    HP_PROFILE_SPAN("simulate");
    const RecoveryResult r = run_recovery(emb, schedule, c, sink);
    t.row(name, emb.width(), r.messages_total, r.messages_complete,
          r.delivery_rate(), r.retransmissions, r.recovery_latency.mean(),
          r.recovery_latency.max(), r.goodput(), r.makespan);
    return r;
  };

  // Theorem 1 with IDA dispersal (any w-1 of w fragments reconstruct).  A
  // flight recorder rides along: the fault/retransmit chains and re-release
  // generations it reconstructs must agree with the recovery engine.
  obs::FlightRecorder rec;
  const RecoveryResult multi_r = run_one("theorem1+ida", multi, w - 1, &rec);
  // Gray code: one path, one fragment, nowhere to fail over to.
  const RecoveryResult gray_r = run_one("gray", gray, 0);
  t.print();

  const obs::TraceAnalysis fa = obs::analyze_flights(rec);
  if (fa.makespan != multi_r.makespan ||
      fa.retransmissions != multi_r.retransmissions ||
      fa.inconsistencies != 0 || fa.depth_mismatches != 0) {
    std::fprintf(stderr,
                 "FATAL: flight records disagree with recovery result\n");
    std::exit(1);
  }

  std::printf("schedule: %zu timed link faults; theorem1 recovery: %zu/%zu "
              "messages needed failover, worst %g steps\n\n",
              schedule.size(), multi_r.messages_recovered,
              multi_r.messages_total, multi_r.recovery_latency.max());

  report.param("n", n);
  report.param("width", w);
  report.param("faults", schedule.size());
  report.param("timeout", cfg.timeout);
  report.param("max_retries", cfg.max_retries);

  report.metric("multi_delivery_rate", multi_r.delivery_rate());
  report.metric("multi_messages_complete", multi_r.messages_complete);
  report.metric("multi_messages_recovered", multi_r.messages_recovered);
  report.metric("multi_retransmissions", multi_r.retransmissions);
  report.metric("multi_recovery_latency_mean", multi_r.recovery_latency.mean());
  report.metric("multi_recovery_latency_max", multi_r.recovery_latency.max());
  report.metric("multi_goodput", multi_r.goodput());
  report.metric("multi_makespan", multi_r.makespan);
  report.metric("multi_waves", multi_r.waves);
  report.metric("multi_flight_makespan", fa.makespan);
  report.metric("multi_flight_retransmits", fa.retransmissions);
  report.metric("multi_flight_dropped", fa.dropped);
  report.metric("multi_flight_faults", fa.faults);
  report.metric("multi_flight_max_generation",
                static_cast<std::uint64_t>(rec.max_generation()));
  report.metric("multi_queue_wait_p50", fa.queue_wait.quantile(0.5));
  report.metric("multi_queue_wait_p99", fa.queue_wait.quantile(0.99));
  report.metric("multi_critical_path", fa.critical_path.length());
  report.metric("multi_peak_congestion", fa.peak_congestion);
  report.metric("gray_delivery_rate", gray_r.delivery_rate());
  report.metric("gray_messages_complete", gray_r.messages_complete);
  report.metric("gray_messages_lost",
                gray_r.messages_total - gray_r.messages_complete);
  report.metric("gray_retransmissions", gray_r.retransmissions);
  report.table(t);
}

void BM_RecoveryPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto emb = theorem1_cycle_embedding(n);
  const FaultSchedule schedule = survivable_schedule(emb, 16, 7);
  RecoveryConfig cfg;
  cfg.timeout = 8;
  cfg.max_retries = 4;
  cfg.threshold = emb.width() - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_recovery(emb, schedule, cfg).messages_complete);
  }
}
BENCHMARK(BM_RecoveryPhase)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_ScheduleStateAt(benchmark::State& state) {
  const auto emb = theorem1_cycle_embedding(8);
  const FaultSchedule schedule = survivable_schedule(emb, 32, 11);
  int step = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        schedule.state_at(step++ % 40).num_dead_directed());
  }
}
BENCHMARK(BM_ScheduleStateAt);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("recovery", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
