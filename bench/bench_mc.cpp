// Experiment E18: Monte-Carlo reliability campaigns (§1/§9 as a measured
// failure envelope instead of one anecdotal schedule).
//
// Thousands of independent trials — each with its own seeded random timed
// fault schedule — fan across the work-stealing pool.  Three gates run
// before any number is reported:
//
//   1. Determinism: the Q_8 and Q_10 campaign statistics (digest, every
//      count, every histogram) must be bit-identical at 1, 2 and 8 pool
//      threads.  The digest is a wrapping sum of position-mixed per-trial
//      hashes, so any divergence in any trial at any thread count trips it.
//   2. Reliability dominance: sweeping the fault intensity, the Theorem 1
//      width-5 bundle with IDA dispersal must deliver at least as well as
//      the width-1 Gray-code embedding at every point of the envelope.
//   3. Congestion bracket: a fault-free trial's measured peak congestion
//      (reconstructed from flight records) must sit inside the analytic
//      floor/ceiling of core/lower_bounds.hpp — wave-0 of recovery is
//      exactly the w-packet phase workload, one fragment per bundle path.
//
// The reported envelope then gives the critical fault rate: the intensity
// where each embedding's delivery first drops below 99%.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/table.hpp"
#include "core/cycle_multipath.hpp"
#include "core/lower_bounds.hpp"
#include "embed/classical.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight.hpp"
#include "par/task_pool.hpp"
#include "sim/montecarlo.hpp"

namespace hyperpath {
namespace {

constexpr std::uint64_t kCampaignSeed = 2026;
constexpr std::uint32_t kCampaignTrials = 1000;

/// The campaign every gate runs: moderate transient-heavy fault intensity,
/// IDA threshold w-1, short detection timeout so recovery dominates.
CampaignConfig campaign_config(const MultiPathEmbedding& emb) {
  CampaignConfig cfg;
  cfg.seed = kCampaignSeed;
  cfg.trials = kCampaignTrials;
  cfg.schedule.window = 8;
  cfg.schedule.link_rate = 0.05;
  cfg.schedule.transient_fraction = 0.5;
  cfg.recovery.timeout = 4;
  cfg.recovery.max_retries = 5;
  cfg.recovery.threshold = emb.width() - 1;
  return cfg;
}

bool same_stats(const CampaignStats& a, const CampaignStats& b) {
  return a.digest == b.digest && a.trials == b.trials &&
         a.schedule_events == b.schedule_events &&
         a.messages_total == b.messages_total &&
         a.messages_complete == b.messages_complete &&
         a.messages_recovered == b.messages_recovered &&
         a.retransmissions == b.retransmissions &&
         a.fragments_lost == b.fragments_lost &&
         a.fragments_exhausted == b.fragments_exhausted &&
         a.trials_fully_delivered == b.trials_fully_delivered &&
         a.max_makespan == b.max_makespan && a.max_waves == b.max_waves &&
         a.recovery_latency == b.recovery_latency &&
         a.retransmit_generations == b.retransmit_generations &&
         a.trial_makespan == b.trial_makespan &&
         a.delivery_permille == b.delivery_permille;
}

/// Runs the campaign under a pool of `threads` workers.
CampaignStats run_at(const MultiPathEmbedding& emb, const CampaignConfig& cfg,
                     int threads) {
  par::TaskPool pool(threads);
  par::PoolScope scope(pool);
  return MonteCarloDriver(emb).run(cfg);
}

/// Gate 1: thread-count invariance of the whole campaign statistic set.
CampaignStats gated_campaign(const char* name, const MultiPathEmbedding& emb,
                             const CampaignConfig& cfg) {
  HP_PROFILE_SPAN("simulate");
  const CampaignStats t1 = run_at(emb, cfg, 1);
  const CampaignStats t2 = run_at(emb, cfg, 2);
  const CampaignStats t8 = run_at(emb, cfg, 8);
  if (!same_stats(t1, t2) || !same_stats(t1, t8)) {
    std::fprintf(stderr,
                 "FATAL: %s campaign diverges across thread counts "
                 "(digests %llx / %llx / %llx)\n",
                 name, static_cast<unsigned long long>(t1.digest),
                 static_cast<unsigned long long>(t2.digest),
                 static_cast<unsigned long long>(t8.digest));
    std::exit(1);
  }
  return t1;
}

void report_campaign(bench::Report& report, const std::string& prefix,
                     const CampaignStats& s) {
  report.digest(prefix + "_digest_hi", prefix + "_digest_lo", s.digest);
  report.metric(prefix + "_trials", s.trials, "count");
  report.metric(prefix + "_schedule_events", s.schedule_events, "count");
  report.metric(prefix + "_messages_total", s.messages_total, "count");
  report.metric(prefix + "_messages_complete", s.messages_complete, "count");
  report.metric(prefix + "_messages_recovered", s.messages_recovered, "count");
  report.metric(prefix + "_retransmissions", s.retransmissions, "count");
  report.metric(prefix + "_fragments_exhausted",
                s.fragments_exhausted, "count");
  report.metric(prefix + "_delivery_rate", s.delivery_rate(), "ratio");
  report.metric(prefix + "_survival_rate", s.survival_rate(), "ratio");
  report.metric(prefix + "_max_makespan", s.max_makespan, "steps");
  report.metric(prefix + "_max_waves", s.max_waves, "count");
  report.metric(prefix + "_recovery_latency_mean",
                s.recovery_latency.mean(), "steps");
  report.metric(prefix + "_recovery_latency_max",
                s.recovery_latency.max(), "steps");
  report.metric(prefix + "_retransmit_generations_mean",
                s.retransmit_generations.mean(), "count");
}

/// Gate 3: wave 0 of a fault-free trial is the p = w phase workload
/// (round-robin puts exactly one packet on each bundle path), so its
/// flight-measured peak congestion must obey the analytic bracket.
void congestion_bracket(bench::Report& report, const MultiPathEmbedding& emb,
                        const CampaignConfig& cfg) {
  Rng rng(trial_seed(cfg.seed, 0));
  RandomScheduleSpec calm = cfg.schedule;
  calm.link_rate = 0;
  calm.node_rate = 0;
  const FaultSchedule schedule =
      FaultSchedule::random(emb.host().dims(), calm, rng);
  obs::FlightRecorder rec;
  const RecoveryResult r = run_recovery(emb, schedule, cfg.recovery, &rec);
  const obs::TraceAnalysis a = obs::analyze_flights(rec);
  const PhaseCongestionBounds bounds =
      phase_congestion_bounds(emb, emb.width());
  if (r.messages_complete != r.messages_total || a.inconsistencies != 0 ||
      !bounds.contains(static_cast<std::int64_t>(a.peak_congestion))) {
    std::fprintf(stderr,
                 "FATAL: fault-free campaign trial outside congestion "
                 "bracket: peak %llu not in [%lld, %lld] (delivered %zu/%zu, "
                 "%llu inconsistencies)\n",
                 static_cast<unsigned long long>(a.peak_congestion),
                 static_cast<long long>(bounds.floor),
                 static_cast<long long>(bounds.ceiling), r.messages_complete,
                 r.messages_total,
                 static_cast<unsigned long long>(a.inconsistencies));
    std::exit(1);
  }
  std::printf("congestion bracket: fault-free peak %llu in [%lld, %lld]\n\n",
              static_cast<unsigned long long>(a.peak_congestion),
              static_cast<long long>(bounds.floor),
              static_cast<long long>(bounds.ceiling));
  report.metric("congestion_floor", bounds.floor, "count");
  report.metric("congestion_ceiling", bounds.ceiling, "count");
  report.metric("congestion_peak", a.peak_congestion, "count");
  report.metric("congestion_in_bounds",
                bounds.contains(static_cast<std::int64_t>(a.peak_congestion))
                    ? 1
                    : 0, "count");
}

std::string rate_tag(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "r%03d",
                static_cast<int>(rate * 1000 + 0.5));
  return buf;
}

void print_table(bench::Report& report) {
  const int n = 8;
  const auto multi = [&] {
    HP_PROFILE_SPAN("construct");
    return theorem1_cycle_embedding(n);
  }();
  const auto gray = gray_code_cycle_embedding(n);
  const auto multi10 = theorem1_cycle_embedding(10);

  const CampaignConfig cfg8 = campaign_config(multi);
  const CampaignConfig cfg10 = campaign_config(multi10);

  // Gate 1 on both hosts, then the full streamed statistics of each.
  const CampaignStats q8 = gated_campaign("Q_8", multi, cfg8);
  const CampaignStats q10 = gated_campaign("Q_10", multi10, cfg10);

  bench::Table t(
      "E18: Monte-Carlo fault campaigns (1000 trials, link rate 0.05)",
      {"host", "width", "trials", "delivery", "survival", "retransmits",
       "exhausted", "rec lat mean", "max waves", "digest"});
  const auto campaign_row = [&](const char* host, int width,
                                const CampaignStats& s) {
    char digest[20];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(s.digest));
    t.row(host, width, s.trials, s.delivery_rate(), s.survival_rate(),
          s.retransmissions, s.fragments_exhausted, s.recovery_latency.mean(),
          s.max_waves, std::string(digest));
  };
  campaign_row("Q_8", multi.width(), q8);
  campaign_row("Q_10", multi10.width(), q10);
  t.print();

  report.param("n", n);
  report.param("width", multi.width());
  report.param("trials", kCampaignTrials);
  report.param("seed", kCampaignSeed);
  report.param("link_rate", cfg8.schedule.link_rate);
  report.param("timeout", cfg8.recovery.timeout);
  report.param("max_retries", cfg8.recovery.max_retries);
  report_campaign(report, "q8", q8);
  report_campaign(report, "q10", q10);

  // Gate 2: the failure envelope.  Same seeds at every intensity (common
  // random numbers), theorem1+ida vs gray on Q_8.
  const std::vector<double> rates = {0.01, 0.03, 0.06, 0.10,
                                     0.15, 0.22, 0.32, 0.45};
  CampaignConfig env_cfg = cfg8;
  env_cfg.trials = 250;
  CampaignConfig gray_cfg = env_cfg;
  gray_cfg.recovery.threshold = 0;  // width 1: every fragment must arrive

  par::TaskPool pool(8);
  par::PoolScope scope(pool);
  const auto multi_env = [&] {
    HP_PROFILE_SPAN("simulate");
    return sweep_envelope(multi, env_cfg, rates);
  }();
  const auto gray_env = sweep_envelope(gray, gray_cfg, rates);

  bench::Table e("E18: failure envelope on Q_8 (250 trials per point)",
                 {"link rate", "multi delivery", "multi survival",
                  "gray delivery", "gray survival", "advantage"});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double md = multi_env[i].stats.delivery_rate();
    const double gd = gray_env[i].stats.delivery_rate();
    if (md < gd) {
      std::fprintf(stderr,
                   "FATAL: theorem1+ida delivery %.4f below gray %.4f at "
                   "link rate %.2f\n",
                   md, gd, rates[i]);
      std::exit(1);
    }
    e.row(rates[i], md, multi_env[i].stats.survival_rate(), gd,
          gray_env[i].stats.survival_rate(), md - gd);
    const std::string tag = rate_tag(rates[i]);
    report.metric("multi_delivery_" + tag, md, "ratio");
    report.metric("multi_survival_" + tag,
                  multi_env[i].stats.survival_rate(), "ratio");
    report.metric("gray_delivery_" + tag, gd, "ratio");
    report.metric("gray_survival_" + tag,
                  gray_env[i].stats.survival_rate(), "ratio");
  }
  e.print();

  const double multi_critical = critical_fault_rate(multi_env, 0.99);
  const double gray_critical = critical_fault_rate(gray_env, 0.99);
  std::printf("critical link rate (delivery < 99%%): theorem1+ida %.4f, "
              "gray %.4f\n\n",
              multi_critical, gray_critical);
  report.metric("multi_critical_rate", multi_critical, "ratio");
  report.metric("gray_critical_rate", gray_critical, "ratio");

  congestion_bracket(report, multi, cfg8);

  report.table(t);
  report.table(e);
}

void BM_CampaignQ8(benchmark::State& state) {
  const auto emb = theorem1_cycle_embedding(8);
  CampaignConfig cfg = campaign_config(emb);
  cfg.trials = static_cast<std::uint32_t>(state.range(0));
  const MonteCarloDriver driver(emb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(driver.run(cfg).digest);
  }
  state.SetItemsProcessed(state.iterations() * cfg.trials);
}
BENCHMARK(BM_CampaignQ8)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_CampaignTrial(benchmark::State& state) {
  const auto emb = theorem1_cycle_embedding(8);
  const CampaignConfig cfg = campaign_config(emb);
  const MonteCarloDriver driver(emb);
  std::uint32_t trial = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        driver.run_trial(cfg, trial++ % cfg.trials).messages_complete);
  }
}
BENCHMARK(BM_CampaignTrial)->Unit(benchmark::kMicrosecond);

void BM_RandomSchedule(benchmark::State& state) {
  RandomScheduleSpec spec;
  spec.link_rate = 0.05;
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FaultSchedule::random(10, spec, rng).size());
  }
}
BENCHMARK(BM_RandomSchedule);

}  // namespace
}  // namespace hyperpath

int main(int argc, char** argv) {
  hyperpath::bench::Report report("mc", &argc, argv);
  hyperpath::print_table(report);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
