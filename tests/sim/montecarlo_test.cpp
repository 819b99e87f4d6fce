// The Monte-Carlo campaign engine's determinism contract (sim/montecarlo.hpp):
// campaign statistics are a pure function of (embedding, config) — never of
// the pool's thread count or how the trial range is partitioned across
// runs.  Plus unit coverage for the randomized schedule
// generator and the failure-envelope interpolation.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "base/error.hpp"
#include "core/cycle_multipath.hpp"
#include "embed/classical.hpp"
#include "par/task_pool.hpp"
#include "sim/montecarlo.hpp"

namespace hyperpath {
namespace {

const int kThreadCounts[] = {1, 2, 8};

/// Small but non-trivial campaign: faults dense enough that most trials
/// exercise loss, retransmission and (for transients) repair.
CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.seed = 7;
  cfg.trials = 40;
  cfg.schedule.link_rate = 0.08;
  cfg.schedule.transient_fraction = 0.5;
  cfg.recovery.timeout = 4;
  cfg.recovery.max_retries = 4;
  return cfg;
}

void expect_same_stats(const CampaignStats& a, const CampaignStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.digest, b.digest) << label;
  EXPECT_EQ(a.trials, b.trials) << label;
  EXPECT_EQ(a.schedule_events, b.schedule_events) << label;
  EXPECT_EQ(a.messages_total, b.messages_total) << label;
  EXPECT_EQ(a.messages_complete, b.messages_complete) << label;
  EXPECT_EQ(a.messages_recovered, b.messages_recovered) << label;
  EXPECT_EQ(a.retransmissions, b.retransmissions) << label;
  EXPECT_EQ(a.fragments_lost, b.fragments_lost) << label;
  EXPECT_EQ(a.fragments_exhausted, b.fragments_exhausted) << label;
  EXPECT_EQ(a.trials_fully_delivered, b.trials_fully_delivered) << label;
  EXPECT_EQ(a.max_makespan, b.max_makespan) << label;
  EXPECT_EQ(a.max_waves, b.max_waves) << label;
  EXPECT_EQ(a.recovery_latency, b.recovery_latency) << label;
  EXPECT_EQ(a.retransmit_generations, b.retransmit_generations) << label;
  EXPECT_EQ(a.trial_makespan, b.trial_makespan) << label;
  EXPECT_EQ(a.delivery_permille, b.delivery_permille) << label;
}

CampaignStats run_at(const MultiPathEmbedding& emb, const CampaignConfig& cfg,
                     int threads) {
  par::TaskPool pool(threads);
  par::PoolScope scope(pool);
  return MonteCarloDriver(emb).run(cfg);
}

TEST(MonteCarloCampaign, DigestBitIdenticalAcrossThreadCounts) {
  const auto emb = theorem1_cycle_embedding(6);
  CampaignConfig cfg = small_config();
  cfg.recovery.threshold = emb.width() - 1;
  const CampaignStats base = run_at(emb, cfg, 1);
  EXPECT_GT(base.retransmissions, 0u);  // the campaign must exercise recovery
  for (int threads : kThreadCounts) {
    expect_same_stats(base, run_at(emb, cfg, threads),
                      "threads=" + std::to_string(threads));
  }
}

// `hyperpath_cli campaign 10` at its defaults — 1000 trials, seed 1,
// link rate 0.05, IDA threshold w − 1 — pinned to its digest, the value
// hpbench's campaign_q10 checks too.
TEST(MonteCarloCampaign, Q10CliDefaultsDigestIsPinned) {
  const MultiPathEmbedding emb = theorem1_cycle_embedding(10);
  CampaignConfig cfg;
  cfg.recovery.threshold = emb.width() - 1;
  const CampaignStats stats = MonteCarloDriver(emb).run(cfg);
  EXPECT_EQ(stats.trials, 1000u);
  EXPECT_EQ(stats.digest, 0x3f73a5571ef0e3b5ull);
}

TEST(MonteCarloCampaign, PartitionedTrialRangeMergesToTheWholeCampaign) {
  const auto emb = theorem1_cycle_embedding(6);
  CampaignConfig cfg = small_config();
  cfg.recovery.threshold = emb.width() - 1;
  const CampaignStats whole = run_at(emb, cfg, 2);

  // Resume scenario: the first 17 trials ran earlier (on one pool), the
  // remaining 23 run later (on another); merging reproduces the campaign.
  CampaignConfig head = cfg, tail = cfg;
  head.trial_end = 17;
  tail.trial_begin = 17;
  CampaignStats merged = run_at(emb, head, 8);
  merged.merge(run_at(emb, tail, 1));
  expect_same_stats(whole, merged, "partitioned");
}

TEST(MonteCarloCampaign, FaultReplayOnlyModeIsDeterministicToo) {
  // max_retries = 0: pure fault replay, no recovery waves — the other
  // campaign mode CI pins across thread counts.
  const auto emb = theorem1_cycle_embedding(6);
  CampaignConfig cfg = small_config();
  cfg.recovery.threshold = emb.width() - 1;
  cfg.recovery.max_retries = 0;
  const CampaignStats base = run_at(emb, cfg, 1);
  EXPECT_EQ(base.retransmissions, 0u);
  for (int threads : kThreadCounts) {
    expect_same_stats(base, run_at(emb, cfg, threads),
                      "replay threads=" + std::to_string(threads));
  }
}

TEST(MonteCarloCampaign, FaultFreeCampaignDeliversEverything) {
  const auto emb = theorem1_cycle_embedding(6);
  CampaignConfig cfg = small_config();
  cfg.recovery.threshold = emb.width() - 1;
  cfg.schedule.link_rate = 0;
  cfg.schedule.node_rate = 0;
  const CampaignStats s = run_at(emb, cfg, 2);
  EXPECT_EQ(s.trials, cfg.trials);
  EXPECT_EQ(s.schedule_events, 0u);
  EXPECT_DOUBLE_EQ(s.delivery_rate(), 1.0);
  EXPECT_DOUBLE_EQ(s.survival_rate(), 1.0);
  EXPECT_EQ(s.retransmissions, 0u);
  EXPECT_EQ(s.fragments_lost, 0u);
  EXPECT_EQ(s.max_waves, 1);
}

TEST(MonteCarloCampaign, SeedSelectsADifferentCampaign) {
  const auto emb = theorem1_cycle_embedding(6);
  CampaignConfig cfg = small_config();
  cfg.recovery.threshold = emb.width() - 1;
  CampaignConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_NE(run_at(emb, cfg, 2).digest, run_at(emb, other, 2).digest);
}

TEST(MonteCarloCampaign, RunTrialReproducesTheCampaignTrial) {
  const auto emb = theorem1_cycle_embedding(6);
  CampaignConfig cfg = small_config();
  cfg.recovery.threshold = emb.width() - 1;
  const MonteCarloDriver driver(emb);
  FaultSchedule s1(1), s2(1);
  const RecoveryResult r1 = driver.run_trial(cfg, 11, &s1);
  const RecoveryResult r2 = driver.run_trial(cfg, 11, &s2);
  EXPECT_EQ(s1.events(), s2.events());
  const TrialOutcome t1 =
      MonteCarloDriver::summarize(11, static_cast<std::uint32_t>(s1.size()), r1);
  const TrialOutcome t2 =
      MonteCarloDriver::summarize(11, static_cast<std::uint32_t>(s2.size()), r2);
  EXPECT_EQ(t1.digest(), t2.digest());
  EXPECT_EQ(r1.messages_total, emb.guest().num_edges());
}

TEST(MonteCarloCampaign, TrialSeedsAreDistinctAndSeedKeyed) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t t = 0; t < 4096; ++t) {
    seen.insert(trial_seed(1, t));
  }
  EXPECT_EQ(seen.size(), 4096u);
  EXPECT_NE(trial_seed(1, 0), trial_seed(2, 0));
}

TEST(MonteCarloCampaign, WiderBundlesDeliverAtLeastAsWellAsGray) {
  const auto multi = theorem1_cycle_embedding(6);
  const auto gray = gray_code_cycle_embedding(6);
  CampaignConfig cfg = small_config();
  cfg.trials = 24;
  cfg.schedule.link_rate = 0.12;
  cfg.recovery.threshold = multi.width() - 1;
  CampaignConfig gray_cfg = cfg;
  gray_cfg.recovery.threshold = 0;
  const double md = run_at(multi, cfg, 2).delivery_rate();
  const double gd = run_at(gray, gray_cfg, 2).delivery_rate();
  EXPECT_GE(md, gd);
}

TEST(MonteCarloCampaign, RejectsMalformedConfigs) {
  const auto emb = theorem1_cycle_embedding(6);
  const MonteCarloDriver driver(emb);
  CampaignConfig empty = small_config();
  empty.trial_begin = 10;
  empty.trial_end = 10;
  EXPECT_THROW(driver.run(empty), Error);
}

EnvelopePoint point(double rate, std::uint64_t total, std::uint64_t done) {
  EnvelopePoint p;
  p.link_rate = rate;
  p.stats.messages_total = total;
  p.stats.messages_complete = done;
  return p;
}

TEST(MonteCarloEnvelope, CriticalRateInterpolatesBetweenSweepPoints) {
  // delivery 1.00 at rate 0.1, 0.90 at rate 0.2: the 0.95 crossing sits
  // exactly halfway.
  const std::vector<EnvelopePoint> env = {point(0.1, 100, 100),
                                          point(0.2, 100, 90)};
  EXPECT_DOUBLE_EQ(critical_fault_rate(env, 0.95), 0.15);
  // Never drops below the threshold.
  EXPECT_DOUBLE_EQ(critical_fault_rate(env, 0.5), -1.0);
  // Already below at the first point.
  EXPECT_DOUBLE_EQ(critical_fault_rate(env, 1.5), 0.1);
}

TEST(MonteCarloEnvelope, SweepSharesSeedsAcrossIntensities) {
  const auto emb = theorem1_cycle_embedding(6);
  CampaignConfig cfg = small_config();
  cfg.trials = 12;
  cfg.recovery.threshold = emb.width() - 1;
  par::TaskPool pool(2);
  par::PoolScope scope(pool);
  const auto env = sweep_envelope(emb, cfg, {0.0, 0.1});
  ASSERT_EQ(env.size(), 2u);
  EXPECT_DOUBLE_EQ(env[0].stats.delivery_rate(), 1.0);  // fault-free point
  // The rate-0.1 point is the same campaign small_config would run directly.
  CampaignConfig direct = cfg;
  direct.schedule.link_rate = 0.1;
  expect_same_stats(env[1].stats, MonteCarloDriver(emb).run(direct), "sweep");
}

TEST(MonteCarloSchedule, RandomScheduleHonoursTheSpec) {
  const int dims = 6;
  const Hypercube q(dims);
  RandomScheduleSpec spec;
  spec.window = 5;
  spec.link_rate = 0.1;
  spec.node_rate = 0.05;
  spec.transient_fraction = 0.5;
  spec.min_repair = 2;
  spec.max_repair = 9;
  Rng rng(99);
  const FaultSchedule s = FaultSchedule::random(dims, spec, rng);
  EXPECT_EQ(s.dims(), dims);

  const auto expect_count = [](double rate, std::uint64_t total) {
    return static_cast<std::uint64_t>(rate * static_cast<double>(total) + 0.5);
  };
  std::uint64_t link_downs = 0, node_downs = 0;
  for (const FaultEvent& e : s.events()) {
    switch (e.kind) {
      case FaultEventKind::kLinkDown:
        ++link_downs;
        EXPECT_LT(e.step, spec.window);
        break;
      case FaultEventKind::kNodeDown:
        ++node_downs;
        EXPECT_LT(e.step, spec.window);
        break;
      case FaultEventKind::kLinkUp:
      case FaultEventKind::kNodeUp:
        // Repairs land after their fault, inside the repair-delay range.
        EXPECT_GE(e.step, spec.min_repair);
        EXPECT_LT(e.step, spec.window + spec.max_repair);
        break;
    }
    EXPECT_GE(e.step, 0);
  }
  EXPECT_EQ(link_downs, expect_count(spec.link_rate, q.num_undirected_edges()));
  EXPECT_EQ(node_downs, expect_count(spec.node_rate, q.num_nodes()));
}

TEST(MonteCarloSchedule, RateClampsToThePhysicalLinkCount) {
  RandomScheduleSpec spec;
  spec.link_rate = 9.0;  // far beyond every link
  spec.transient_fraction = 0;
  Rng rng(3);
  const FaultSchedule s = FaultSchedule::random(3, spec, rng);
  const Hypercube q(3);
  EXPECT_EQ(s.size(), q.num_undirected_edges());  // each link cut exactly once
}

TEST(MonteCarloSchedule, RejectsMalformedSpecs) {
  Rng rng(1);
  RandomScheduleSpec bad;
  bad.window = 0;
  EXPECT_THROW(FaultSchedule::random(4, bad, rng), Error);
  bad = {};
  bad.transient_fraction = 1.5;
  EXPECT_THROW(FaultSchedule::random(4, bad, rng), Error);
  bad = {};
  bad.min_repair = 0;
  EXPECT_THROW(FaultSchedule::random(4, bad, rng), Error);
  bad = {};
  bad.link_rate = -0.1;
  EXPECT_THROW(FaultSchedule::random(4, bad, rng), Error);
}

}  // namespace
}  // namespace hyperpath
