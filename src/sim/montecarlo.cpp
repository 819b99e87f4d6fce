#include "sim/montecarlo.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "obs/profile.hpp"
#include "par/task_pool.hpp"

namespace hyperpath {

namespace {

/// Trials per pool task; any value gives the same statistics.
constexpr std::size_t kTrialsPerChunk = 8;

/// splitmix64 finalizer (same constants as base/rng.cpp's seeding stage).
std::uint64_t mix64(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ull;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z;
}

/// CDF-friendly permille buckets for per-trial delivery rates: dense near
/// 1000 where reliability curves live.
std::vector<double> permille_bounds() {
  return {0, 250, 500, 750, 900, 950, 990, 999, 1000};
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t campaign_seed, std::uint64_t trial) {
  return mix64(campaign_seed ^ mix64((trial + 1) * 0x9e3779b97f4a7c15ull));
}

std::uint64_t TrialOutcome::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  const auto fold = [&h](std::uint64_t v) { h = mix64(h ^ v); };
  fold(trial);
  fold(events);
  fold(messages);
  fold(complete);
  fold(recovered);
  fold(retransmissions);
  fold(fragments_lost);
  fold(fragments_exhausted);
  fold(latency_steps);
  fold(static_cast<std::uint64_t>(static_cast<std::uint32_t>(makespan)));
  fold(static_cast<std::uint64_t>(static_cast<std::uint32_t>(waves)));
  return h;
}

CampaignStats::CampaignStats()
    : recovery_latency(obs::FixedHistogram::exponential()),
      retransmit_generations(obs::FixedHistogram::exponential(8)),
      trial_makespan(obs::FixedHistogram::exponential()),
      delivery_permille(obs::FixedHistogram(permille_bounds())) {}

void CampaignStats::add_trial(const TrialOutcome& t) {
  ++trials;
  schedule_events += t.events;
  messages_total += t.messages;
  messages_complete += t.complete;
  messages_recovered += t.recovered;
  retransmissions += t.retransmissions;
  fragments_lost += t.fragments_lost;
  fragments_exhausted += t.fragments_exhausted;
  trials_fully_delivered += (t.complete == t.messages) ? 1 : 0;
  max_makespan = std::max(max_makespan, static_cast<int>(t.makespan));
  max_waves = std::max(max_waves, static_cast<int>(t.waves));
  trial_makespan.observe(static_cast<double>(t.makespan));
  const double permille =
      t.messages ? 1000.0 * static_cast<double>(t.complete) / t.messages
                 : 1000.0;
  delivery_permille.observe(permille);
  digest += t.digest();  // wrapping, order-insensitive
}

void CampaignStats::merge(const CampaignStats& other) {
  trials += other.trials;
  schedule_events += other.schedule_events;
  messages_total += other.messages_total;
  messages_complete += other.messages_complete;
  messages_recovered += other.messages_recovered;
  retransmissions += other.retransmissions;
  fragments_lost += other.fragments_lost;
  fragments_exhausted += other.fragments_exhausted;
  trials_fully_delivered += other.trials_fully_delivered;
  max_makespan = std::max(max_makespan, other.max_makespan);
  max_waves = std::max(max_waves, other.max_waves);
  recovery_latency.merge(other.recovery_latency);
  retransmit_generations.merge(other.retransmit_generations);
  trial_makespan.merge(other.trial_makespan);
  delivery_permille.merge(other.delivery_permille);
  digest += other.digest;
}

TrialOutcome MonteCarloDriver::summarize(std::uint32_t trial,
                                         std::uint32_t events,
                                         const RecoveryResult& r) {
  TrialOutcome t;
  t.trial = trial;
  t.events = events;
  t.messages = static_cast<std::uint32_t>(r.messages_total);
  t.complete = static_cast<std::uint32_t>(r.messages_complete);
  t.recovered = static_cast<std::uint32_t>(r.messages_recovered);
  t.retransmissions = r.retransmissions;
  t.fragments_lost = r.fragments_lost;
  t.fragments_exhausted = r.fragments_exhausted;
  for (const MessageOutcome& m : r.messages) {
    if (m.recovered()) {
      t.latency_steps +=
          static_cast<std::uint64_t>(m.complete_step - m.first_loss_step);
    }
  }
  t.makespan = r.makespan;
  t.waves = r.waves;
  return t;
}

MonteCarloDriver::MonteCarloDriver(const MultiPathEmbedding& emb)
    : oracle_(emb), edges_(all_guest_edges(oracle_)) {}

RecoveryResult MonteCarloDriver::run_trial(const CampaignConfig& config,
                                           std::uint32_t trial,
                                           FaultSchedule* schedule_out) const {
  Rng rng(trial_seed(config.seed, trial));
  FaultSchedule schedule =
      FaultSchedule::random(oracle_.host_dims(), config.schedule, rng);
  RecoveryResult r =
      run_recovery(oracle_, edges_, schedule, config.recovery);
  if (schedule_out) *schedule_out = std::move(schedule);
  return r;
}

CampaignStats MonteCarloDriver::run(const CampaignConfig& config) const {
  HP_PROFILE_SPAN("sim/montecarlo");
  const std::uint32_t begin = config.trial_begin;
  const std::uint32_t end =
      config.trial_end ? config.trial_end : config.trials;
  HP_CHECK(begin < end, "empty campaign trial range");

  // One CampaignStats per chunk, folded in ascending chunk order.  The sum
  // digest is order-insensitive anyway; the ordered fold makes every other
  // aggregate (histogram merges, maxima) deterministic by construction.
  CampaignStats stats = par::parallel_reduce(
      begin, end, kTrialsPerChunk, CampaignStats{},
      [&](std::size_t lo, std::size_t hi) {
        CampaignStats chunk;
        for (std::size_t i = lo; i < hi; ++i) {
          const auto trial = static_cast<std::uint32_t>(i);
          FaultSchedule schedule(oracle_.host_dims());
          const RecoveryResult r = run_trial(config, trial, &schedule);
          const TrialOutcome t = summarize(
              trial, static_cast<std::uint32_t>(schedule.size()), r);
          chunk.add_trial(t);
          chunk.recovery_latency.merge(r.recovery_latency);
          for (const MessageOutcome& m : r.messages) {
            if (m.recovered()) {
              chunk.retransmit_generations.observe(
                  static_cast<double>(m.retransmissions));
            }
          }
        }
        return chunk;
      },
      [](CampaignStats acc, CampaignStats part) {
        acc.merge(part);
        return acc;
      });

  return stats;
}

std::vector<EnvelopePoint> sweep_envelope(
    const MultiPathEmbedding& emb, const CampaignConfig& base,
    const std::vector<double>& link_rates) {
  HP_PROFILE_SPAN("sim/montecarlo_envelope");
  MonteCarloDriver driver(emb);
  std::vector<EnvelopePoint> envelope;
  envelope.reserve(link_rates.size());
  for (double rate : link_rates) {
    CampaignConfig cfg = base;
    cfg.schedule.link_rate = rate;
    EnvelopePoint point;
    point.link_rate = rate;
    point.stats = driver.run(cfg);
    envelope.push_back(std::move(point));
  }
  return envelope;
}

double critical_fault_rate(const std::vector<EnvelopePoint>& envelope,
                           double threshold) {
  for (std::size_t i = 0; i < envelope.size(); ++i) {
    const double d = envelope[i].stats.delivery_rate();
    if (d >= threshold) continue;
    if (i == 0) return envelope[0].link_rate;
    const double d0 = envelope[i - 1].stats.delivery_rate();
    const double r0 = envelope[i - 1].link_rate;
    const double r1 = envelope[i].link_rate;
    const double span = d0 - d;
    if (span <= 0) return r1;
    return r0 + (r1 - r0) * (d0 - threshold) / span;
  }
  return -1.0;
}

}  // namespace hyperpath
