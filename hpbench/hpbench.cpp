// hpbench: end-to-end benchmark of the shipped pipelines.
//
//   hpbench --workload NAME --seed N --seconds S --trace 0|1
//
// One invocation runs one workload in its own process on a one-thread
// par pool, calling only the library's public entry points:
//
//   oracle_phase_q24  run_oracle_phase on the algebraic Q_24 torus oracle
//   mat_phase_q16     StoreForwardSim::run over a materialized Q_16 phase
//   campaign_q10      MonteCarloDriver::run, 1000 trials on Q_10
//   route_verify_q30  oracle_sample_check on the algebraic Q_30 torus oracle
//
// BENCHMARK.json runs the first two; the traced runs of those also trace
// the last two (see side_workload()).
//
// Every timing is process CPU time (see timed()).  The end-to-end timings
// are then scaled to a reference memory speed measured in the same run
// (see MemoryProbe); the raw and wall-clock figures are printed beside
// them as records.
//
// A run is: set-up repeated several times (median seconds per set-up), a
// cold pass that also serves as the warm-up, one pass on the workload's
// pinned default seed where it has one (checked against the pinned
// values), then warm passes for --seconds seconds, then the rest of the
// set-up samples.  Every pass is checked; a pass that throws or
// mismatches counts as failed.
//
// --trace 1 is a separate mode: after a few untraced passes it runs traced
// passes, which re-run the public sub-calls of a pass from outside the
// library (probes) just before the real call, and splits the real call's
// time into per-layer self times.  Layers the probes cannot reach are the
// real call minus the probed sub-calls, marked "inferred" in the records.
//
// Output: one JSON record {name, value, unit, class} per line, class one of
// exact|timing|memory|rate, then, as the last line, the result object
// {correct, attempted, failed, metrics}.  The exit status is non-zero when
// any check failed.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/algebraic_oracle.hpp"
#include "core/cycle_multipath.hpp"
#include "core/lower_bounds.hpp"
#include "embed/path_oracle.hpp"
#include "par/task_pool.hpp"
#include "sim/montecarlo.hpp"
#include "sim/oracle_sim.hpp"
#include "sim/phase.hpp"
#include "sim/simcore.hpp"
#include "sim/store_forward.hpp"

namespace {

using namespace hyperpath;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds of this process, all threads.  On this kernel
/// (PARAVIRT_TIME_ACCOUNTING) it excludes the time the hypervisor runs
/// another guest on our vCPU, which wall time includes.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/// Process CPU seconds spent in f().  Every timing the benchmark reports
/// as a metric is taken with this clock; see README.md for why.
template <class F>
double timed(F&& f) {
  const double t0 = cpu_now();
  f();
  return cpu_now() - t0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Peak resident set of this process image, in MiB.  VmHWM is reset by
/// exec; ru_maxrss is not, so it would also count the launcher's peak
/// (the Python wrapper's ~14 MiB exceeds the small workloads' own).
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f)) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atol(line + 6);
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Record {
  std::string name;
  double value;
  std::string unit;
  std::string cls;  // exact | timing | memory | rate
  bool inferred = false;  // a remainder by subtraction, not a probe's time
};

/// Per-layer times of one traced pass.  `pass_s` is the real call's time;
/// `layers` partitions it (measured probes plus inferred remainders).
struct TracedPass {
  double pass_s = 0;
  double probe_s = 0;  // time spent in the outside probes themselves
  std::vector<Record> layers;
};

/// Streams into nothing but a count, so path generation can be timed on
/// its own.
class CountingSink final : public NodeSink {
 public:
  void push(Node) override { ++nodes; }
  std::uint64_t nodes = 0;
};

/// What check() does with the stored reference result of the run's seed.
enum class Ref { kStore, kCompare, kIgnore };

/// The per-workload hooks the harness drives.  Every check returns false
/// (or throws) on a mismatch; the harness counts it as a failed pass.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-ups timed per sample, and samples per run (median reported).
  virtual int setups_per_sample() const = 0;
  virtual int setup_samples() const = 0;
  /// One complete set-up; adds each layer's seconds to `layers`.
  virtual void setup(std::map<std::string, double>& layers) = 0;
  /// Generates the inputs for `seed` (outside every timed region).
  virtual void prepare(std::uint64_t seed) = 0;
  /// The timed unit of a pass: the library's entry point on the inputs.
  virtual void pass() = 0;
  /// Checks the last pass's invariants and, per `ref`, stores it as the
  /// reference or requires it to match the stored reference exactly.
  virtual bool check(Ref ref) = 0;
  /// Pinned values at the workload's default seed (none by default).
  virtual std::optional<std::uint64_t> pinned_seed() const {
    return std::nullopt;
  }
  virtual bool check_pinned() { return true; }
  /// Units of work in one pass (of the reference result).
  virtual double work_units() const = 0;
  virtual std::vector<Record> exact_counts() const = 0;
  virtual TracedPass traced_pass() = 0;
};

// --- oracle_phase_q24 --------------------------------------------------------

class OraclePhaseQ24 final : public Workload {
 public:
  int setups_per_sample() const override { return 20000; }
  int setup_samples() const override { return 9; }

  void setup(std::map<std::string, double>& layers) override {
    oracle_.reset();
    layers["core.oracle_build_s"] += timed([&] {
      oracle_ = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
    });
  }

  void prepare(std::uint64_t seed) override {
    edges_ = sample_guest_edges(*oracle_, kEdges, seed);
    floor_ = oracle_phase_floor(*oracle_, edges_, kP).floor;
  }

  void pass() override {
    OraclePhaseSpec spec;
    spec.packets_per_edge = kP;
    last_ = run_oracle_phase(*oracle_, edges_, spec);
  }

  bool check(Ref ref) override {
    const OraclePhaseResult& r = last_;
    if (r.delivered != kEdges * kP) return false;
    if (static_cast<std::int64_t>(r.peak_congestion) < floor_) return false;
    if (ref != Ref::kCompare) {
      if (ref == Ref::kStore) ref_ = r;
      return true;
    }
    return same(*ref_, r);
  }

  std::optional<std::uint64_t> pinned_seed() const override { return 7; }
  bool check_pinned() override {
    // bench_oracle O3 at seed 7.
    return last_.makespan == 16 && last_.peak_congestion == 14 &&
           floor_ == 3 && last_.unique_links == 649478;
  }

  double work_units() const override {
    return static_cast<double>(ref_->total_transmissions);
  }

  std::vector<Record> exact_counts() const override {
    const OraclePhaseResult& r = *ref_;
    return {{"oracle_phase.packets", double(kEdges * kP), "count", "exact"},
            {"oracle_phase.makespan", double(r.makespan), "steps", "exact"},
            {"oracle_phase.transmissions", double(r.total_transmissions),
             "count", "exact"},
            {"oracle_phase.peak_congestion", double(r.peak_congestion),
             "count", "exact"},
            {"oracle_phase.floor", double(floor_), "count", "exact"},
            {"oracle_phase.max_queue", double(r.max_queue), "count", "exact"},
            {"oracle_phase.unique_links", double(r.unique_links), "count",
             "exact"},
            {"oracle_phase.route_nodes", double(r.route_nodes), "count",
             "exact"},
            {"sim.oracle_compiled_bytes", double(r.compiled_bytes), "B",
             "memory"}};
  }

  TracedPass traced_pass() override {
    // Probe 1: every demanded path streamed into a counting sink, in the
    // order run_oracle_phase compiles them (bundle sorted by length).
    CountingSink sink;
    std::uint64_t paths = 0;
    const double gen_s = timed([&] {
      for_each_packet([&](const OracleEdge& e, int index) {
        oracle_->path(e, index, sink);
        ++paths;
      });
    });
    // Probe 2: the same routes compiled through add_oracle_route.
    std::uint64_t glinks_size = 0;
    std::uint64_t routes = 0;
    const double compile_s = timed([&] {
      simcore::RoutePlan plan;
      std::vector<std::uint64_t> glinks;
      for_each_packet([&](const OracleEdge& e, int index) {
        add_oracle_route(*oracle_, e, index, 0, plan, glinks);
      });
      glinks_size = glinks.size();
      routes = plan.num_routes();
    });
    TracedPass t;
    t.pass_s = timed([&] { pass(); });
    t.probe_s = gen_s + compile_s;
    if (!check(Ref::kCompare) || paths != kEdges * kP || routes != paths ||
        sink.nodes != ref_->route_nodes ||
        glinks_size != ref_->total_transmissions) {
      throw Error("oracle_phase_q24: traced probes disagree with the pass");
    }
    t.layers = {
        {"embed.path_gen_s", gen_s, "s", "timing"},
        {"embed.path_gen_paths_per_s", double(paths) / gen_s, "1/s", "rate"},
        {"sim.oracle_compile_s", std::max(0.0, compile_s - gen_s), "s",
         "timing", true},
        {"sim.oracle_renumber_sweep_s", std::max(0.0, t.pass_s - compile_s),
         "s", "timing", true},
        {"sim.oracle_compiled_bytes", double(ref_->compiled_bytes), "B",
         "memory"}};
    return t;
  }

 private:
  static constexpr std::uint64_t kEdges = 50000;
  static constexpr int kP = 32;

  static bool same(const OraclePhaseResult& a, const OraclePhaseResult& b) {
    return a.makespan == b.makespan && a.delivered == b.delivered &&
           a.total_transmissions == b.total_transmissions &&
           a.peak_congestion == b.peak_congestion &&
           a.max_queue == b.max_queue && a.unique_links == b.unique_links &&
           a.route_nodes == b.route_nodes &&
           a.compiled_bytes == b.compiled_bytes &&
           a.dim_transmissions == b.dim_transmissions;
  }

  /// run_oracle_phase's packet order: per edge, bundle indices
  /// stable-sorted by path length, packet j on order[j mod width].
  template <class F>
  void for_each_packet(F&& f) const {
    std::vector<int> order;
    for (const OracleEdge& e : edges_) {
      const int w = oracle_->width(e);
      order.resize(w);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return oracle_->path_hops(e, a) < oracle_->path_hops(e, b);
      });
      for (int j = 0; j < kP; ++j) f(e, order[j % w]);
    }
  }

  std::unique_ptr<PathOracle> oracle_;
  std::vector<OracleEdge> edges_;
  std::int64_t floor_ = 0;
  OraclePhaseResult last_;
  std::optional<OraclePhaseResult> ref_;
};

// --- mat_phase_q16 -----------------------------------------------------------

class MatPhaseQ16 final : public Workload {
 public:
  int setups_per_sample() const override { return 1; }
  int setup_samples() const override { return 9; }

  void setup(std::map<std::string, double>& layers) override {
    packets_.clear();
    packets_.shrink_to_fit();
    emb_.reset();  // never hold two Q_16 embeddings at once
    layers["core.construct_s"] +=
        timed([&] { emb_.emplace(theorem1_cycle_embedding(kN)); });
    layers["sim.phase_packets_s"] +=
        timed([&] { packets_ = phase_packets(*emb_, kP); });
  }

  void prepare(std::uint64_t) override {
    // The phase is the whole guest: no seeded input.  Static facts of the
    // packet set every pass is checked against.
    hops_ = 0;
    max_hops_ = 0;
    std::vector<std::uint32_t> load(emb_->host().num_directed_edges(), 0);
    for (const Packet& pk : packets_) {
      const std::size_t h = pk.route.size() - 1;
      hops_ += h;
      max_hops_ = std::max<std::uint64_t>(max_hops_, h);
      for (std::size_t i = 0; i < h; ++i) {
        ++load[emb_->host().edge_id(pk.route[i], pk.route[i + 1])];
      }
    }
    static_peak_ = *std::max_element(load.begin(), load.end());
    const PhaseCongestionBounds b = phase_congestion_bounds(*emb_, kP);
    bounds_ok_ = b.contains(static_cast<std::int64_t>(static_peak_));
  }

  void pass() override { last_ = StoreForwardSim(kN).run(packets_); }

  bool check(Ref ref) override {
    const SimResult& r = last_;
    if (!bounds_ok_ || r.total_transmissions != hops_) return false;
    if (static_cast<std::uint64_t>(r.makespan) <
        std::max<std::uint64_t>(static_peak_, max_hops_)) {
      return false;
    }
    if (ref != Ref::kCompare) {
      if (ref == Ref::kStore) ref_ = r;
      return true;
    }
    return ref_->makespan == r.makespan &&
           ref_->total_transmissions == r.total_transmissions &&
           ref_->max_queue == r.max_queue &&
           ref_->link_visits == r.link_visits &&
           ref_->dim_transmissions == r.dim_transmissions;
  }

  double work_units() const override {
    return static_cast<double>(ref_->total_transmissions);
  }

  std::vector<Record> exact_counts() const override {
    const SimResult& r = *ref_;
    return {{"mat_phase.packets", double(packets_.size()), "count", "exact"},
            {"mat_phase.makespan", double(r.makespan), "steps", "exact"},
            {"mat_phase.transmissions", double(r.total_transmissions),
             "count", "exact"},
            {"mat_phase.peak_congestion", double(static_peak_), "count",
             "exact"},
            {"mat_phase.max_queue", double(r.max_queue), "count", "exact"},
            {"mat_phase.link_visits", double(r.link_visits), "count",
             "exact"}};
  }

  TracedPass traced_pass() override {
    std::uint64_t plan_bytes = 0;
    std::uint64_t plan_hops = 0;
    const double compile_s = timed([&] {
      const simcore::RoutePlan plan =
          simcore::RoutePlan::compile(emb_->host(), packets_);
      plan_hops = plan.link_of_hop.size();
      plan_bytes = plan.route_nodes.size() * sizeof(Node) +
                   (plan.route_offsets.size() + plan.link_of_hop.size() +
                    plan.route_len.size() + plan.release.size()) *
                       sizeof(std::uint32_t);
    });
    TracedPass t;
    t.pass_s = timed([&] { pass(); });
    t.probe_s = compile_s;
    if (!check(Ref::kCompare) || plan_hops != ref_->total_transmissions) {
      throw Error("mat_phase_q16: traced probes disagree with the pass");
    }
    t.layers = {
        {"sim.plan_compile_s", compile_s, "s", "timing"},
        {"sim.plan_bytes", double(plan_bytes), "B", "memory"},
        {"sim.sweep_s", std::max(0.0, t.pass_s - compile_s), "s", "timing",
         true},
        {"sim.sweep_visit_ratio",
         double(ref_->total_transmissions) / double(ref_->link_visits),
         "ratio", "rate"}};
    return t;
  }

 private:
  static constexpr int kN = 16;
  static constexpr int kP = 16;

  std::optional<MultiPathEmbedding> emb_;
  std::vector<Packet> packets_;
  std::uint64_t hops_ = 0;
  std::uint64_t max_hops_ = 0;
  std::uint32_t static_peak_ = 0;
  bool bounds_ok_ = false;
  SimResult last_;
  std::optional<SimResult> ref_;
};

// --- campaign_q10 ------------------------------------------------------------

class CampaignQ10 final : public Workload {
 public:
  int setups_per_sample() const override { return 100; }
  int setup_samples() const override { return 9; }

  void setup(std::map<std::string, double>& layers) override {
    emb_.reset();
    layers["core.construct_s"] +=
        timed([&] { emb_.emplace(theorem1_cycle_embedding(kN)); });
  }

  void prepare(std::uint64_t seed) override {
    // hyperpath_cli campaign 10 defaults: 1000 trials, link rate 0.05,
    // IDA threshold width - 1.
    cfg_ = CampaignConfig{};
    cfg_.seed = seed;
    cfg_.recovery.threshold = emb_->width() - 1;
  }

  void pass() override { last_ = MonteCarloDriver(*emb_).run(cfg_); }

  bool check(Ref ref) override {
    const CampaignStats& s = last_;
    if (s.trials != cfg_.trials ||
        s.messages_total != std::uint64_t{cfg_.trials} *
                                emb_->guest().num_edges() ||
        s.messages_complete > s.messages_total) {
      return false;
    }
    if (ref != Ref::kCompare) {
      if (ref == Ref::kStore) ref_ = s;
      return true;
    }
    return ref_->digest == s.digest &&
           ref_->messages_complete == s.messages_complete &&
           ref_->retransmissions == s.retransmissions &&
           ref_->schedule_events == s.schedule_events &&
           ref_->max_makespan == s.max_makespan &&
           ref_->max_waves == s.max_waves;
  }

  std::optional<std::uint64_t> pinned_seed() const override { return 1; }
  bool check_pinned() override {
    // hyperpath_cli campaign 10 --trials 1000 (seed 1).
    return last_.digest == 0x3f73a5571ef0e3b5ull;
  }

  double work_units() const override { return double(cfg_.trials); }

  std::vector<Record> exact_counts() const override {
    const CampaignStats& s = *ref_;
    return {{"campaign.trials", double(s.trials), "count", "exact"},
            {"campaign.messages", double(s.messages_total), "count", "exact"},
            {"campaign.messages_complete", double(s.messages_complete),
             "count", "exact"},
            {"campaign.retransmissions", double(s.retransmissions), "count",
             "exact"},
            {"campaign.schedule_events", double(s.schedule_events), "count",
             "exact"},
            {"campaign.digest_hi", double(s.digest >> 32), "count", "exact"},
            {"campaign.digest_lo", double(s.digest & 0xffffffffu), "count",
             "exact"}};
  }

  TracedPass traced_pass() override {
    const MonteCarloDriver mc(*emb_);
    const int dims = emb_->host().dims();
    // Probe 1: the per-trial fault schedules alone.
    std::uint64_t events = 0;
    const double draw_s = timed([&] {
      for (std::uint32_t t = 0; t < cfg_.trials; ++t) {
        Rng rng(trial_seed(cfg_.seed, t));
        events += FaultSchedule::random(dims, cfg_.schedule, rng).size();
      }
    });
    // Probe 2: the fault-free wave-0 plan (one fragment per bundle path)
    // compiled once per trial, as each trial's first wave does.
    std::vector<Packet> frags;
    for (std::uint32_t e = 0; e < emb_->guest().num_edges(); ++e) {
      for (const HostPath& path : emb_->paths(e)) frags.push_back({path, 0, e});
    }
    const double plan_s = timed([&] {
      simcore::RoutePlan plan;
      for (std::uint32_t t = 0; t < cfg_.trials; ++t) {
        plan.rebuild(emb_->host(), frags);
      }
    });
    // Probe 3: every trial run on its own; the summed trial digests must
    // rebuild the campaign digest.
    std::uint64_t digest = 0, waves = 0, total_tx = 0, useful_tx = 0;
    const double trials_s = timed([&] {
      for (std::uint32_t t = 0; t < cfg_.trials; ++t) {
        FaultSchedule schedule(dims);
        const RecoveryResult r = mc.run_trial(cfg_, t, &schedule);
        digest += MonteCarloDriver::summarize(
                      t, static_cast<std::uint32_t>(schedule.size()), r)
                      .digest();
        waves += r.waves;
        total_tx += r.total_transmissions;
        useful_tx += r.useful_transmissions;
      }
    });
    TracedPass t;
    t.pass_s = timed([&] { pass(); });
    t.probe_s = draw_s + plan_s + trials_s;
    if (!check(Ref::kCompare) || digest != ref_->digest ||
        events != ref_->schedule_events) {
      throw Error("campaign_q10: traced probes disagree with the pass");
    }
    t.layers = {
        {"sim.fault_draw_s", draw_s, "s", "timing"},
        {"sim.trial_plan_compile_s", plan_s, "s", "timing"},
        {"sim.recovery_s", std::max(0.0, trials_s - draw_s - plan_s), "s",
         "timing", true},
        {"sim.recovery_useful_hop_frac", double(useful_tx) / double(total_tx),
         "ratio", "rate"},
        {"sim.recovery_waves", double(waves), "count", "exact"},
        {"sim.campaign_fold_s", std::max(0.0, t.pass_s - trials_s), "s",
         "timing", true}};
    return t;
  }

 private:
  static constexpr int kN = 10;

  std::optional<MultiPathEmbedding> emb_;
  CampaignConfig cfg_;
  CampaignStats last_;
  std::optional<CampaignStats> ref_;
};

// --- route_verify_q30 --------------------------------------------------------

class RouteVerifyQ30 final : public Workload {
 public:
  int setups_per_sample() const override { return 20000; }
  int setup_samples() const override { return 9; }

  void setup(std::map<std::string, double>& layers) override {
    oracle_.reset();
    layers["core.oracle_build_s"] += timed([&] {
      oracle_ = algebraic_grid_oracle(GridSpec{{1024, 1024, 1024}, true});
    });
  }

  void prepare(std::uint64_t seed) override {
    seed_ = seed;
  }

  void pass() override {
    last_ = oracle_sample_check(*oracle_, kEdges, seed_);
  }

  bool check(Ref ref) override {
    const OracleSampleReport& r = last_;
    if (r.edges_checked != kEdges || r.paths_checked < kEdges ||
        r.hops_checked < r.paths_checked) {
      return false;
    }
    if (ref != Ref::kCompare) {
      if (ref == Ref::kStore) ref_ = r;
      return true;
    }
    return ref_->paths_checked == r.paths_checked &&
           ref_->hops_checked == r.hops_checked &&
           ref_->node_digest == r.node_digest;
  }

  double work_units() const override {
    return static_cast<double>(ref_->paths_checked);
  }

  std::vector<Record> exact_counts() const override {
    const OracleSampleReport& r = *ref_;
    return {{"route_verify.edges", double(r.edges_checked), "count", "exact"},
            {"route_verify.paths", double(r.paths_checked), "count", "exact"},
            {"route_verify.hops", double(r.hops_checked), "count", "exact"},
            {"route_verify.digest_hi", double(r.node_digest >> 32), "count",
             "exact"},
            {"route_verify.digest_lo", double(r.node_digest & 0xffffffffu),
             "count", "exact"}};
  }

  TracedPass traced_pass() override {
    // Probe: every bundle path of the verifier's own sample, streamed into
    // a counting sink (the sample is drawn outside the timed region).
    const std::vector<OracleEdge> edges =
        sample_guest_edges(*oracle_, kEdges, seed_);
    CountingSink sink;
    std::uint64_t paths = 0;
    const double gen_s = timed([&] {
      for (const OracleEdge& e : edges) {
        const int w = oracle_->width(e);
        for (int i = 0; i < w; ++i) oracle_->path(e, i, sink);
        paths += w;
      }
    });
    TracedPass t;
    t.pass_s = timed([&] { pass(); });
    t.probe_s = gen_s;
    if (!check(Ref::kCompare) || paths != ref_->paths_checked ||
        sink.nodes != ref_->hops_checked + ref_->paths_checked) {
      throw Error("route_verify_q30: traced probe disagrees with the pass");
    }
    t.layers = {
        {"embed.path_gen_s", gen_s, "s", "timing"},
        {"embed.path_gen_paths_per_s", double(paths) / gen_s, "1/s", "rate"},
        {"embed.sample_check_s", std::max(0.0, t.pass_s - gen_s), "s",
         "timing", true}};
    return t;
  }

 private:
  static constexpr std::uint64_t kEdges = 200000;

  std::unique_ptr<PathOracle> oracle_;
  std::uint64_t seed_ = 0;
  OracleSampleReport last_;
  std::optional<OracleSampleReport> ref_;
};

// --- harness -----------------------------------------------------------------

/// Every per-layer metric, in the order printed.  A traced run reports all
/// of them; a layer the workload does not run reads 0.
const char* const kLayerMetrics[][3] = {
    {"core.construct_s", "s", "timing"},
    {"core.oracle_build_s", "s", "timing"},
    {"sim.phase_packets_s", "s", "timing"},
    {"embed.path_gen_s", "s", "timing"},
    {"embed.path_gen_paths_per_s", "1/s", "rate"},
    {"sim.oracle_compile_s", "s", "timing"},
    {"sim.oracle_renumber_sweep_s", "s", "timing"},
    {"sim.plan_compile_s", "s", "timing"},
    {"sim.plan_bytes", "B", "memory"},
    {"sim.sweep_s", "s", "timing"},
    {"sim.sweep_visit_ratio", "ratio", "rate"},
    {"sim.oracle_compiled_bytes", "B", "memory"},
    {"sim.fault_draw_s", "s", "timing"},
    {"sim.trial_plan_compile_s", "s", "timing"},
    {"sim.recovery_s", "s", "timing"},
    {"sim.recovery_useful_hop_frac", "ratio", "rate"},
    {"sim.recovery_waves", "count", "exact"},
    {"sim.campaign_fold_s", "s", "timing"},
    {"embed.sample_check_s", "s", "timing"},
    {"traced_pass_s", "s", "timing"},
    {"unattributed_s", "s", "timing"},
    {"trace_overhead_frac", "ratio", "rate"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "oracle_phase_q24") return std::make_unique<OraclePhaseQ24>();
  if (name == "mat_phase_q16") return std::make_unique<MatPhaseQ16>();
  if (name == "campaign_q10") return std::make_unique<CampaignQ10>();
  if (name == "route_verify_q30") return std::make_unique<RouteVerifyQ30>();
  return nullptr;
}

/// Measures how fast this host's memory system is right now.  The host's
/// other tenants slow every workload here by up to a third, for tens of
/// seconds at a time, and they do it through the shared L3 and DRAM; a
/// chain of dependent loads around one random cycle through a table far
/// larger than the L2 slows with them.  The table lives for the whole
/// run, so it adds exactly its own size to the peak RSS.
class MemoryProbe {
 public:
  static constexpr std::size_t kEntries = std::size_t{1} << 24;  // 64 MiB
  static constexpr int kLoads = 300000;
  /// This host's typical time for one probe; scaled timings are seconds
  /// at this memory speed.
  static constexpr double kReferenceS = 0.075;

  MemoryProbe() : next_(kEntries) {
    // Sattolo's shuffle: a single cycle through every entry.
    std::iota(next_.begin(), next_.end(), 0u);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = kEntries - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }

  /// CPU seconds for kLoads dependent loads, continuing around the cycle.
  double run() {
    std::uint32_t p = pos_;
    const double s = timed([&] {
      for (int i = 0; i < kLoads; ++i) p = next_[p];
    });
    pos_ = p;
    return s;
  }

  static double mib() {
    return double(kEntries * sizeof(std::uint32_t)) / 1048576.0;
  }

 private:
  std::vector<std::uint32_t> next_;
  std::uint32_t pos_ = 0;
};

/// BENCHMARK.json keeps two workloads (see README.md).  The other two
/// still have their layers measured: their traced passes run beside the
/// traced passes of the benchmark workload named here.
const char* side_workload(const std::string& name) {
  if (name == "oracle_phase_q24") return "route_verify_q30";
  if (name == "mat_phase_q16") return "campaign_q10";
  return nullptr;
}

class Harness {
 public:
  explicit Harness(Workload& w) : w_(w) {}

  /// Runs `f` then the workload's check; returns the pass's CPU time, or
  /// a negative value when the pass threw or mismatched.  `wall_s`, when
  /// given, receives the pass's wall time.
  double checked(const char* what, const std::function<void()>& f,
                 const std::function<bool()>& verify,
                 double* wall_s = nullptr) {
    ++attempted_;
    try {
      const auto w0 = Clock::now();
      const double s = timed(f);
      if (wall_s) *wall_s = seconds_since(w0);
      if (verify()) return s;
      std::fprintf(stderr, "hpbench: %s: output check failed\n", what);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hpbench: %s threw: %s\n", what, e.what());
    }
    ++failed_;
    return -1;
  }

  int run(const Options& opt) {
    // Set-up: median over samples of (k identical set-ups) / k.  Half the
    // samples run before the passes and half after, so they see the same
    // spread of host speed as the passes do.
    std::vector<double> setup_samples;
    std::map<std::string, std::vector<double>> setup_layers;
    const auto sample_setups = [&](int samples) {
      for (int s = 0; s < samples; ++s) {
        const int k = w_.setups_per_sample();
        std::map<std::string, double> layers;
        const double total = timed([&] {
          for (int i = 0; i < k; ++i) w_.setup(layers);
        });
        setup_samples.push_back(total / k);
        for (const auto& [name, sec] : layers) {
          setup_layers[name].push_back(sec / k);
        }
      }
    };
    sample_setups((w_.setup_samples() + 1) / 2);

    // The cold pass is the warm-up: untimed for work_per_s, and its result
    // is the reference every later pass on this seed must reproduce.
    w_.prepare(opt.seed);
    const auto pin = w_.pinned_seed();
    const double cold_s = checked("cold pass", [&] { w_.pass(); }, [&] {
      return w_.check(Ref::kStore) && (pin != opt.seed || w_.check_pinned());
    });
    if (cold_s < 0) return finish(opt, {}, {});
    if (pin && *pin != opt.seed) {
      // The pinned values, checked on every run (untimed).
      w_.prepare(*pin);
      checked("pinned pass", [&] { w_.pass(); }, [&] {
        return w_.check(Ref::kIgnore) && w_.check_pinned();
      });
      w_.prepare(opt.seed);
    }

    // Timed warm passes (the whole budget untraced; a third of it when
    // the traced passes follow in the same process).
    const double budget = opt.trace ? opt.seconds / 3 : opt.seconds;
    std::vector<double> warm, warm_wall, probes;
    const auto t0 = Clock::now();
    while (warm.size() < 3 || seconds_since(t0) < budget) {
      double wall = 0;
      const double s = checked("warm pass", [&] { w_.pass(); },
                               [&] { return w_.check(Ref::kCompare); },
                               &wall);
      if (s < 0) return finish(opt, {}, {});
      warm.push_back(s);
      warm_wall.push_back(wall);
      probes.push_back(probe_.run());
    }
    sample_setups(w_.setup_samples() / 2);
    std::fprintf(stderr, "hpbench: %s cold pass %.4f s, warm passes (cpu):",
                 opt.workload.c_str(), cold_s);
    for (const double s : warm) std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\nhpbench: warm passes (wall):");
    for (const double s : warm_wall) std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\nhpbench: memory probes:");
    for (const double s : probes) std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\n");

    // Host speed drifts in regimes of several seconds, so per-pass times
    // are bimodal; the mean over the whole budget averages the regimes
    // where a median would jump between them.  For the same reason the
    // time to result uses the mean pass, not the single cold pass: the
    // cold-start penalty is below this host's pass-to-pass swings, and
    // is reported on its own.  host_taken_frac is the share of the warm
    // passes' wall time the CPU clock did not count.
    const double setup_raw_s = median(setup_samples);
    const double warm_sum_s = std::accumulate(warm.begin(), warm.end(), 0.0);
    const double wall_sum_s =
        std::accumulate(warm_wall.begin(), warm_wall.end(), 0.0);
    const double warm_mean_s = warm_sum_s / double(warm.size());
    // The memory probe ran after every warm pass; its mean over the run
    // scales every end-to-end timing to the reference memory speed.  The
    // set-up samples span the same stretch of the run as the passes.
    const double probe_mean_s =
        std::accumulate(probes.begin(), probes.end(), 0.0) /
        double(probes.size());
    const double scale = MemoryProbe::kReferenceS / probe_mean_s;
    const double setup_s = setup_raw_s * scale;
    std::vector<Record> records = {
        {"setup_s", setup_s, "s", "timing"},
        {"time_to_result_s", setup_s + warm_mean_s * scale, "s", "timing"},
        {"work_per_s", w_.work_units() / (warm_mean_s * scale), "1/s",
         "rate"},
        {"peak_rss_mib", peak_rss_mib() - MemoryProbe::mib(), "MiB",
         "memory"},
        {"setup_raw_s", setup_raw_s, "s", "timing"},
        {"time_to_result_raw_s", setup_raw_s + warm_mean_s, "s", "timing"},
        {"work_per_s_raw", w_.work_units() / warm_mean_s, "1/s", "rate"},
        {"memory_probe_mean_s", probe_mean_s, "s", "timing"},
        {"memory_speed_scale", scale, "ratio", "rate"},
        {"cold_pass_s", cold_s, "s", "timing"},
        {"cold_penalty_s", cold_s - median(warm), "s", "timing"},
        {"warm_pass_mean_s", warm_mean_s, "s", "timing"},
        {"warm_pass_median_s", median(warm), "s", "timing"},
        {"warm_pass_wall_mean_s", wall_sum_s / double(warm.size()), "s",
         "timing"},
        {"host_taken_frac", 1.0 - warm_sum_s / wall_sum_s, "ratio", "rate"},
        {"warm_passes", double(warm.size()), "count", "exact"},
        {"work_units_per_pass", w_.work_units(), "count", "exact"}};
    for (Record& r : w_.exact_counts()) records.push_back(std::move(r));

    std::vector<Record> layers;
    if (opt.trace) {
      layers = traced(opt, median(warm), setup_layers);
      if (layers.empty()) return finish(opt, records, {});
    }
    return finish(opt, records, layers);
  }

 private:
  std::vector<Record> traced(
      const Options& opt, double untraced_s,
      const std::map<std::string, std::vector<double>>& setup_layers) {
    // The side workload gets its reference pass (on its pinned seed when
    // it has one, so the pinned values are checked too) before tracing.
    std::unique_ptr<Workload> side;
    if (const char* name = side_workload(opt.workload)) {
      side = make_workload(name);
      std::map<std::string, double> unused;
      side->setup(unused);
      const std::uint64_t seed = side->pinned_seed().value_or(opt.seed);
      side->prepare(seed);
      if (checked("side reference pass", [&] { side->pass(); }, [&] {
            return side->check(Ref::kStore) &&
                   (side->pinned_seed() != seed || side->check_pinned());
          }) < 0) {
        return {};
      }
    }

    struct Traced {
      TracedPass host, side;
    };
    std::vector<Traced> passes;
    const auto t0 = Clock::now();
    while (passes.size() < 3 || seconds_since(t0) < 2 * opt.seconds / 3) {
      Traced t;
      if (checked("traced pass", [&] {
            t.host = w_.traced_pass();
            if (side) t.side = side->traced_pass();
          }, [] { return true; }) < 0) {
        return {};
      }
      passes.push_back(std::move(t));
    }
    // Report the traced pass whose real call took the median time, so its
    // layer split is internally consistent.
    std::sort(passes.begin(), passes.end(),
              [](const Traced& a, const Traced& b) {
                return a.host.pass_s < b.host.pass_s;
              });
    const TracedPass& mid = passes[passes.size() / 2].host;

    std::map<std::string, Record> got;
    for (const auto& [name, samples] : setup_layers) {
      got[name] = {name, median(samples), "s", "timing"};
    }
    double self_s = 0;
    for (const Record& r : mid.layers) {
      got[r.name] = r;
      if (r.unit == "s") self_s += r.value;
    }
    got["traced_pass_s"] = {"traced_pass_s", mid.pass_s, "s", "timing"};
    got["unattributed_s"] = {"unattributed_s", mid.pass_s - self_s, "s",
                             "timing"};
    got["trace_overhead_frac"] = {"trace_overhead_frac",
                                  (mid.pass_s - untraced_s) / untraced_s,
                                  "ratio", "rate"};
    got["trace_probe_s"] = {"trace_probe_s", mid.probe_s, "s", "timing"};
    if (side) {
      // The side workload's layers partition its own traced pass; a name
      // the host already reports is kept apart under the side's prefix.
      const std::string prefix = std::string(side_workload(opt.workload));
      const TracedPass& sp = passes[passes.size() / 2].side;
      std::vector<Record> side_records = sp.layers;
      side_records.push_back({"traced_pass_s", sp.pass_s, "s", "timing"});
      for (Record& r : side->exact_counts()) side_records.push_back(r);
      for (Record& r : side_records) {
        if (got.count(r.name)) r.name = prefix + "." + r.name;
        got[r.name] = r;
      }
    }

    std::vector<Record> out;
    for (const auto& m : kLayerMetrics) {
      const auto it = got.find(m[0]);
      out.push_back(it != got.end() ? it->second
                                    : Record{m[0], 0.0, m[1], m[2]});
      if (it != got.end()) got.erase(it);
    }
    // Records that are not per-layer metrics: the probes' own time and
    // the side workload's pass time, exact counts and clashing names.
    for (const auto& [name, r] : got) out.push_back(r);
    return out;
  }

  int finish(const Options& opt, const std::vector<Record>& records,
             const std::vector<Record>& layers) {
    const auto print = [](const Record& r) {
      std::printf("{\"name\": \"%s\", \"value\": %.17g, \"unit\": \"%s\", "
                  "\"class\": \"%s\"%s}\n",
                  r.name.c_str(), r.value, r.unit.c_str(), r.cls.c_str(),
                  r.inferred ? ", \"inferred\": true" : "");
    };
    const double failed_frac = double(failed_) / double(attempted_);
    for (const Record& r : records) print(r);
    print({"failed_frac", failed_frac, "ratio", "rate"});
    print({"passed_frac", 1.0 - failed_frac, "ratio", "rate"});
    for (const Record& r : layers) print(r);

    const bool ok = failed_ == 0;
    std::string metrics;
    const auto add = [&](const std::string& name, double v,
                         const std::string& unit) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", metrics.empty() ? "" : ", ",
                    name.c_str(), v, unit.c_str());
      metrics += buf;
    };
    if (ok && !opt.trace) {
      for (const Record& r : records) {
        if (r.name == "setup_s" || r.name == "time_to_result_s" ||
            r.name == "work_per_s" || r.name == "peak_rss_mib") {
          add(r.name, r.value, r.unit);
        }
      }
      add("passed_frac", 1.0 - failed_frac, "ratio");
    } else if (ok) {
      for (std::size_t i = 0; i < std::size(kLayerMetrics); ++i) {
        add(layers[i].name, layers[i].value, layers[i].unit);
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                ok ? "true" : "false", attempted_, failed_, metrics.c_str());
    std::fflush(stdout);
    return ok ? 0 : 1;
  }

  Workload& w_;
  MemoryProbe probe_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

int usage() {
  std::fprintf(stderr,
               "usage: hpbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "  workloads: oracle_phase_q24 mat_phase_q16 campaign_q10 "
               "route_verify_q30\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(opt.seconds > 0)) return usage();
  const std::unique_ptr<Workload> w = make_workload(opt.workload);
  if (!w) return usage();

  // Library-internal parallelism collapses to serial on a one-thread pool:
  // on a small shared host parallel arms are overhead, not speed-up.
  hyperpath::par::TaskPool pool(1);
  const hyperpath::par::PoolScope scope(pool);
  try {
    return Harness(*w).run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpbench: %s\n", e.what());
    return 1;
  }
}
