// The thread's StepScratch is kept, never reset, between simulator runs.
// An oracle phase, a StoreForwardSim run and a recovery run that follow
// one another on one thread must each give exactly what the same call
// gives on a thread of its own, and a repeated phase must find its plan
// and pool already in place.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/rng.hpp"
#include "core/algebraic_oracle.hpp"
#include "core/cycle_multipath.hpp"
#include "sim/faults.hpp"
#include "sim/oracle_sim.hpp"
#include "sim/phase.hpp"
#include "sim/recovery.hpp"
#include "sim/simcore.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {
namespace {

/// f() run on a new thread, whose scratch starts empty.
template <typename F>
std::invoke_result_t<F&> on_fresh_thread(F&& f) {
  std::invoke_result_t<F&> out;
  std::thread t([&] { out = f(); });
  t.join();
  return out;
}

void expect_same(const OraclePhaseResult& a, const OraclePhaseResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
  EXPECT_EQ(a.peak_congestion, b.peak_congestion);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.unique_links, b.unique_links);
  EXPECT_EQ(a.route_nodes, b.route_nodes);
  EXPECT_EQ(a.compiled_bytes, b.compiled_bytes);
  EXPECT_EQ(a.dim_transmissions, b.dim_transmissions);
}

void expect_same(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.dim_transmissions, b.dim_transmissions);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.link_visits, b.link_visits);
}

void expect_same(const RecoveryResult& a, const RecoveryResult& b) {
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t m = 0; m < a.messages.size(); ++m) {
    SCOPED_TRACE("message " + std::to_string(m));
    EXPECT_EQ(a.messages[m].complete, b.messages[m].complete);
    EXPECT_EQ(a.messages[m].complete_step, b.messages[m].complete_step);
    EXPECT_EQ(a.messages[m].first_loss_step, b.messages[m].first_loss_step);
    EXPECT_EQ(a.messages[m].fragments_delivered,
              b.messages[m].fragments_delivered);
    EXPECT_EQ(a.messages[m].retransmissions, b.messages[m].retransmissions);
  }
  EXPECT_EQ(a.messages_total, b.messages_total);
  EXPECT_EQ(a.messages_complete, b.messages_complete);
  EXPECT_EQ(a.messages_recovered, b.messages_recovered);
  EXPECT_EQ(a.fragments_sent, b.fragments_sent);
  EXPECT_EQ(a.fragments_delivered, b.fragments_delivered);
  EXPECT_EQ(a.fragments_lost, b.fragments_lost);
  EXPECT_EQ(a.fragments_exhausted, b.fragments_exhausted);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.waves, b.waves);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
  EXPECT_EQ(a.useful_transmissions, b.useful_transmissions);
  EXPECT_EQ(a.recovery_latency, b.recovery_latency);
}

/// The runs: two oracle phases of different size on a Q_12 torus host, a
/// Theorem-1 Q_8 phase through StoreForwardSim, and recovery over the same
/// embedding under random transient link faults.
struct Runs {
  std::unique_ptr<PathOracle> oracle =
      algebraic_grid_oracle(GridSpec{{16, 16, 16}, true});
  std::vector<OracleEdge> big_edges = sample_guest_edges(*oracle, 3000, 5);
  std::vector<OracleEdge> small_edges = sample_guest_edges(*oracle, 200, 6);
  MultiPathEmbedding emb = theorem1_cycle_embedding(8);
  std::vector<Packet> packets = phase_packets(emb, 3);
  FaultSchedule schedule = [] {
    RandomScheduleSpec spec;
    spec.window = 12;
    spec.link_rate = 0.05;
    Rng rng(41);
    return FaultSchedule::random(8, spec, rng);
  }();

  OraclePhaseResult big() const {
    OraclePhaseSpec spec;
    spec.packets_per_edge = 12;
    return run_oracle_phase(*oracle, big_edges, spec);
  }
  OraclePhaseResult small() const {
    OraclePhaseSpec spec;
    spec.packets_per_edge = 2;
    return run_oracle_phase(*oracle, small_edges, spec);
  }
  SimResult store_forward() const { return StoreForwardSim(8).run(packets); }
  RecoveryResult recovery() const { return run_recovery(emb, schedule); }
};

TEST(ScratchReuse, InterleavedRunsMatchFreshThreads) {
  const Runs runs;
  struct Got {
    OraclePhaseResult big1, small, big2;
    SimResult sf;
    RecoveryResult rec;
  };
  const Got got = on_fresh_thread([&] {
    Got g;
    g.big1 = runs.big();
    g.sf = runs.store_forward();
    g.small = runs.small();
    g.rec = runs.recovery();
    g.big2 = runs.big();
    return g;
  });
  const OraclePhaseResult big = on_fresh_thread([&] { return runs.big(); });
  const OraclePhaseResult small =
      on_fresh_thread([&] { return runs.small(); });
  const SimResult sf = on_fresh_thread([&] { return runs.store_forward(); });
  const RecoveryResult rec = on_fresh_thread([&] { return runs.recovery(); });

  ASSERT_GT(rec.waves, 1);  // the faults made later, smaller waves
  ASSERT_LT(small.compiled_bytes, big.compiled_bytes);
  {
    SCOPED_TRACE("first big phase");
    expect_same(got.big1, big);
  }
  {
    SCOPED_TRACE("store-and-forward run after a big phase");
    expect_same(got.sf, sf);
  }
  {
    SCOPED_TRACE("small phase after a big one");
    expect_same(got.small, small);
  }
  {
    SCOPED_TRACE("recovery after the phases");
    expect_same(got.rec, rec);
  }
  {
    SCOPED_TRACE("big phase after everything");
    expect_same(got.big2, big);
  }
}

TEST(ScratchReuse, RepeatedPhaseKeepsItsPlanAndPool) {
  const Runs runs;
  struct Storage {
    const std::byte* pool_data = nullptr;
    std::size_t pool_capacity = 0;
    const std::uint32_t* route_offsets = nullptr;
    bool operator==(const Storage&) const = default;
  };
  const auto storage = [] {
    const simcore::StepScratch& s = simcore::step_scratch();
    return Storage{s.pool.data(), s.pool.capacity(),
                   s.plan.route_offsets.data()};
  };
  const std::vector<Storage> seen = on_fresh_thread([&] {
    std::vector<Storage> out;
    runs.big();
    out.push_back(storage());
    runs.big();
    out.push_back(storage());
    runs.small();
    runs.big();
    out.push_back(storage());
    return out;
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_NE(seen[0].pool_data, nullptr);
  EXPECT_GT(seen[0].pool_capacity, 0u);
  EXPECT_EQ(seen[1], seen[0]);
  EXPECT_EQ(seen[2], seen[0]);
}

}  // namespace
}  // namespace hyperpath
