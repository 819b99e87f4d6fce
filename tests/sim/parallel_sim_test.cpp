// The store-and-forward step loop is serial; these suites pin that a run
// is independent of the task pool it executes under.  Each run under a
// PoolScope of N participants must match the map-based reference
// (tests/support/reference_sim.hpp) or the run outside any scope.
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "core/cycle_multipath.hpp"
#include "par/task_pool.hpp"
#include "sim/phase.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"
#include "support/reference_sim.hpp"

namespace hyperpath {
namespace {

std::vector<Packet> random_workload(int dims, int count, std::uint64_t seed) {
  Rng rng(seed);
  const Hypercube q(dims);
  std::vector<Packet> out;
  for (int i = 0; i < count; ++i) {
    Packet p;
    const Node s = static_cast<Node>(rng.below(q.num_nodes()));
    const Node d = static_cast<Node>(rng.below(q.num_nodes()));
    p.route = ecube_route(q, s, d);
    p.release = static_cast<int>(rng.below(3));
    out.push_back(std::move(p));
  }
  return out;
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.dim_transmissions, b.dim_transmissions);
  EXPECT_EQ(a.latency, b.latency);
}

class ParallelSim : public ::testing::TestWithParam<int> {};

// The parameter is the pool size.
TEST_P(ParallelSim, MatchesSerialOnRandomWorkloads) {
  par::TaskPool pool(GetParam());
  const par::PoolScope scope(pool);
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const int dims = 6;
    const auto packets = random_workload(dims, 500, seed);
    expect_identical(refsim::RefStoreForwardSim(dims).run(packets),
                     StoreForwardSim(dims).run(packets));
  }
}

TEST_P(ParallelSim, MatchesSerialOnTheorem1Phase) {
  const int n = 8;
  const auto emb = theorem1_cycle_embedding(n);
  const auto packets = phase_packets(emb, 2 * n);
  const auto unscoped = StoreForwardSim(n).run(packets);
  par::TaskPool pool(GetParam());
  const par::PoolScope scope(pool);
  const auto scoped = StoreForwardSim(n).run(packets);
  expect_identical(unscoped, scoped);
  EXPECT_EQ(unscoped.link_visits, scoped.link_visits);
  expect_identical(refsim::RefStoreForwardSim(n).run(packets), scoped);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelSim,
                         ::testing::Values(1, 2, 3, 8));

TEST(ParallelSimBasics, EmptyAndTrivial) {
  par::TaskPool pool(2);
  const par::PoolScope scope(pool);
  const StoreForwardSim sim(4);
  EXPECT_EQ(sim.run({}).makespan, 0);
  Packet p;
  p.route = {7};
  EXPECT_EQ(sim.run({p}).makespan, 0);
}

TEST(ParallelSimBasics, DefaultThreadCount) {
  // Outside any PoolScope the run sees the global pool (HYPERPATH_THREADS,
  // else hardware concurrency); results must match the reference.
  const auto packets = random_workload(5, 200, 9);
  expect_identical(refsim::RefStoreForwardSim(5).run(packets),
                   StoreForwardSim(5).run(packets));
}

}  // namespace
}  // namespace hyperpath
