// Randomized equivalence: the flat-arena simulators (simcore.hpp) must be
// bit-identical — results AND trace streams — to the map-based reference
// implementations (support/reference_sim.hpp) under FIFO, farthest-first,
// fault schedules and staggered releases, and the parallel simulator must
// match the serial one at several thread counts.  These tests are the
// license to keep optimizing the hot loops: anything they accept emits the
// same bytes the reference does.
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "par/task_pool.hpp"
#include "sim/faults.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"
#include "sim/wormhole.hpp"
#include "support/reference_sim.hpp"

namespace hyperpath {
namespace {

using obs::RingBufferSink;
using obs::TraceEvent;
using refsim::RefStoreForwardSim;
using refsim::RefWormholeSim;

std::vector<Packet> random_packets(int dims, int count, Rng& rng,
                                   int max_release) {
  const Hypercube q(dims);
  std::vector<Packet> out;
  for (int i = 0; i < count; ++i) {
    Packet p;
    const Node s = static_cast<Node>(rng.below(q.num_nodes()));
    const Node d = static_cast<Node>(rng.below(q.num_nodes()));
    p.route = ecube_route(q, s, d);
    p.release = max_release > 0 ? static_cast<int>(rng.below(max_release)) : 0;
    out.push_back(std::move(p));
  }
  return out;
}

/// A schedule mixing permanent/transient link and node faults, biased to
/// fire while the workload above is still in flight.
FaultSchedule random_schedule(int dims, Rng& rng) {
  const Hypercube q(dims);
  FaultSchedule sched(dims);
  const int events = 3 + static_cast<int>(rng.below(6));
  for (int i = 0; i < events; ++i) {
    const int step = static_cast<int>(rng.below(8));
    const Node u = static_cast<Node>(rng.below(q.num_nodes()));
    switch (rng.below(4)) {
      case 0:
        sched.link_down(step, u, q.neighbor(u, static_cast<Dim>(
                                                   rng.below(dims))));
        break;
      case 1:
        sched.transient_link(step, step + 1 + static_cast<int>(rng.below(5)),
                             u,
                             q.neighbor(u, static_cast<Dim>(rng.below(dims))));
        break;
      case 2:
        sched.node_down(step, u);
        break;
      default:
        sched.transient_node(step, step + 1 + static_cast<int>(rng.below(5)),
                             u);
        break;
    }
  }
  return sched;
}

void expect_same_result(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.dim_transmissions, b.dim_transmissions);
  EXPECT_EQ(a.latency, b.latency);
}

void expect_same_fault_result(const FaultRunResult& a,
                              const FaultRunResult& b) {
  expect_same_result(a.sim, b.sim);
  EXPECT_EQ(a.fates, b.fates);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.lost, b.lost);
}

void expect_same_trace(const RingBufferSink& a, const RingBufferSink& b) {
  ASSERT_EQ(a.total(), b.total());
  ASSERT_EQ(a.dropped(), 0u) << "ring too small for exact comparison";
  EXPECT_EQ(a.events(), b.events());
}

class SimcoreEquiv : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimcoreEquiv, SerialMatchesReferenceBothPolicies) {
  Rng rng(GetParam());
  const int dims = 3 + static_cast<int>(rng.below(5));
  const auto packets = random_packets(dims, 150, rng, 6);
  for (auto policy : {Arbitration::kFifo, Arbitration::kFarthestFirst}) {
    RingBufferSink flat_sink, ref_sink;
    const auto flat =
        StoreForwardSim(dims).run(packets, policy, 1 << 22, &flat_sink);
    const auto ref =
        RefStoreForwardSim(dims).run(packets, policy, 1 << 22, &ref_sink);
    expect_same_result(flat, ref);
    expect_same_trace(flat_sink, ref_sink);
    // Throughput is first-class but never part of the determinism
    // contract: the run must stamp it, and nothing above compared it.
    EXPECT_GT(flat.elapsed_seconds, 0.0);
    if (flat.total_transmissions > 0) {
      EXPECT_GT(flat.packet_steps_per_sec(), 0.0);
    }
  }
}

TEST_P(SimcoreEquiv, SerialMatchesReferenceUnderFaults) {
  Rng rng(GetParam() ^ 0xFA17);
  const int dims = 4 + static_cast<int>(rng.below(3));
  const auto packets = random_packets(dims, 120, rng, 4);
  const auto sched = random_schedule(dims, rng);
  for (auto policy : {Arbitration::kFifo, Arbitration::kFarthestFirst}) {
    RingBufferSink flat_sink, ref_sink;
    const auto flat = StoreForwardSim(dims).run_with_faults(
        packets, sched, policy, 1 << 22, &flat_sink);
    const auto ref = RefStoreForwardSim(dims).run_with_faults(
        packets, sched, policy, 1 << 22, &ref_sink);
    expect_same_fault_result(flat, ref);
    expect_same_trace(flat_sink, ref_sink);
  }
}

TEST_P(SimcoreEquiv, ParallelMatchesReferenceAcrossThreadCounts) {
  Rng rng(GetParam() ^ 0x9E3779B9);
  const int dims = 4 + static_cast<int>(rng.below(3));
  const auto packets = random_packets(dims, 200, rng, 5);
  RingBufferSink ref_sink;
  const auto ref = RefStoreForwardSim(dims).run(packets, Arbitration::kFifo,
                                                1 << 22, &ref_sink);
  for (int threads : {1, 2, 3, 5, 7, 8}) {
    par::TaskPool pool(threads);
    const par::PoolScope scope(pool);
    RingBufferSink par_sink;
    const auto par =
        ParallelStoreForwardSim(dims).run(packets, 1 << 22, &par_sink);
    expect_same_result(par, ref);
    expect_same_trace(par_sink, ref_sink);
  }
}

TEST_P(SimcoreEquiv, ParallelMatchesSerialUnderFaults) {
  Rng rng(GetParam() ^ 0xC0FFEE);
  const int dims = 4 + static_cast<int>(rng.below(3));
  const auto packets = random_packets(dims, 150, rng, 4);
  const auto sched = random_schedule(dims, rng);
  RingBufferSink ser_sink;
  const auto ser = StoreForwardSim(dims).run_with_faults(
      packets, sched, Arbitration::kFifo, 1 << 22, &ser_sink);
  for (int threads : {1, 2, 3, 4, 5, 7, 8}) {
    par::TaskPool pool(threads);
    const par::PoolScope scope(pool);
    RingBufferSink par_sink;
    const auto par = ParallelStoreForwardSim(dims).run_with_faults(
        packets, sched, 1 << 22, &par_sink);
    expect_same_fault_result(par, ser);
    expect_same_trace(par_sink, ser_sink);
    // The shards partition the serial worklist, so even the active-set
    // accounting agrees (stale entries included).
    EXPECT_EQ(par.sim.link_visits, ser.sim.link_visits);
  }
}

TEST_P(SimcoreEquiv, WormholeMatchesReference) {
  Rng rng(GetParam() ^ 0x3030);
  const int dims = 4 + static_cast<int>(rng.below(3));
  const Hypercube q(dims);
  std::vector<Worm> worms;
  const int count = 60;
  for (int i = 0; i < count; ++i) {
    Worm w;
    const Node s = static_cast<Node>(rng.below(q.num_nodes()));
    const Node d = static_cast<Node>(rng.below(q.num_nodes()));
    w.route = ecube_route(q, s, d);
    w.flits = 1 + static_cast<int>(rng.below(12));
    w.release = static_cast<int>(rng.below(5));
    worms.push_back(std::move(w));
  }
  RingBufferSink flat_sink, ref_sink;
  const auto flat = WormholeSim(dims).run(worms, 1 << 22, &flat_sink);
  const auto ref = RefWormholeSim(dims).run(worms, 1 << 22, &ref_sink);
  EXPECT_EQ(flat.makespan, ref.makespan);
  EXPECT_EQ(flat.completion, ref.completion);
  EXPECT_EQ(flat.total_flit_hops, ref.total_flit_hops);
  expect_same_trace(flat_sink, ref_sink);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimcoreEquiv,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u, 17u,
                                           18u, 19u, 20u));

}  // namespace
}  // namespace hyperpath
