// Randomized equivalence: the flat-arena simulators (simcore.hpp) must be
// bit-identical — results AND trace streams — to the map-based reference
// implementations (support/reference_sim.hpp) under FIFO, farthest-first,
// fault schedules and staggered releases, under task pools of several
// sizes, which the serial step loop must ignore.  A route set compiled
// dense and compact must run identically too: run_plan maps link ids at its
// boundary, so results, fates and trace bytes never see the link space.
// These tests are the license to keep optimizing the hot loops: anything
// they accept emits the same bytes the reference does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include "base/rng.hpp"
#include "core/cycle_multipath.hpp"
#include "core/grid_multipath.hpp"
#include "par/task_pool.hpp"
#include "sim/faults.hpp"
#include "sim/phase.hpp"
#include "sim/simcore.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"
#include "sim/wormhole.hpp"
#include "support/compact_links.hpp"
#include "support/faulted_run.hpp"
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
    const auto flat = run_with_faults(dims, packets, sched, policy, 1 << 22,
                                      &flat_sink);
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
    const auto par = StoreForwardSim(dims).run(packets, Arbitration::kFifo,
                                               1 << 22, &par_sink);
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
  const auto ser = run_with_faults(dims, packets, sched, Arbitration::kFifo,
                                   1 << 22, &ser_sink);
  for (int threads : {1, 2, 3, 4, 5, 7, 8}) {
    par::TaskPool pool(threads);
    const par::PoolScope scope(pool);
    RingBufferSink par_sink;
    const auto par = run_with_faults(dims, packets, sched, Arbitration::kFifo,
                                     1 << 22, &par_sink);
    expect_same_fault_result(par, ser);
    expect_same_trace(par_sink, ser_sink);
    // Even the active-set accounting agrees (stale entries included).
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

/// Streams `packets` into an unlinked plan and renumbers it compactly —
/// the compile path of the oracle phase and the recovery waves.
simcore::RoutePlan compact_plan(const Hypercube& q,
                                const std::vector<Packet>& packets) {
  simcore::RoutePlan plan;
  std::vector<std::uint64_t> glinks;
  for (const Packet& p : packets) {
    plan.begin_route(static_cast<std::uint32_t>(p.release));
    plan.push_nodes(p.route);
    plan.end_route_unlinked(q.dims(), glinks);
  }
  compact_links(plan, glinks, q.dims());
  return plan;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// One traced, faulted run of `plan`; the JSONL trace lands in `path`.
FaultRunResult traced_faulted_run(const simcore::RoutePlan& plan, int dims,
                                  const FaultSchedule& schedule,
                                  Arbitration policy,
                                  const std::string& path) {
  FaultRunResult out;
  obs::JsonlFileSink sink(path);
  out.sim = run_plan<true, true>(plan, dims, policy, 1 << 22, &sink,
                                 &schedule, true, &out);
  return out;
}

TEST(LinkSpaceEquiv, CompactPlanMatchesDenseTracedAndFaulted) {
  struct Case {
    const char* name;
    MultiPathEmbedding emb;
  };
  Case cases[] = {
      {"Q_8 cycle", theorem1_cycle_embedding(8)},
      {"Q_10 cycle", theorem1_cycle_embedding(10)},
      {"Q_12 torus", grid_multipath_embedding(GridSpec{{64, 64}, true})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Hypercube& q = c.emb.host();
    const int dims = q.dims();
    std::vector<Packet> packets = phase_packets(c.emb, 2);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      packets[i].release = static_cast<int>(i % 3);  // staggered releases
    }
    const simcore::RoutePlan dense = simcore::RoutePlan::compile(q, packets);
    const simcore::RoutePlan compact = compact_plan(q, packets);
    ASSERT_FALSE(dense.compact());
    ASSERT_TRUE(compact.compact());

    // A transient fault on a busy link, a node fault on a route, and a
    // fault on a physical link no route uses in either direction.
    const std::set<std::uint64_t> used(dense.link_of_hop.begin(),
                                       dense.link_of_hop.end());
    const std::uint64_t busy = dense.link_of_hop[dense.link_of_hop.size() / 2];
    const Node busy_tail = static_cast<Node>(busy / dims);
    const Node busy_head = busy_tail ^ (Node{1} << (busy % dims));
    const HostPath& route =
        std::max_element(packets.begin(), packets.end(),
                         [](const Packet& a, const Packet& b) {
                           return a.route.size() < b.route.size();
                         })
            ->route;
    ASSERT_GE(route.size(), 3u);
    Node idle_u = 0, idle_v = 0;
    bool found = false;
    for (Node u = 0; u < q.num_nodes() && !found; ++u) {
      for (int d = 0; d < dims && !found; ++d) {
        const Node v = u ^ (Node{1} << d);
        if (!used.contains(q.edge_id(u, v)) &&
            !used.contains(q.edge_id(v, u))) {
          idle_u = u;
          idle_v = v;
          found = true;
        }
      }
    }
    ASSERT_TRUE(found) << "every physical link carries traffic";
    FaultSchedule schedule(dims);
    schedule.transient_link(1, 5, busy_tail, busy_head);
    schedule.node_down(2, route[1]);
    schedule.link_down(0, idle_u, idle_v);

    for (const Arbitration policy :
         {Arbitration::kFifo, Arbitration::kFarthestFirst}) {
      SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)));
      const std::string dense_path =
          ::testing::TempDir() + "link_space_dense.jsonl";
      const std::string compact_path =
          ::testing::TempDir() + "link_space_compact.jsonl";
      const FaultRunResult want =
          traced_faulted_run(dense, dims, schedule, policy, dense_path);
      const FaultRunResult got =
          traced_faulted_run(compact, dims, schedule, policy, compact_path);
      EXPECT_GT(want.lost, 0u);
      expect_same_fault_result(got, want);
      EXPECT_EQ(got.sim.link_visits, want.sim.link_visits);
      const std::string dense_trace = read_file(dense_path);
      EXPECT_FALSE(dense_trace.empty());
      EXPECT_TRUE(read_file(compact_path) == dense_trace)
          << "JSONL traces differ";
      std::remove(dense_path.c_str());
      std::remove(compact_path.c_str());

      // The untraced faulted kernels agree with the traced ones.
      FaultRunResult plain;
      plain.sim = run_plan<false, true>(compact, dims, policy, 1 << 22,
                                        nullptr, &schedule, false, &plain);
      expect_same_fault_result(plain, want);
      EXPECT_EQ(plain.sim.link_visits, want.sim.link_visits);
    }
  }
}

/// A Theorem-1 phase laid out as the oracle phase compiles it: p = w + 2
/// packets per guest edge in phase_packets order, staggered releases.
/// The dense plan compiles every packet's route; the compact plan streams
/// an edge's first w packets and makes each later one a repeat_route onto
/// its slot, so links are numbered in first use over shared segments.
struct SharedPhase {
  std::vector<Packet> packets;
  simcore::RoutePlan dense;
  simcore::RoutePlan compact;
};

SharedPhase shared_phase(const MultiPathEmbedding& emb, Rng& rng) {
  const Hypercube& q = emb.host();
  const std::size_t w = emb.paths(0).size();
  const std::size_t p = w + 2;
  SharedPhase out;
  out.packets = phase_packets(emb, static_cast<int>(p));
  for (Packet& pk : out.packets) pk.release = static_cast<int>(rng.below(4));
  out.dense = simcore::RoutePlan::compile(q, out.packets);
  std::vector<std::uint64_t> glinks;
  for (std::size_t k = 0; k < out.packets.size(); ++k) {
    const auto release = static_cast<std::uint32_t>(out.packets[k].release);
    const std::size_t j = k % p;
    if (j >= w) {
      out.compact.repeat_route(static_cast<std::uint32_t>(k - j + j % w),
                               release);
    } else {
      out.compact.begin_route(release);
      out.compact.push_nodes(out.packets[k].route);
      out.compact.end_route_unlinked(q.dims(), glinks);
    }
  }
  compact_links(out.compact, glinks, q.dims());
  return out;
}

void expect_same_sim_fields(const SimResult& a, const SimResult& b) {
  expect_same_result(a, b);
  EXPECT_EQ(a.link_visits, b.link_visits);
}

/// Compact first-use plan against the dense per-packet plan of the same
/// phase, both policies: fault-free results field for field, and under a
/// timed fault schedule the fates and the JSONL trace byte for byte.
void expect_first_use_runs_like_dense(const MultiPathEmbedding& emb,
                                      std::uint64_t seed) {
  Rng rng(seed);
  const int dims = emb.host().dims();
  const SharedPhase phase = shared_phase(emb, rng);
  ASSERT_TRUE(phase.compact.compact());
  ASSERT_LT(phase.compact.link_of_hop.size(), phase.dense.link_of_hop.size());
  ASSERT_FALSE(std::is_sorted(phase.compact.global_link.begin(),
                              phase.compact.global_link.end()));

  // Random link and node faults, plus a transient one on a link the phase
  // loads, so some packets are really lost.
  FaultSchedule schedule = random_schedule(dims, rng);
  const std::uint64_t busy =
      phase.dense.link_of_hop[rng.below(phase.dense.link_of_hop.size())];
  const Node tail = static_cast<Node>(busy / dims);
  schedule.transient_link(1, 4, tail, tail ^ (Node{1} << (busy % dims)));

  for (const Arbitration policy :
       {Arbitration::kFifo, Arbitration::kFarthestFirst}) {
    SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)));
    const SimResult want = run_plan<false, false>(
        phase.dense, dims, policy, 1 << 22, nullptr, nullptr, false, nullptr);
    const SimResult got = run_plan<false, false>(
        phase.compact, dims, policy, 1 << 22, nullptr, nullptr, false,
        nullptr);
    expect_same_sim_fields(got, want);

    const std::string tag = std::to_string(dims) + "_" + std::to_string(seed);
    const std::string dense_path =
        ::testing::TempDir() + "first_use_dense_" + tag + ".jsonl";
    const std::string compact_path =
        ::testing::TempDir() + "first_use_compact_" + tag + ".jsonl";
    const FaultRunResult want_faulted =
        traced_faulted_run(phase.dense, dims, schedule, policy, dense_path);
    const FaultRunResult got_faulted =
        traced_faulted_run(phase.compact, dims, schedule, policy,
                           compact_path);
    EXPECT_GT(want_faulted.lost, 0u);
    expect_same_fault_result(got_faulted, want_faulted);
    EXPECT_EQ(got_faulted.sim.link_visits, want_faulted.sim.link_visits);
    const std::string dense_trace = read_file(dense_path);
    EXPECT_FALSE(dense_trace.empty());
    EXPECT_TRUE(read_file(compact_path) == dense_trace)
        << "JSONL traces differ";
    std::remove(dense_path.c_str());
    std::remove(compact_path.c_str());
  }
}

TEST_P(SimcoreEquiv, CompactFirstUseMatchesDenseQ8) {
  static const MultiPathEmbedding emb = theorem1_cycle_embedding(8);
  expect_first_use_runs_like_dense(emb, GetParam());
}

TEST_P(SimcoreEquiv, CompactFirstUseMatchesDenseQ10) {
  static const MultiPathEmbedding emb = theorem1_cycle_embedding(10);
  expect_first_use_runs_like_dense(emb, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimcoreEquiv,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u, 17u,
                                           18u, 19u, 20u));

}  // namespace
}  // namespace hyperpath
