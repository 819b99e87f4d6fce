// Tests for timed fault schedules (FaultSchedule / FaultTimeline), the
// simulators' run_with_faults truncation semantics, and the sender-side
// recovery engine (sim/recovery.hpp) — including the serial/parallel
// bit-identity guarantee under faults.
#include "sim/recovery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "core/cycle_multipath.hpp"
#include "embed/classical.hpp"
#include "obs/trace.hpp"
#include "par/task_pool.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"
#include "support/faulted_run.hpp"

namespace hyperpath {
namespace {

using obs::RingBufferSink;
using obs::TraceEvent;
using obs::TraceEventKind;

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.dim_transmissions, b.dim_transmissions);
  EXPECT_EQ(a.latency, b.latency);
}

void expect_identical(const FaultRunResult& a, const FaultRunResult& b) {
  expect_identical(a.sim, b.sim);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.lost, b.lost);
  ASSERT_EQ(a.fates.size(), b.fates.size());
  for (std::size_t i = 0; i < a.fates.size(); ++i) {
    EXPECT_EQ(a.fates[i], b.fates[i]) << "fate of packet " << i;
  }
}

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

// ---------------------------------------------------------------------------
// FaultSet node faults + random validation (satellite regression)

TEST(FaultSetNode, KillNodeKillsAllIncidentLinks) {
  FaultSet f(3);
  f.kill_node(0b000);
  EXPECT_TRUE(f.node_dead(0b000));
  EXPECT_EQ(f.num_dead_nodes(), 1u);
  EXPECT_EQ(f.num_dead_directed(), 6u);  // 2n with n = 3
  for (Dim d = 0; d < 3; ++d) {
    EXPECT_TRUE(f.link_dead(0b000, Node{1} << d));
    EXPECT_TRUE(f.link_dead(Node{1} << d, 0b000));
  }
  EXPECT_FALSE(f.link_dead(0b011, 0b111));
}

TEST(FaultSetNode, PathWithDeadIntermediateNodeIsDead) {
  FaultSet f(3);
  f.kill_node(0b001);
  EXPECT_FALSE(f.path_alive(HostPath{0b000, 0b001, 0b011}));
  EXPECT_TRUE(f.path_alive(HostPath{0b000, 0b010, 0b011}));
  // Even a path that only *ends* at the dead node is dead.
  EXPECT_FALSE(f.path_alive(HostPath{0b011, 0b001}));
}

TEST(FaultSetNode, ReviveRestoresOverlappingLinkKills) {
  // Kill a link directly AND via a node fault; reviving the node alone must
  // leave the directly-killed link dead.
  FaultSet f(3);
  f.kill_link(0b000, 0b001);
  f.kill_node(0b000);
  f.revive_node(0b000);
  EXPECT_FALSE(f.node_dead(0b000));
  EXPECT_TRUE(f.link_dead(0b000, 0b001));
  EXPECT_FALSE(f.link_dead(0b000, 0b010));
  f.revive_link(0b000, 0b001);
  EXPECT_EQ(f.num_dead_directed(), 0u);
}

TEST(FaultSetNode, RandomNodesKillsRequestedCount) {
  Rng rng(3);
  const auto f = FaultSet::random_nodes(4, 5, rng);
  EXPECT_EQ(f.num_dead_nodes(), 5u);
}

TEST(FaultSetRandom, ThrowsInsteadOfLoopingWhenCountTooLarge) {
  Rng rng(1);
  // Q_3 has 12 physical links; asking for more must throw, not spin.
  EXPECT_THROW(FaultSet::random(3, 13, rng), Error);
  EXPECT_THROW(FaultSet::random(3, -1, rng), Error);
  EXPECT_THROW(FaultSet::random_nodes(3, 9, rng), Error);
  EXPECT_THROW(FaultSet::random_nodes(3, -2, rng), Error);
  // The boundary cases are fine.
  EXPECT_EQ(FaultSet::random(3, 12, rng).num_dead_directed(), 24u);
  EXPECT_EQ(FaultSet::random_nodes(3, 8, rng).num_dead_nodes(), 8u);
}

// ---------------------------------------------------------------------------
// FaultSchedule

TEST(FaultSchedule, KeepsEventsSortedByStep) {
  FaultSchedule s(3);
  s.link_down(5, 0b000, 0b001);
  s.node_down(1, 0b011);
  s.link_down(5, 0b010, 0b110);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.events()[0].step, 1);
  EXPECT_EQ(s.events()[1].step, 5);
  // Stable within a step: insertion order preserved.
  EXPECT_EQ(s.events()[1].u, 0b000u);
  EXPECT_EQ(s.events()[2].u, 0b010u);
}

TEST(FaultSchedule, StateAtAppliesPrefix) {
  FaultSchedule s(3);
  s.transient_link(2, 10, 0b000, 0b001);
  s.node_down(6, 0b111);
  EXPECT_FALSE(s.state_at(1).link_dead(0b000, 0b001));
  EXPECT_TRUE(s.state_at(2).link_dead(0b000, 0b001));
  EXPECT_TRUE(s.state_at(9).link_dead(0b000, 0b001));
  EXPECT_FALSE(s.state_at(10).link_dead(0b000, 0b001));
  EXPECT_FALSE(s.state_at(5).node_dead(0b111));
  EXPECT_TRUE(s.state_at(6).node_dead(0b111));
  const FaultSet end = s.final_state();
  EXPECT_TRUE(end.node_dead(0b111));
  EXPECT_FALSE(end.link_dead(0b000, 0b001));
}

TEST(FaultSchedule, SerializeParseRoundTrip) {
  FaultSchedule s(4);
  s.link_down(0, 0b0000, 0b0001);
  s.transient_node(3, 9, 0b0101);
  s.link_up(12, 0b0000, 0b0001);
  const std::string text = s.serialize();
  const FaultSchedule parsed = FaultSchedule::parse(text);
  EXPECT_EQ(parsed.dims(), 4);
  ASSERT_EQ(parsed.events().size(), s.events().size());
  for (std::size_t i = 0; i < s.events().size(); ++i) {
    EXPECT_EQ(parsed.events()[i], s.events()[i]);
  }
}

TEST(FaultSchedule, ParseAcceptsCommentsAndRejectsGarbage) {
  const FaultSchedule ok = FaultSchedule::parse(
      "# a schedule\n"
      "dims 3\n"
      "\n"
      "0 link-down 0 1  # first fault\n"
      "4 node-down 7\n");
  EXPECT_EQ(ok.size(), 2u);
  EXPECT_THROW(FaultSchedule::parse("0 link-down 0 1\n"), Error);  // no dims
  EXPECT_THROW(FaultSchedule::parse("dims 3\n0 melt-down 1\n"), Error);
  EXPECT_THROW(FaultSchedule::parse("dims 3\n0 link-down 0\n"), Error);
  EXPECT_THROW(FaultSchedule::parse("dims 3\n0 link-down 0 3\n"), Error);
  EXPECT_THROW(FaultSchedule::parse("dims 3\nx link-down 0 1\n"), Error);
  EXPECT_THROW(FaultSchedule::parse("dims 3\ndims 3\n"), Error);
}

/// The message FaultSchedule::parse throws for `text`; "" if it parses.
std::string parse_error(const std::string& text) {
  try {
    FaultSchedule::parse(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(FaultSchedule, ParseRejectsJunkNumbers) {
  // Every number must be the whole token: "3x" is not step 3.
  EXPECT_NE(parse_error("dims 3\n3x link-down 0 1\n")
                .find("fault schedule line 2"),
            std::string::npos);
  EXPECT_NE(parse_error("dims 3\n0 node-down 7x\n")
                .find("fault schedule line 2"),
            std::string::npos);
  EXPECT_NE(parse_error("dims 3x\n").find("fault schedule line 1"),
            std::string::npos);
}

TEST(FaultSchedule, ParseRejectsTrailingTokens) {
  EXPECT_NE(parse_error("dims 3\n0 link-down 0 1 junk\n")
                .find("fault schedule line 2"),
            std::string::npos);
  EXPECT_NE(parse_error("dims 3\n\n4 node-down 7 6\n")
                .find("fault schedule line 3"),
            std::string::npos);
  EXPECT_NE(parse_error("dims 3 4\n").find("fault schedule line 1"),
            std::string::npos);
}

TEST(FaultSchedule, ParseRejectsOutOfRangeDimsWithLineNumber) {
  const std::string msg = parse_error("# header\ndims 99\n");
  EXPECT_NE(msg.find("fault schedule line 2: dims 99 out of range"),
            std::string::npos)
      << msg;
  EXPECT_NE(parse_error("dims 31\n").find("fault schedule line 1"),
            std::string::npos);
  EXPECT_EQ(FaultSchedule::parse("dims 30\n").dims(), 30);
}

// A repair with no live fault to undo is a parse error at the repair's own
// line, found by replaying the step-sorted events.
TEST(FaultSchedule, ParseRejectsLinkUpWithNoFault) {
  const std::string msg = parse_error("dims 8\n0 link-up 0 1\n");
  EXPECT_NE(msg.find("fault schedule line 2: link-up repairs a link that is "
                     "not down"),
            std::string::npos)
      << msg;
}

TEST(FaultSchedule, ParseRejectsNodeUpWithNoFault) {
  const std::string msg = parse_error("dims 8\n0 node-up 5\n");
  EXPECT_NE(msg.find("fault schedule line 2: node-up repairs a node that is "
                     "not down"),
            std::string::npos)
      << msg;
}

// A link repair undoes only a link fault: the links a node fault kills
// come back with node-up alone.
TEST(FaultSchedule, ParseRejectsLinkUpOfNodeFaultLink) {
  const std::string msg =
      parse_error("dims 8\n0 node-down 5\n0 link-up 5 4\n");
  EXPECT_NE(msg.find("fault schedule line 3: link-up repairs a link that is "
                     "not down"),
            std::string::npos)
      << msg;
  FaultSet f(8);
  f.kill_node(5);
  EXPECT_THROW(f.revive_link(5, 4), Error);
  EXPECT_EQ(f.num_dead_directed(), 16u);  // 2n links of the dead node
  f.kill_link(5, 4);
  f.revive_link(4, 5);  // either orientation names the physical link
  EXPECT_TRUE(f.link_dead(5, 4));
  f.revive_node(5);
  EXPECT_EQ(f.num_dead_directed(), 0u);
}

TEST(FaultSchedule, ParseRejectsSecondRepairOfOneFault) {
  const std::string msg = parse_error(
      "dims 8\n"
      "# one fault, two repairs\n"
      "4 link-up 0 1\n"
      "0 link-down 0 1\n"
      "9 link-up 1 0\n");
  // Sorted by step, the line-3 repair undoes the line-4 fault and the
  // line-5 repair has nothing left to undo.
  EXPECT_NE(msg.find("fault schedule line 5"), std::string::npos) << msg;
  EXPECT_EQ(FaultSchedule::parse("dims 8\n4 link-up 0 1\n0 link-down 0 1\n")
                .size(),
            2u);
}

TEST(FaultTimeline, ExpandsNodeEventsAndReportsDeltas) {
  FaultSchedule s(3);
  s.node_down(2, 0b000);
  s.node_up(7, 0b000);
  FaultTimeline t(s);
  EXPECT_TRUE(t.advance_to(0).empty());
  const std::vector<std::uint64_t> at2 = t.advance_to(2);
  EXPECT_EQ(at2.size(), 6u);
  EXPECT_TRUE(std::is_sorted(at2.begin(), at2.end()));
  for (const std::uint64_t id : at2) EXPECT_TRUE(t.link_dead(id));
  EXPECT_TRUE(t.link_dead(Hypercube(3).edge_id(Node{0b000}, Node{0b001})));
  // The repair flips the same six links back.
  EXPECT_EQ(t.advance_to(7), at2);
  for (const std::uint64_t id : at2) EXPECT_FALSE(t.link_dead(id));
}

TEST(FaultTimeline, SameAdvanceDownUpCancelsOut) {
  FaultSchedule s(3);
  s.transient_link(3, 4, 0b000, 0b001);
  FaultTimeline t(s);
  // Jumping past both events in one advance reports neither transition.
  EXPECT_TRUE(t.advance_to(10).empty());
  EXPECT_FALSE(t.link_dead(Hypercube(3).edge_id(Node{0b000}, Node{0b001})));
}

/// The directed links dead in `f`, sorted: every directed link of Q_dims
/// probed one by one.
std::vector<std::uint64_t> dead_directed(const FaultSet& f, int dims) {
  const Hypercube q(dims);
  std::vector<std::uint64_t> out;
  for (Node u = 0; u < q.num_nodes(); ++u) {
    for (Dim d = 0; d < dims; ++d) {
      const Node v = q.neighbor(u, d);
      if (f.link_dead(u, v)) out.push_back(q.edge_id(u, v));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Property: over random schedules with node and transient faults and
// random advance strides, each delta is exactly the set of directed links
// whose state differs between state_at(previous advance) and
// state_at(step), and link_dead agrees with the snapshot.
TEST(FaultTimeline, DeltaIsTheStateDifferenceAcrossEachAdvance) {
  Rng meta(20261019);
  int advances = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const int dims = 3 + static_cast<int>(meta.below(4));  // Q_3 .. Q_6
    RandomScheduleSpec spec;
    spec.window = 1 + static_cast<int>(meta.below(10));
    spec.link_rate = 0.05 * static_cast<double>(1 + meta.below(6));
    spec.node_rate = 0.05 * static_cast<double>(meta.below(4));
    spec.transient_fraction = 0.25 * static_cast<double>(meta.below(5));
    spec.min_repair = 1 + static_cast<int>(meta.below(3));
    spec.max_repair = spec.min_repair + static_cast<int>(meta.below(8));
    Rng rng(500 + static_cast<std::uint64_t>(iter));
    const FaultSchedule s = FaultSchedule::random(dims, spec, rng);
    const int last = s.empty() ? 0 : s.events().back().step;

    FaultTimeline t(s);
    std::vector<std::uint64_t> before;  // nothing is dead before step 0
    for (int step = static_cast<int>(meta.below(3));;
         step += 1 + static_cast<int>(meta.below(4))) {
      const FaultTimeline::StepDelta& delta = t.advance_to(step);
      const std::vector<std::uint64_t> after =
          dead_directed(s.state_at(step), dims);
      std::vector<std::uint64_t> flipped;
      std::set_symmetric_difference(before.begin(), before.end(),
                                    after.begin(), after.end(),
                                    std::back_inserter(flipped));
      EXPECT_EQ(delta, flipped) << "iter " << iter << " step " << step;
      for (const std::uint64_t id : delta) {
        EXPECT_EQ(t.link_dead(id),
                  std::binary_search(after.begin(), after.end(), id))
            << "iter " << iter << " step " << step << " link " << id;
      }
      before = after;
      ++advances;
      if (step > last) break;
    }
  }
  EXPECT_GT(advances, 1000);
}

// ---------------------------------------------------------------------------
// run_with_faults truncation semantics

TEST(RunWithFaults, EmptyScheduleMatchesPlainRun) {
  const int dims = 5;
  const auto packets = random_workload(dims, 200, 21);
  const FaultSchedule empty(dims);
  const auto plain = StoreForwardSim(dims).run(packets);
  const auto faulty = run_with_faults(dims, packets, empty);
  expect_identical(plain, faulty.sim);
  EXPECT_EQ(faulty.lost, 0u);
  EXPECT_EQ(faulty.delivered, packets.size());
  for (const PacketFate& f : faulty.fates) EXPECT_TRUE(f.delivered());
}

TEST(RunWithFaults, TruncatesInFlightPacketAtTheBreak) {
  // One packet on a 3-hop route; its second link dies at step 1, exactly
  // when the packet is waiting on it.
  const Hypercube q(3);
  std::vector<Packet> packets;
  packets.push_back({{0b000, 0b001, 0b011, 0b111}, 0, 0});
  FaultSchedule s(3);
  s.link_down(1, 0b001, 0b011);
  RingBufferSink sink;
  const auto r =
      run_with_faults(3, packets, s, Arbitration::kFifo, 1 << 22, &sink);
  EXPECT_EQ(r.lost, 1u);
  EXPECT_EQ(r.delivered, 0u);
  ASSERT_EQ(r.fates.size(), 1u);
  EXPECT_EQ(r.fates[0].kind, PacketFate::Kind::kLost);
  EXPECT_EQ(r.fates[0].step, 1);
  EXPECT_EQ(r.fates[0].hops, 1);  // completed the first hop
  EXPECT_EQ(r.fates[0].link, q.edge_id(Node{0b001}, Node{0b011}));
  // Trace: one kFault pair (both directions), one kDrop at step 1.
  EXPECT_EQ(sink.total(TraceEventKind::kFault), 2u);
  EXPECT_EQ(sink.total(TraceEventKind::kDrop), 1u);
  EXPECT_EQ(sink.total(TraceEventKind::kArrive), 0u);
}

TEST(RunWithFaults, RepairedLinkCarriesTrafficAgain) {
  // Same route, but the link heals before the packet is released.
  std::vector<Packet> packets;
  packets.push_back({{0b000, 0b001, 0b011, 0b111}, 6, 0});
  FaultSchedule s(3);
  s.transient_link(1, 5, 0b001, 0b011);
  RingBufferSink sink;
  const auto r =
      run_with_faults(3, packets, s, Arbitration::kFifo, 1 << 22, &sink);
  EXPECT_EQ(r.delivered, 1u);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(sink.total(TraceEventKind::kFault), 2u);
  EXPECT_EQ(sink.total(TraceEventKind::kRepair), 2u);
}

TEST(RunWithFaults, NodeFaultTruncatesTrafficThroughIt) {
  // Every packet routed through the dead node is truncated; others pass.
  const int dims = 4;
  const auto packets = random_workload(dims, 150, 5);
  FaultSchedule s(dims);
  s.node_down(0, 0b0110);
  const auto r = run_with_faults(dims, packets, s);
  EXPECT_EQ(r.delivered + r.lost, packets.size());
  EXPECT_GT(r.lost, 0u);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (!r.fates[i].delivered()) {
      // The break must be a link incident to the dead node.
      const Hypercube q(dims);
      const auto [tail, dim] = q.edge_of_id(r.fates[i].link);
      const Node head = q.neighbor(tail, dim);
      EXPECT_TRUE(tail == 0b0110 || head == 0b0110);
    }
  }
}

TEST(RunWithFaults, SerialAndParallelAreBitIdentical) {
  const int dims = 6;
  const auto packets = random_workload(dims, 400, 33);
  FaultSchedule s(dims);
  Rng rng(7);
  const Hypercube q(dims);
  for (int i = 0; i < 12; ++i) {
    const Node u = static_cast<Node>(rng.below(q.num_nodes()));
    const Dim d = static_cast<Dim>(rng.below(dims));
    s.link_down(static_cast<int>(rng.below(8)), u, q.neighbor(u, d));
  }
  s.transient_node(2, 9, 0b010101);

  RingBufferSink serial_sink;
  const auto a = run_with_faults(dims, packets, s, Arbitration::kFifo,
                                 1 << 22, &serial_sink);
  for (int threads : {1, 2, 5}) {
    par::TaskPool pool(threads);
    const par::PoolScope scope(pool);
    RingBufferSink par_sink;
    const auto b = run_with_faults(dims, packets, s, Arbitration::kFifo,
                                   1 << 22, &par_sink);
    expect_identical(a, b);
    ASSERT_EQ(serial_sink.total(), par_sink.total());
    EXPECT_EQ(serial_sink.events(), par_sink.events());
  }
}

// ---------------------------------------------------------------------------
// Recovery engine

TEST(Recovery, NoFaultsDeliversEverythingInOneWave) {
  const auto emb = theorem1_cycle_embedding(6);
  const FaultSchedule empty(6);
  const auto r = run_recovery(emb, empty);
  EXPECT_EQ(r.messages_complete, r.messages_total);
  EXPECT_EQ(r.retransmissions, 0u);
  EXPECT_EQ(r.waves, 1);
  EXPECT_EQ(r.delivery_rate(), 1.0);
  EXPECT_EQ(r.goodput(), 1.0);
  EXPECT_EQ(r.messages_recovered, 0u);
}

TEST(Recovery, RetransmitsOntoSurvivingPathAfterLoss) {
  // Kill one link of one bundle path mid-run; with threshold w the lost
  // fragment must be retransmitted on another path and still arrive.
  const auto emb = theorem1_cycle_embedding(6);
  const BundleView bundle = emb.paths(0);
  ASSERT_GE(bundle.size(), 2u);
  // Break the longest path of bundle 0 on its middle link at step 0, so its
  // fragment is truncated before crossing.
  PathView victim = bundle[0];
  for (const PathView p : bundle) {
    if (p.size() > victim.size()) victim = p;
  }
  ASSERT_GE(victim.size(), 3u);
  FaultSchedule s(6);
  s.link_down(0, victim[1], victim[2]);

  RecoveryConfig cfg;
  cfg.timeout = 4;
  cfg.max_retries = 3;
  RingBufferSink sink;
  const auto r = run_recovery(emb, s, cfg, &sink);
  EXPECT_EQ(r.messages_complete, r.messages_total);
  EXPECT_GT(r.retransmissions, 0u);
  EXPECT_GE(r.waves, 2);
  EXPECT_GT(r.messages_recovered, 0u);
  EXPECT_EQ(sink.total(TraceEventKind::kRetransmit), r.retransmissions);
  EXPECT_GT(r.recovery_latency.count(), 0u);
  EXPECT_LT(r.goodput(), 1.0);  // the truncated hops were wasted
}

TEST(Recovery, IdaThresholdCompletesWithoutRetransmission) {
  // With threshold w-1 a single dead path per bundle costs nothing: the
  // other w-1 fragments complete the message, and the engine suppresses
  // the retransmit of the lost fragment.
  const auto emb = theorem1_cycle_embedding(6);
  const BundleView bundle = emb.paths(0);
  PathView victim = bundle[0];
  for (const PathView p : bundle) {
    if (p.size() > victim.size()) victim = p;
  }
  FaultSchedule s(6);
  s.link_down(0, victim[1], victim[2]);

  RecoveryConfig cfg;
  cfg.threshold = emb.width() - 1;
  // Generous timeout: every surviving fragment arrives before any loss is
  // even detected, so no retransmission can fire for a completed message.
  cfg.timeout = 4096;
  const auto r = run_recovery(emb, s, cfg);
  EXPECT_EQ(r.messages_complete, r.messages_total);
  EXPECT_GT(r.fragments_lost, 0u);
  EXPECT_EQ(r.retransmissions, 0u);
  EXPECT_EQ(r.waves, 1);
}

TEST(Recovery, ExhaustsRetriesWhenEveryPathIsDead) {
  // Sever every bundle path of guest edge 0 permanently: its message can
  // never complete, and each lost fragment consumes its full retry budget.
  const auto emb = theorem1_cycle_embedding(6);
  const Node src = emb.host_of(0);
  FaultSchedule s(6);
  s.node_down(0, src);  // kills all paths out of the source
  RecoveryConfig cfg;
  cfg.timeout = 2;
  cfg.max_retries = 2;
  const auto r = run_recovery(emb, s, cfg);
  EXPECT_LT(r.messages_complete, r.messages_total);
  EXPECT_GT(r.fragments_exhausted, 0u);
  EXPECT_LT(r.delivery_rate(), 1.0);
  // Bounded retries: never more retransmissions than budget allows.
  EXPECT_LE(r.retransmissions,
            r.fragments_lost * static_cast<std::uint64_t>(cfg.max_retries));
}

TEST(Recovery, TransientFaultHealsAndMessageCompletes) {
  // Dedicated single-message embedding: a width-2 bundle where BOTH paths
  // are down initially and one heals.  The fragment retries with backoff
  // until the repair lands, then completes.
  const auto emb = gray_code_cycle_embedding(4);  // width 1
  const BundleView bundle = emb.paths(0);
  ASSERT_EQ(bundle.size(), 1u);
  const PathView path = bundle[0];
  ASSERT_GE(path.size(), 2u);
  FaultSchedule s(4);
  s.transient_link(0, 40, path[0], path[1]);

  RecoveryConfig cfg;
  cfg.timeout = 8;
  cfg.max_retries = 5;
  const auto r = run_recovery(emb, s, cfg);
  // Message 0's fragment is lost at release, then backed off past step 40
  // (8 + 16 + 32 > 40) and delivered on the healed path.
  EXPECT_TRUE(r.messages[0].complete);
  EXPECT_GT(r.messages[0].retransmissions, 0);
  EXPECT_EQ(r.messages_complete, r.messages_total);
}

TEST(Recovery, HugeRetryBudgetSaturatesBackoffInsteadOfOverflowing) {
  // Boundary of the exponential backoff: with timeout 1 and 200 retries the
  // naive wait `timeout << (attempts-1)` would shift past 63 bits (UB) by
  // attempt 65.  The saturating clamp must instead pin the wait at the step
  // horizon and resolve the fragment as exhausted — same bookkeeping as a
  // small budget, no overflow (the sanitizer jobs run this test).
  const auto emb = gray_code_cycle_embedding(4);  // width 1, nowhere to go
  const BundleView bundle = emb.paths(0);
  FaultSchedule s(4);
  // Repair lands just inside the horizon, so a repair stays pending and
  // every attempt really probes (the all-paths-dead shortcut never fires).
  RecoveryConfig cfg;
  cfg.timeout = 1;
  cfg.max_retries = 200;
  cfg.max_steps = 1 << 16;
  s.transient_link(0, cfg.max_steps - 1, bundle[0][0], bundle[0][1]);

  const auto r = run_recovery(emb, s, cfg);
  EXPECT_FALSE(r.messages[0].complete);
  EXPECT_GT(r.fragments_exhausted, 0u);
  // Waits 1, 2, 4, ... saturate at the horizon well before the budget is
  // spent, so far fewer than 200 retransmissions can have been scheduled.
  EXPECT_LE(r.messages[0].retransmissions, 20);
  EXPECT_EQ(r.messages_complete, r.messages_total - 1);
}

TEST(Recovery, OversizedTimeoutSaturatesOnTheFirstAttempt) {
  // The clamp also guards the first attempt: a timeout beyond the horizon
  // means detection can never happen inside the run, so the fragment is
  // exhausted immediately even though a repair is still pending.
  const auto emb = gray_code_cycle_embedding(4);
  const BundleView bundle = emb.paths(0);
  RecoveryConfig cfg;
  cfg.timeout = 1 << 30;
  cfg.max_retries = 70;
  cfg.max_steps = 1 << 12;
  FaultSchedule s(4);
  s.transient_link(0, cfg.max_steps - 1, bundle[0][0], bundle[0][1]);

  const auto r = run_recovery(emb, s, cfg);
  EXPECT_FALSE(r.messages[0].complete);
  EXPECT_EQ(r.messages[0].retransmissions, 0);
  EXPECT_GT(r.fragments_exhausted, 0u);
}

// The acceptance-criteria test: a schedule that leaves every bundle at
// least one surviving path (links and nodes both faulting) must deliver
// every message with bounded retries.
TEST(Recovery, AnySubThresholdScheduleDeliversEverythingBothTransports) {
  const auto emb = theorem1_cycle_embedding(8);
  const int w = emb.width();
  ASSERT_EQ(w, 5);
  const Hypercube q(8);

  // Greedily build a random fault schedule that keeps >= 1 alive path per
  // bundle in the final state (faults are permanent, so the final state is
  // the binding constraint for eventual delivery).
  Rng rng(97);
  FaultSchedule schedule(8);
  FaultSet accum(8);
  const auto every_bundle_survives = [&](const FaultSet& f) {
    for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
      const auto d = deliver_over_bundle(f, emb.paths(e));
      if (d.paths_alive == 0) return false;
    }
    return true;
  };
  int added = 0;
  for (int tries = 0; tries < 200 && added < 24; ++tries) {
    const Node u = static_cast<Node>(rng.below(q.num_nodes()));
    const Dim d = static_cast<Dim>(rng.below(8));
    const Node v = q.neighbor(u, d);
    if (accum.link_dead(u, v)) continue;
    accum.kill_link(u, v);
    if (!every_bundle_survives(accum)) {
      accum.revive_link(u, v);
      continue;
    }
    schedule.link_down(static_cast<int>(rng.below(30)), u, v);
    ++added;
  }
  ASSERT_GT(added, 10);  // the greedy pass found plenty of safe faults

  RecoveryConfig cfg;
  cfg.timeout = 8;
  cfg.max_retries = 6;
  RingBufferSink serial_sink;
  const auto serial = run_recovery(emb, schedule, cfg, &serial_sink);

  EXPECT_EQ(serial.messages_complete, serial.messages_total);
  EXPECT_EQ(serial.fragments_exhausted, 0u);
  EXPECT_LE(serial.retransmissions,
            serial.fragments_lost * static_cast<std::uint64_t>(cfg.max_retries));
  for (const MessageOutcome& m : serial.messages) {
    EXPECT_TRUE(m.complete);
    EXPECT_LE(m.retransmissions, w * cfg.max_retries);
  }
}

}  // namespace
}  // namespace hyperpath
