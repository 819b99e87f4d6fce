// The algebraic oracle at scale: Q_20–Q_30 hosts that can never be
// materialized, verified by the sampling contract (endpoints, host
// adjacency, declared lengths, pairwise edge-disjointness), plus the
// oracle-fed consumers — RoutePlan streaming compilation, the compact-link
// phase simulator against its analytic congestion floor, and oracle-backed
// recovery — cross-checked against the materialized pipeline where both
// exist.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "ccc/ccc_embed.hpp"
#include "core/algebraic_oracle.hpp"
#include "core/cycle_multipath.hpp"
#include "core/grid_multipath.hpp"
#include "core/lower_bounds.hpp"
#include "core/tree_multipath.hpp"
#include "graph/builders.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "sim/oracle_sim.hpp"
#include "sim/phase.hpp"
#include "sim/recovery.hpp"
#include "sim/simcore.hpp"
#include "sim/store_forward.hpp"
#include "support/compact_links.hpp"

namespace hyperpath {
namespace {

using obs::RingBufferSink;
using obs::TraceEvent;

TEST(OracleSample, Q20Torus) {
  const auto oracle = algebraic_grid_oracle(GridSpec{{1024, 1024}, true});
  ASSERT_EQ(oracle->host_dims(), 20);
  const OracleSampleReport rep = oracle_sample_check(*oracle, 512, 2024);
  EXPECT_EQ(rep.edges_checked, 512u);
  EXPECT_GT(rep.paths_checked, rep.edges_checked);
}

TEST(OracleSample, Q24Torus) {
  const auto oracle = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
  ASSERT_EQ(oracle->host_dims(), 24);
  const OracleSampleReport rep = oracle_sample_check(*oracle, 512, 7);
  EXPECT_EQ(rep.edges_checked, 512u);
}

TEST(OracleSample, Q30Torus) {
  const auto oracle =
      algebraic_grid_oracle(GridSpec{{256, 256, 256, 64}, true});
  ASSERT_EQ(oracle->host_dims(), 30);
  const OracleSampleReport rep = oracle_sample_check(*oracle, 256, 30);
  EXPECT_EQ(rep.edges_checked, 256u);
}

/// Streaming compilation must produce byte-for-byte the plan that
/// RoutePlan::compile builds from materialized phase packets, up to the
/// compact renumbering: each hop's compact id maps back through
/// global_link to the dense id compile() gave it, and the compact ids
/// follow the dense ids' first use.  Neither plan repeats a route, so both
/// store every packet's hops, back to back, and neither stores a node.
TEST(OracleSample, RoutePlanStreamingMatchesCompile) {
  const MultiPathEmbedding emb = theorem1_cycle_embedding(8);
  const Hypercube& host = emb.host();
  const std::vector<Packet> packets = phase_packets(emb, 5);
  const simcore::RoutePlan compiled = simcore::RoutePlan::compile(host, packets);

  simcore::RoutePlan streamed;
  std::vector<std::uint64_t> glinks;
  for (const Packet& p : packets) {
    streamed.begin_route(static_cast<std::uint32_t>(p.release));
    streamed.push_nodes(p.route);
    streamed.end_route_unlinked(host.dims(), glinks);
  }
  compact_links(streamed, glinks, host.dims());
  ASSERT_TRUE(streamed.compact());
  EXPECT_TRUE(streamed.route_nodes.empty());
  EXPECT_TRUE(compiled.route_nodes.empty());
  EXPECT_EQ(streamed.route_offsets, compiled.route_offsets);
  EXPECT_EQ(streamed.route_len, compiled.route_len);
  EXPECT_EQ(streamed.release, compiled.release);
  ASSERT_EQ(streamed.link_of_hop.size(), compiled.link_of_hop.size());
  std::vector<std::uint64_t> first_use;  // dense ids in order of first use
  std::vector<bool> seen(host.num_directed_edges(), false);
  for (std::size_t h = 0; h < compiled.link_of_hop.size(); ++h) {
    const std::uint32_t dense = compiled.link_of_hop[h];
    ASSERT_EQ(streamed.global_link[streamed.link_of_hop[h]], dense)
        << "hop " << h;
    if (!seen[dense]) {
      seen[dense] = true;
      first_use.push_back(dense);
    }
  }
  EXPECT_EQ(streamed.global_link, first_use);
}

/// end_route_unlinked validates the walk and emits host link ids but
/// defers plan link ids; offsets and lengths must still line up with the
/// linked flavor.
TEST(OracleSample, RoutePlanUnlinkedOffsets) {
  const Hypercube host(4);
  simcore::RoutePlan plan;
  std::vector<std::uint64_t> glinks;
  plan.begin_route(0);
  plan.push_nodes(std::vector<Node>{0, 1});
  plan.push_nodes(std::vector<Node>{3});
  // The open route's nodes are staged in route_nodes until its end.
  EXPECT_EQ(plan.route_nodes, (std::vector<Node>{0, 1, 3}));
  plan.end_route_unlinked(4, glinks);
  EXPECT_TRUE(plan.route_nodes.empty());
  plan.begin_route(2);
  plan.push_nodes(std::vector<Node>{7, 5});
  EXPECT_EQ(plan.route_nodes, (std::vector<Node>{7, 5}));
  plan.end_route_unlinked(4, glinks);
  const std::vector<std::uint64_t> want = {host.edge_id(Node{0}, Node{1}),
                                            host.edge_id(Node{1}, Node{3}),
                                            host.edge_id(Node{7}, Node{5})};
  EXPECT_EQ(glinks, want);
  ASSERT_EQ(plan.num_routes(), 2u);
  EXPECT_EQ(plan.route_offsets, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(plan.route_len, (std::vector<std::uint32_t>{2, 1}));
  EXPECT_EQ(plan.release, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_TRUE(plan.route_nodes.empty());
  EXPECT_TRUE(plan.link_of_hop.empty());
}

TEST(OracleSample, RoutePlanUnlinkedRejectsBadWalk) {
  simcore::RoutePlan plan;
  plan.begin_route(0);
  plan.push_nodes(std::vector<Node>{0, 3});  // two bits flip: not a hop
  std::vector<std::uint64_t> glinks;
  EXPECT_THROW(plan.end_route_unlinked(4, glinks), Error);
}

/// compile_oracle_phase streams each distinct bundle path once per edge
/// and repeats it for the edge's further packets.  Route for route, its
/// plan must ride the same host links, with the same lengths and releases,
/// as streaming every packet's path through add_oracle_route in
/// phase_packets order; it must renumber to the same compact link set and
/// run, and give run_oracle_phase its peak, exactly as the per-packet plan
/// does.
void expect_compile_once_matches_per_packet(const PathOracle& oracle) {
  const int dims = oracle.host_dims();
  const std::vector<OracleEdge> edges = sample_guest_edges(oracle, 300, 11);
  const int w = oracle.width(edges.front());
  int min_width = w;
  for (const OracleEdge& e : edges) {
    min_width = std::min(min_width, oracle.width(e));
  }
  for (const int p : {1, w - 1, w, w + 1, 32}) {
    if (p < 1) continue;
    SCOPED_TRACE(std::string(oracle.family()) + " p=" + std::to_string(p));
    simcore::RoutePlan once;
    ScratchPool pool;
    const std::span<std::uint64_t> ids =
        compile_oracle_phase(oracle, edges, p, once, pool);
    ASSERT_EQ(ids.size(), once.stored_hops());
    std::vector<std::uint64_t> once_links(ids.begin(), ids.end());

    simcore::RoutePlan per_packet;
    std::vector<std::uint64_t> per_packet_links;
    for (const OracleEdge& e : edges) {
      std::vector<int> order(oracle.width(e));
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return oracle.path_hops(e, a) < oracle.path_hops(e, b);
      });
      for (int j = 0; j < p; ++j) {
        add_oracle_route(oracle, e, order[j % order.size()], 0, per_packet,
                         per_packet_links);
      }
    }

    ASSERT_EQ(once.num_routes(), per_packet.num_routes());
    EXPECT_EQ(once.route_len, per_packet.route_len);
    EXPECT_EQ(once.release, per_packet.release);
    // Each distinct path is stored once: fewer hops exactly when some
    // edge has more packets than paths.
    EXPECT_EQ(once_links.size() == per_packet_links.size(), p <= min_width);
    // The peak static load over every packet's hops.
    std::vector<std::uint64_t> sorted = per_packet_links;
    std::sort(sorted.begin(), sorted.end());
    std::uint64_t want_peak = 0;
    for (std::size_t i = 0, run = 0; i < sorted.size(); ++i) {
      run = (i > 0 && sorted[i] == sorted[i - 1]) ? run + 1 : 1;
      want_peak = std::max<std::uint64_t>(want_peak, run);
    }

    compact_links(once, once_links, dims);
    compact_links(per_packet, per_packet_links, dims);
    EXPECT_TRUE(once.route_nodes.empty());
    // A repeat rides hops its slot's first packet used first, so both
    // plans number the links in the same first-use order.
    EXPECT_EQ(once.global_link, per_packet.global_link);
    EXPECT_EQ(once.dim_of, per_packet.dim_of);
    EXPECT_EQ(once.host_order, per_packet.host_order);
    // Same compact ids, so each route's hop sequence of host ids is equal
    // when its compact ids are.
    for (std::uint32_t r = 0; r < once.num_routes(); ++r) {
      for (std::uint32_t h = 0; h < once.route_len[r]; ++h) {
        ASSERT_EQ(once.link_of_hop[once.route_offsets[r] + h],
                  per_packet.link_of_hop[per_packet.route_offsets[r] + h])
            << "route " << r << " hop " << h;
      }
    }

    const SimResult want = run_plan<false, false>(
        per_packet, dims, Arbitration::kFifo, 1 << 22, nullptr, nullptr,
        false, nullptr);
    const SimResult got = run_plan<false, false>(
        once, dims, Arbitration::kFifo, 1 << 22, nullptr, nullptr, false,
        nullptr);
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.total_transmissions, want.total_transmissions);
    EXPECT_EQ(got.max_queue, want.max_queue);
    EXPECT_EQ(got.link_visits, want.link_visits);
    EXPECT_EQ(got.dim_transmissions, want.dim_transmissions);
    EXPECT_EQ(got.latency, want.latency);

    OraclePhaseSpec spec;
    spec.packets_per_edge = p;
    const OraclePhaseResult phase = run_oracle_phase(oracle, edges, spec);
    EXPECT_EQ(phase.peak_congestion, want_peak);
    EXPECT_EQ(phase.makespan, want.makespan);
    EXPECT_EQ(phase.total_transmissions, want.total_transmissions);
    EXPECT_EQ(phase.max_queue, want.max_queue);
    EXPECT_EQ(phase.dim_transmissions, want.dim_transmissions);
    EXPECT_EQ(phase.unique_links, per_packet.global_link.size());
    // Every packet's hops plus one: the nodes a per-packet store would hold.
    EXPECT_EQ(phase.route_nodes,
              per_packet.num_routes() + per_packet.link_of_hop.size());
  }
}

TEST(OracleSample, PhaseCompileOnceMatchesPerPacketRoutes) {
  expect_compile_once_matches_per_packet(*algebraic_theorem1_oracle(8));
  // Axes of 4 and 8 bits: bundles of width 3 and 5 in one phase.
  expect_compile_once_matches_per_packet(
      *algebraic_grid_oracle(GridSpec{{16, 256}, true}));
  expect_compile_once_matches_per_packet(*algebraic_largecopy_oracle(6));
  const MultiPathEmbedding emb = theorem1_cycle_embedding(8);
  expect_compile_once_matches_per_packet(MaterializedOracle(emb));
}

/// One phase three ways — algebraic oracle and materialized oracle on
/// compact plans, and the dense StoreForwardSim pipeline — must agree
/// exactly: renumbering links is a bijection, so queue dynamics are
/// unchanged.  Returns the per-dimension transmissions they agreed on.
std::vector<std::uint64_t> expect_phase_pipelines_agree(
    const MultiPathEmbedding& emb, const PathOracle& alg, int p) {
  const MaterializedOracle mat(emb);
  const std::vector<OracleEdge> edges = all_guest_edges(alg);

  OraclePhaseSpec spec;
  spec.packets_per_edge = p;
  const OraclePhaseResult from_alg = run_oracle_phase(alg, edges, spec);
  const OraclePhaseResult from_mat = run_oracle_phase(mat, edges, spec);
  EXPECT_EQ(from_alg.makespan, from_mat.makespan);
  EXPECT_EQ(from_alg.total_transmissions, from_mat.total_transmissions);
  EXPECT_EQ(from_alg.peak_congestion, from_mat.peak_congestion);
  EXPECT_EQ(from_alg.max_queue, from_mat.max_queue);
  EXPECT_EQ(from_alg.unique_links, from_mat.unique_links);
  EXPECT_EQ(from_alg.dim_transmissions, from_mat.dim_transmissions);

  // Same dynamics as the classic dense-link pipeline: the compact plan's
  // dim_of table must attribute every transmission to the dimension that
  // link % dims gives the dense plan.
  const StoreForwardSim sim(emb.host().dims());
  const SimResult classic = sim.run(phase_packets(emb, p));
  EXPECT_EQ(from_alg.makespan, classic.makespan);
  EXPECT_EQ(from_alg.total_transmissions, classic.total_transmissions);
  EXPECT_EQ(from_alg.max_queue, classic.max_queue);
  EXPECT_EQ(from_alg.dim_transmissions, classic.dim_transmissions);
  EXPECT_EQ(from_alg.delivered,
            static_cast<std::uint64_t>(edges.size()) * p);
  return from_alg.dim_transmissions;
}

TEST(OracleSample, PhaseSimMatchesMaterializedPipeline) {
  expect_phase_pipelines_agree(theorem1_cycle_embedding(8),
                               *algebraic_theorem1_oracle(8), 5);
  // A non-wrap grid with non-power-of-two sides (host Q_9 = Q_4 x Q_5):
  // the two axes carry unequal traffic, so the per-dimension counts are
  // not a permutation-invariant accident.
  const GridSpec spec{{12, 20}, false};
  const std::vector<std::uint64_t> dim_tx = expect_phase_pipelines_agree(
      grid_multipath_embedding(spec), *algebraic_grid_oracle(spec), 3);
  ASSERT_EQ(dim_tx.size(), 9u);
  EXPECT_NE(*std::min_element(dim_tx.begin(), dim_tx.end()),
            *std::max_element(dim_tx.begin(), dim_tx.end()));
}

/// measure_phase_cost is the oracle phase over a MaterializedOracle.  It
/// must reproduce the Packet pipeline it replaced — phase_packets run
/// through StoreForwardSim's dense plan — field for field and event for
/// event, under both policies, at one packet per edge, one per path, and
/// one more than the paths.
void expect_phase_cost_matches_packet_run(const MultiPathEmbedding& emb) {
  const int w = emb.width();
  for (const Arbitration policy :
       {Arbitration::kFifo, Arbitration::kFarthestFirst}) {
    for (const int p : {1, w, w + 1}) {
      SCOPED_TRACE("p=" + std::to_string(p) + " policy=" +
                   std::to_string(static_cast<int>(policy)));
      RingBufferSink got_ring;
      RingBufferSink want_ring;
      const SimResult got = measure_phase_cost(emb, p, policy, &got_ring);
      const SimResult want = StoreForwardSim(emb.host().dims())
                                 .run(phase_packets(emb, p), policy, 1 << 22,
                                      &want_ring);
      EXPECT_EQ(got.makespan, want.makespan);
      EXPECT_EQ(got.total_transmissions, want.total_transmissions);
      EXPECT_EQ(got.max_queue, want.max_queue);
      EXPECT_EQ(got.link_visits, want.link_visits);
      EXPECT_EQ(got.dim_transmissions, want.dim_transmissions);
      EXPECT_EQ(got.latency, want.latency);
      EXPECT_EQ(got.utilization, want.utilization);
      ASSERT_EQ(want_ring.dropped(), 0u) << "ring too small";
      ASSERT_EQ(got_ring.total(), want_ring.total());
      const std::vector<TraceEvent> a = got_ring.events();
      const std::vector<TraceEvent> b = want_ring.events();
      const auto [ga, gb] = std::mismatch(a.begin(), a.end(), b.begin());
      EXPECT_EQ(ga, a.end()) << "first differing event: " << (ga - a.begin());
    }
  }
}

TEST(OracleSample, PhaseCostMatchesPacketRunEventForEvent) {
  {
    SCOPED_TRACE("theorem1 n=8");
    expect_phase_cost_matches_packet_run(theorem1_cycle_embedding(8));
  }
  {
    SCOPED_TRACE("theorem2 n=8");
    expect_phase_cost_matches_packet_run(theorem2_cycle_embedding(8));
  }
  {
    SCOPED_TRACE("ccc multicopy n=8");
    expect_phase_cost_matches_packet_run(
        ccc_multicopy_embedding(8).multipath());
  }
  {
    SCOPED_TRACE("12x20 grid");
    expect_phase_cost_matches_packet_run(
        grid_multipath_embedding(GridSpec{{12, 20}, false}));
  }
  {
    SCOPED_TRACE("arbitrary tree m=4");
    Rng rng(77);
    std::vector<Node> parent;
    const Digraph tree = random_binary_tree(60, rng, &parent);
    expect_phase_cost_matches_packet_run(
        arbitrary_tree_multipath(tree, parent, 4));
  }
}

/// A phase with no demanded edges moves nothing: the empty compact plan
/// runs zero steps with an empty link space, never the whole Q_24 host's.
TEST(OracleSample, EmptyPhaseIsTrivial) {
  const auto oracle = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
  const OraclePhaseResult r = run_oracle_phase(*oracle, {}, {});
  EXPECT_EQ(r.makespan, 0);
  EXPECT_EQ(r.delivered, 0u);
  EXPECT_EQ(r.unique_links, 0u);
  EXPECT_EQ(r.dim_transmissions, std::vector<std::uint64_t>(24, 0));
}

/// Q_24 end to end from the algebraic backend: every packet delivered and
/// the measured congestion at or above the analytic floor.
TEST(OracleSample, Q24PhaseRespectsCongestionFloor) {
  const auto oracle = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
  const std::vector<OracleEdge> edges =
      sample_guest_edges(*oracle, 4000, 99);
  OraclePhaseSpec spec;
  spec.packets_per_edge = 8;
  const OraclePhaseResult r = run_oracle_phase(*oracle, edges, spec);
  const OraclePhaseFloor floor = oracle_phase_floor(*oracle, edges, 8);
  EXPECT_EQ(r.delivered, edges.size() * 8u);
  EXPECT_GE(static_cast<std::int64_t>(r.peak_congestion), floor.floor);
  EXPECT_GE(r.makespan, 1);
  // Memory ∝ traffic, not host: the plan can never exceed a few nodes and
  // links per hop of demand, where the dense Q_24 link array alone would
  // hold 400M entries.
  EXPECT_LE(r.unique_links, static_cast<std::uint64_t>(edges.size()) * 8 * 4);
}

/// The oracle phase's sink on a compact, oracle-fed plan over a host that
/// can never be materialized: the traced Q_24 run equals the untraced one
/// field for field, and its flight records are consistent and explain the
/// makespan.  Packet ids are route ids; a repeated route is its own packet.
TEST(OracleSample, Q24TracedPhaseMatchesUntracedAndExplainsMakespan) {
  const auto oracle = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
  const std::vector<OracleEdge> edges = sample_guest_edges(*oracle, 300, 7);
  OraclePhaseSpec spec;
  spec.packets_per_edge = 8;  // > width 5: repeats share hop segments
  const OraclePhaseResult plain = run_oracle_phase(*oracle, edges, spec);
  obs::FlightRecorder rec;
  spec.sink = &rec;
  const OraclePhaseResult traced = run_oracle_phase(*oracle, edges, spec);

  EXPECT_EQ(traced.makespan, plain.makespan);
  EXPECT_EQ(traced.total_transmissions, plain.total_transmissions);
  EXPECT_EQ(traced.max_queue, plain.max_queue);
  EXPECT_EQ(traced.link_visits, plain.link_visits);
  EXPECT_EQ(traced.dim_transmissions, plain.dim_transmissions);
  EXPECT_EQ(traced.latency, plain.latency);
  EXPECT_EQ(traced.utilization, plain.utilization);
  EXPECT_EQ(traced.delivered, plain.delivered);
  EXPECT_EQ(traced.peak_congestion, plain.peak_congestion);
  EXPECT_EQ(traced.unique_links, plain.unique_links);
  EXPECT_EQ(traced.route_nodes, plain.route_nodes);
  EXPECT_EQ(traced.compiled_bytes, plain.compiled_bytes);

  EXPECT_EQ(rec.inconsistencies(), 0u) << rec.first_inconsistency();
  EXPECT_EQ(rec.makespan(), plain.makespan);
  EXPECT_EQ(rec.delivered(), plain.delivered);
  EXPECT_EQ(rec.transmissions(), plain.total_transmissions);
  EXPECT_EQ(rec.links().size(), plain.unique_links);
  const obs::CriticalPath chain = obs::extract_critical_path(
      rec, obs::TransmitIndex(rec), obs::makespan_terminal(rec));
  EXPECT_EQ(chain.length(), plain.makespan);
  EXPECT_EQ(obs::analyze_flights(rec).depth_mismatches, 0u);
}

/// Oracle-backed recovery must be bit-identical to the embedding overload
/// when the demanded edges cover every guest edge in id order, which is
/// the order all_guest_edges lists them in.
TEST(OracleSample, RecoveryMatchesEmbeddingBackend) {
  const MultiPathEmbedding emb = theorem1_cycle_embedding(8);
  const MaterializedOracle mat(emb);

  const std::vector<OracleEdge> edges = all_guest_edges(mat);
  ASSERT_EQ(edges.size(), mat.guest_edges());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const Edge& g = emb.guest().edge(static_cast<std::uint32_t>(e));
    ASSERT_EQ(edges[e], (OracleEdge{g.from, g.to})) << "edge " << e;
  }

  FaultSchedule schedule(emb.host().dims());
  schedule.link_down(1, 0, 1);
  schedule.link_down(2, 112, 114);
  schedule.transient_link(0, 6, 48, 50);

  RecoveryConfig config;
  config.timeout = 4;
  config.max_retries = 3;
  config.threshold = 0;

  const RecoveryResult a = run_recovery(emb, schedule, config);
  const RecoveryResult b = run_recovery(mat, edges, schedule, config);
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
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t m = 0; m < a.messages.size(); ++m) {
    EXPECT_EQ(a.messages[m].complete, b.messages[m].complete) << m;
    EXPECT_EQ(a.messages[m].complete_step, b.messages[m].complete_step) << m;
    EXPECT_EQ(a.messages[m].first_loss_step, b.messages[m].first_loss_step)
        << m;
    EXPECT_EQ(a.messages[m].fragments_delivered,
              b.messages[m].fragments_delivered)
        << m;
    EXPECT_EQ(a.messages[m].retransmissions, b.messages[m].retransmissions)
        << m;
  }
}

/// Oracle recovery on a host too big to materialize: a handful of messages
/// ride Q_24 bundles through a fault on one of their own links.
TEST(OracleSample, Q24RecoverySurvivesSingleFault) {
  const auto oracle = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
  const std::vector<OracleEdge> edges = sample_guest_edges(*oracle, 16, 5);

  // Kill the first link of edge 0's first bundle path; IDA threshold w-1
  // means every message still completes (§9 single-fault claim).
  const std::vector<HostPath> bundle = oracle->bundle(edges[0]);
  FaultSchedule schedule(oracle->host_dims());
  schedule.link_down(0, bundle[0][0], bundle[0][1]);

  RecoveryConfig config;
  config.timeout = 4;
  config.threshold = static_cast<int>(bundle.size()) - 1;

  const RecoveryResult r = run_recovery(*oracle, edges, schedule, config);
  EXPECT_EQ(r.messages_total, edges.size());
  EXPECT_EQ(r.messages_complete, edges.size());
}

}  // namespace
}  // namespace hyperpath
