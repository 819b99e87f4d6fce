// Unit tests for the flat-arena core (simcore.hpp) plus the active-set
// regression guarantees: per-step sweep cost must track *currently* live
// links, never the set of links that ever carried traffic (the map-based
// layout this replaced re-scanned every historical queue each step).
#include "sim/simcore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "sim/step_kernel.hpp"
#include "sim/store_forward.hpp"
#include "sim/workloads.hpp"
#include "support/compact_links.hpp"
#include "support/faulted_run.hpp"
#include "support/reference_sim.hpp"

namespace hyperpath {
namespace {

using simcore::kNil;
using simcore::LinkBitmap;
using simcore::LinkFifoArena;

/// An arena on a pool of its own, as run_plan sets one up.
struct PooledArena {
  ScratchPool pool;
  LinkFifoArena arena;

  PooledArena(std::uint64_t links, std::size_t packets) {
    pool.begin(LinkFifoArena::pool_bytes(links, packets));
    arena.reset(pool, links, packets);
  }
};

TEST(LinkFifoArena, FifoOrderAndWorklistRegistration) {
  PooledArena pooled(8, 16);
  LinkFifoArena& arena = pooled.arena;
  std::vector<std::uint32_t> work;
  EXPECT_TRUE(arena.empty(3));

  arena.push_back(3, 10, work);
  arena.push_back(3, 11, work);
  arena.push_back(5, 12, work);
  arena.push_back(3, 13, work);
  // Only empty->nonempty transitions register the link.
  EXPECT_EQ(work, (std::vector<std::uint32_t>{3, 5}));
  EXPECT_EQ(arena.depth(3), 3u);
  EXPECT_EQ(arena.depth(5), 1u);

  std::vector<std::uint32_t> order;
  arena.for_each(3, [&](std::uint32_t id) { order.push_back(id); });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{10, 11, 13}));

  EXPECT_EQ(arena.pop_front(3), 10u);
  EXPECT_EQ(arena.pop_front(3), 11u);
  EXPECT_EQ(arena.pop_front(3), 13u);
  EXPECT_TRUE(arena.empty(3));
  // Refilling an emptied link registers it again.
  arena.push_back(3, 14, work);
  EXPECT_EQ(work.back(), 3u);
}

TEST(LinkFifoArena, PopMaxPrefersEarliestOnTies) {
  PooledArena pooled(4, 8);
  LinkFifoArena& arena = pooled.arena;
  std::vector<std::uint32_t> work;
  // keys: id 0 -> 2, id 1 -> 5, id 2 -> 5, id 3 -> 1
  const std::vector<int> key = {2, 5, 5, 1};
  for (std::uint32_t id = 0; id < 4; ++id) arena.push_back(1, id, work);
  const auto by_key = [&](std::uint32_t id) { return key[id]; };
  EXPECT_EQ(arena.pop_max(1, by_key), 1u);  // first of the two maxima
  EXPECT_EQ(arena.pop_max(1, by_key), 2u);
  EXPECT_EQ(arena.pop_max(1, by_key), 0u);
  EXPECT_EQ(arena.pop_max(1, by_key), 3u);
  EXPECT_TRUE(arena.empty(1));
  // Head/tail links survive arbitrary middle/end removals.
  arena.push_back(1, 5, work);
  arena.push_back(1, 6, work);
  EXPECT_EQ(arena.pop_max(1, [](std::uint32_t) { return 0; }), 5u);
  EXPECT_EQ(arena.pop_front(1), 6u);
  EXPECT_TRUE(arena.empty(1));
}

TEST(LinkFifoArena, ClearLinkEmptiesInConstantTime) {
  PooledArena pooled(4, 8);
  LinkFifoArena& arena = pooled.arena;
  std::vector<std::uint32_t> work;
  for (std::uint32_t id = 0; id < 5; ++id) arena.push_back(2, id, work);
  arena.clear_link(2);
  EXPECT_TRUE(arena.empty(2));
  EXPECT_EQ(arena.depth(2), 0u);
  // The stale worklist entry is the caller's to compact; refilling must
  // re-link a clean queue.
  arena.push_back(2, 7, work);
  EXPECT_EQ(arena.depth(2), 1u);
  EXPECT_EQ(arena.pop_front(2), 7u);
}

TEST(LinkBitmap, SetTestClear) {
  LinkBitmap bits(130);
  EXPECT_FALSE(bits.test(0));
  EXPECT_FALSE(bits.test(129));
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(1));
  EXPECT_FALSE(bits.test(65));
  bits.clear(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_TRUE(bits.test(63));
}

/// A valid hypercube walk of `hops` edges that just zig-zags across
/// dimensions 0 and 1 — long routes without long geodesics.
HostPath zigzag_walk(Node start, int hops) {
  HostPath p{start};
  for (int h = 0; h < hops; ++h) {
    p.push_back(p.back() ^ (h % 2 == 0 ? 1u : 2u));
  }
  return p;
}

TEST(ActiveSetRegression, StepCostIgnoresHistoricallyActiveLinks) {
  // Phase A: a one-step burst that touches `burst` distinct links.  Phase
  // B: a single packet walking a long route through an otherwise idle
  // network.  The worklist accounting must come out at burst + ~1 visit per
  // tail step; the replaced map layout re-scanned all `burst` historical
  // queues every tail step (burst * walk_hops total).
  const int dims = 11;
  const Hypercube q(dims);
  const int burst = 2000;
  const int walk_hops = 400;

  std::vector<Packet> packets;
  for (int i = 0; i < burst; ++i) {
    // Distinct source nodes, one-hop routes: `burst` distinct links, all
    // busy exactly at step 0.
    const Node s = static_cast<Node>(i);
    packets.push_back({{s, q.neighbor(s, 0)}, 0, 0});
  }
  Packet walker;
  walker.route = zigzag_walk(0, walk_hops);
  walker.release = 2;  // enters after the burst has fully drained
  packets.push_back(walker);

  const auto r = StoreForwardSim(dims).run(packets);
  EXPECT_EQ(r.makespan, 2 + walk_hops);
  // Without faults there are no stale entries, so link_visits is exactly
  // sigma_steps(live links): burst links at step 0, the walker's current
  // link afterwards (plus one overlap-free slack bound).
  EXPECT_EQ(r.link_visits,
            static_cast<std::uint64_t>(burst) +
                static_cast<std::uint64_t>(walk_hops));
  // The historical-scaling failure mode would be ~burst * walk_hops.
  EXPECT_LT(r.link_visits,
            static_cast<std::uint64_t>(burst) * walk_hops / 100);
}

TEST(ActiveSetRegression, DroppedQueuesLeaveNoLingeringCost) {
  // Packets pile onto one link, a fault kills it, and a lone walker then
  // runs long past the drop.  The dead link's queue is emptied once; the
  // tail steps must cost one visit each, not re-visit the corpse.
  const int dims = 10;
  const Hypercube q(dims);
  const int pile = 500;
  const int walk_hops = 300;

  std::vector<Packet> packets;
  for (int i = 0; i < pile; ++i) {
    // All share the first hop 0 -> 1 (dimension 0), queueing on one link.
    packets.push_back({{0, q.neighbor(0, 0), q.neighbor(q.neighbor(0, 0), 1)},
                       0, 0});
  }
  Packet walker;
  walker.route = zigzag_walk(static_cast<Node>(q.num_nodes() - 4), walk_hops);
  walker.release = 3;
  packets.push_back(walker);

  FaultSchedule sched(dims);
  sched.link_down(2, 0, q.neighbor(0, 0));

  const auto r = run_with_faults(dims, packets, sched);
  EXPECT_EQ(r.lost, static_cast<std::size_t>(pile) - 2);  // 2 escaped first
  // Visits: the pile link for steps 0..2 (the step-2 entry is the stale
  // one the drop pass emptied), the two escaped packets' second hops, and
  // the walker's tail — far below pile * walk_hops.
  EXPECT_LT(r.sim.link_visits, static_cast<std::uint64_t>(pile));
  EXPECT_EQ(r.sim.makespan, 3 + walk_hops);
}

TEST(RoutePlan, CompileLaysOutHopsNodesAndReleases) {
  const Hypercube q(4);
  std::vector<Packet> packets;
  packets.push_back({ecube_route(q, 0, 11), 0, 0});   // multi-hop
  packets.push_back({ecube_route(q, 5, 5), 3, 0});    // trivial (0 hops)
  packets.push_back({zigzag_walk(2, 6), 1, 0});       // non-geodesic walk
  const auto plan = simcore::RoutePlan::compile(q, packets);

  ASSERT_EQ(plan.num_routes(), packets.size());
  ASSERT_EQ(plan.route_offsets.size(), packets.size());
  std::size_t total_hops = 0;
  for (std::uint32_t r = 0; r < plan.num_routes(); ++r) {
    const HostPath& route = packets[r].route;
    ASSERT_EQ(plan.route_len[r], route.size() - 1) << "route " << r;
    EXPECT_EQ(plan.release[r], static_cast<std::uint32_t>(packets[r].release));
    // Without repeats the segments are back to back.
    EXPECT_EQ(plan.route_offsets[r], total_hops) << "route " << r;
    // Each hop's dense link id is exactly Hypercube::edge_id — the kernel
    // never recomputes it, so compile must get every one right.
    for (std::uint32_t h = 0; h < plan.route_len[r]; ++h) {
      EXPECT_EQ(plan.link_of_hop[plan.route_offsets[r] + h],
                q.edge_id(route[h], route[h + 1]))
          << "route " << r << " hop " << h;
    }
    total_hops += plan.route_len[r];
  }
  EXPECT_EQ(plan.link_of_hop.size(), total_hops);
  // A plan stores hops, never nodes: route_nodes stays the (empty)
  // staging buffer of streamed routes.
  EXPECT_TRUE(plan.route_nodes.empty());
  EXPECT_FALSE(plan.compact());
  EXPECT_TRUE(plan.global_link.empty());
  EXPECT_TRUE(plan.host_order.empty());
}

TEST(RoutePlan, EmptyPacketSetCompilesToEmptyPlan) {
  const auto plan = simcore::RoutePlan::compile(Hypercube(3), {});
  EXPECT_EQ(plan.num_routes(), 0u);
  EXPECT_TRUE(plan.route_offsets.empty());
  EXPECT_TRUE(plan.route_nodes.empty());
  EXPECT_TRUE(plan.link_of_hop.empty());
}

TEST(RoutePlan, ReportsInvalidRouteBeforeNegativeRelease) {
  const Hypercube q(3);
  // Nodes 0 and 3 differ in two bits: not a hypercube edge.  The broken
  // route must win over the negative release — the legacy setup paths
  // checked in that order and callers pin the message.
  Packet bad;
  bad.route = {Node{0}, Node{3}};
  bad.release = -1;
  try {
    simcore::RoutePlan::compile(q, {bad});
    FAIL() << "invalid route accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("packet route invalid"),
              std::string::npos)
        << e.what();
  }
  Packet late;
  late.route = ecube_route(q, 0, 1);
  late.release = -1;
  try {
    simcore::RoutePlan::compile(q, {late});
    FAIL() << "negative release accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("negative release time"),
              std::string::npos)
        << e.what();
  }
}

TEST(RoutePlan, RebuildReusesCapacityAndMatchesFreshCompile) {
  const Hypercube q(5);
  Rng rng(41);
  std::vector<Packet> big;
  for (int i = 0; i < 200; ++i) {
    const Node s = static_cast<Node>(rng.below(q.num_nodes()));
    const Node d = static_cast<Node>(rng.below(q.num_nodes()));
    big.push_back({ecube_route(q, s, d), static_cast<int>(rng.below(4)), 0});
  }
  std::vector<Packet> small(big.begin(), big.begin() + 7);

  simcore::RoutePlan plan;
  plan.rebuild(q, big);
  const std::size_t nodes_cap = plan.route_nodes.capacity();
  const std::size_t hops_cap = plan.link_of_hop.capacity();
  const std::size_t offsets_cap = plan.route_offsets.capacity();

  // Rebuilding with a smaller set must not shed capacity (the StepScratch
  // reuse contract: recovery waves and Monte-Carlo trials rebuild
  // thousands of times on one thread without reallocating).
  plan.rebuild(q, small);
  EXPECT_EQ(plan.route_nodes.capacity(), nodes_cap);
  EXPECT_EQ(plan.link_of_hop.capacity(), hops_cap);
  EXPECT_EQ(plan.route_offsets.capacity(), offsets_cap);

  const auto fresh = simcore::RoutePlan::compile(q, small);
  EXPECT_EQ(plan.route_nodes, fresh.route_nodes);
  EXPECT_EQ(plan.route_offsets, fresh.route_offsets);
  EXPECT_EQ(plan.link_of_hop, fresh.link_of_hop);
  EXPECT_EQ(plan.route_len, fresh.route_len);
  EXPECT_EQ(plan.release, fresh.release);
}

TEST(RoutePlan, CompactPlanRunsLikeDense) {
  const int dims = 4;
  const Hypercube q(dims);
  std::vector<Packet> packets;
  for (Node s = 0; s < 8; ++s) packets.push_back({ecube_route(q, s, 15), 0, 0});
  packets.push_back({ecube_route(q, 3, 3), 0, 0});  // zero hops

  // Stream the same routes unlinked, then renumber them compactly.  The
  // streamed host ids are Hypercube::edge_id's.
  simcore::RoutePlan plan;
  std::vector<std::uint64_t> glinks;
  std::vector<std::uint64_t> edge_ids;
  for (const Packet& p : packets) {
    plan.begin_route(0);
    plan.push_nodes(p.route);
    plan.end_route_unlinked(dims, glinks);
    for (std::size_t h = 1; h < p.route.size(); ++h) {
      edge_ids.push_back(q.edge_id(p.route[h - 1], p.route[h]));
    }
  }
  EXPECT_EQ(glinks, edge_ids);
  EXPECT_TRUE(plan.route_nodes.empty());  // staging only, between routes
  const std::set<std::uint64_t> distinct(glinks.begin(), glinks.end());
  EXPECT_LT(distinct.size(), glinks.size());  // routes share links
  compact_links(plan, glinks, dims);
  ASSERT_TRUE(plan.compact());
  EXPECT_EQ(plan.global_link.size(), distinct.size());
  ASSERT_EQ(plan.link_of_hop.size(), glinks.size());
  // Ids follow first use: hop h opens a new id exactly when its link was
  // not used by an earlier hop, and then it is the next id.
  std::uint32_t next_id = 0;
  std::set<std::uint64_t> seen;
  for (std::size_t h = 0; h < glinks.size(); ++h) {
    EXPECT_EQ(plan.global_link[plan.link_of_hop[h]], glinks[h]);
    EXPECT_EQ(plan.dim_of[plan.link_of_hop[h]], glinks[h] % dims);
    if (seen.insert(glinks[h]).second) {
      EXPECT_EQ(plan.link_of_hop[h], next_id++) << "hop " << h;
    } else {
      EXPECT_LT(plan.link_of_hop[h], next_id) << "hop " << h;
    }
  }
  EXPECT_FALSE(std::is_sorted(plan.global_link.begin(),
                              plan.global_link.end()));
  // host_order is the permutation that sorts global_link.
  ASSERT_EQ(plan.host_order.size(), distinct.size());
  std::vector<std::uint64_t> by_host;
  for (const std::uint32_t id : plan.host_order) {
    by_host.push_back(plan.global_link[id]);
  }
  EXPECT_EQ(by_host,
            std::vector<std::uint64_t>(distinct.begin(), distinct.end()));

  const SimResult dense = StoreForwardSim(dims).run(packets);
  const SimResult compact = run_plan<false, false>(
      plan, dims, Arbitration::kFifo, 1 << 22, nullptr, nullptr, false,
      nullptr);
  EXPECT_EQ(compact.makespan, dense.makespan);
  EXPECT_EQ(compact.utilization, dense.utilization);
  EXPECT_EQ(compact.total_transmissions, dense.total_transmissions);
  EXPECT_EQ(compact.max_queue, dense.max_queue);
  EXPECT_EQ(compact.link_visits, dense.link_visits);
  EXPECT_EQ(compact.dim_transmissions, dense.dim_transmissions);
  EXPECT_EQ(compact.latency, dense.latency);

  // Faults name host links on a compact plan too: the dead 7-15 link
  // drops the packets queued on it, at the same host link and step.
  FaultSchedule schedule(dims);
  schedule.link_down(0, 7, 15);
  const FaultRunResult want = run_with_faults(dims, packets, schedule);
  FaultRunResult got;
  got.sim = run_plan<false, true>(plan, dims, Arbitration::kFifo, 1 << 22,
                                  nullptr, &schedule, false, &got);
  EXPECT_GT(want.lost, 0u);
  EXPECT_EQ(got.fates, want.fates);
  EXPECT_EQ(got.lost, want.lost);
  EXPECT_EQ(got.sim.makespan, want.sim.makespan);
}

TEST(RoutePlan, HopFreeCompactPlanRunsInZeroStepsAtQ24) {
  // Compactness is a mark, not a property of the tables: a plan without
  // hops has an empty compact link space, never the dense Q_24 one.
  simcore::RoutePlan plan;
  plan.begin_route(0);
  plan.push_nodes(std::vector<Node>{5});
  std::vector<std::uint64_t> glinks;
  plan.end_route_unlinked(24, glinks);
  compact_links(plan, glinks, 24);
  ASSERT_TRUE(plan.compact());
  EXPECT_TRUE(plan.global_link.empty());
  const SimResult r = run_plan<false, false>(
      plan, 24, Arbitration::kFifo, 1 << 22, nullptr, nullptr, false,
      nullptr);
  EXPECT_EQ(r.makespan, 0);
  EXPECT_EQ(r.total_transmissions, 0u);
  EXPECT_EQ(r.dim_transmissions, std::vector<std::uint64_t>(24, 0));
  plan.clear();
  EXPECT_FALSE(plan.compact());
}

TEST(RunPlan, FaultedRunWithoutScheduleIsAnError) {
  const Hypercube q(4);
  const auto plan =
      simcore::RoutePlan::compile(q, {{ecube_route(q, 0, 15), 0, 0}});
  FaultRunResult out;
  EXPECT_THROW((run_plan<false, true>(plan, 4, Arbitration::kFifo, 1 << 22,
                                      nullptr, nullptr, false, &out)),
               Error);
}

TEST(RunPlan, FaultedRunRejectsScheduleOfAnotherDimension) {
  const Hypercube q(4);
  const auto plan =
      simcore::RoutePlan::compile(q, {{ecube_route(q, 0, 15), 0, 0}});
  FaultSchedule schedule(5);
  schedule.link_down(0, 0, 1);
  FaultRunResult out;
  EXPECT_THROW((run_plan<false, true>(plan, 4, Arbitration::kFifo, 1 << 22,
                                      nullptr, &schedule, false, &out)),
               Error);
}

/// What compact_links must produce, computed the plain way: a map from
/// host id to compact id, filled in hop order, so ids follow first use;
/// host_order is the map's values in key order.
struct CompactReference {
  std::vector<std::uint64_t> global_link;
  std::vector<std::uint32_t> link_of_hop;
  std::vector<std::uint8_t> dim_of;
  std::vector<std::uint32_t> host_order;
};

CompactReference compact_reference(const std::vector<std::uint64_t>& glinks,
                                   int dims) {
  CompactReference ref;
  std::map<std::uint64_t, std::uint32_t> id_of;
  for (const std::uint64_t g : glinks) {
    const auto [it, fresh] = id_of.try_emplace(
        g, static_cast<std::uint32_t>(ref.global_link.size()));
    if (fresh) {
      ref.global_link.push_back(g);
      ref.dim_of.push_back(static_cast<std::uint8_t>(g % dims));
    }
    ref.link_of_hop.push_back(it->second);
  }
  for (const auto& [g, id] : id_of) ref.host_order.push_back(id);
  return ref;
}

/// Appends to `plan` `routes` unlinked routes with `hops` stored hops in
/// all (compact_links reads only the stored-hop count; the last route takes
/// the remainder, and empty routes are allowed).  Each route is a 0-1-0
/// walk, valid in any Q_dims; its own host ids are discarded.
void stream_walks(simcore::RoutePlan& plan, std::size_t hops,
                  std::size_t routes, Rng& rng) {
  std::vector<std::uint64_t> discarded;
  std::size_t left = hops;
  for (std::size_t r = 0; r < routes; ++r) {
    const std::size_t len = r + 1 == routes ? left : rng.below(left + 1);
    left -= len;
    std::vector<Node> walk(len + 1);
    for (std::size_t i = 0; i <= len; ++i) walk[i] = static_cast<Node>(i & 1);
    plan.begin_route(0);
    plan.push_nodes(walk);
    plan.end_route_unlinked(1, discarded);
  }
}

simcore::RoutePlan unlinked_plan(std::size_t hops, std::size_t routes,
                                 Rng& rng) {
  simcore::RoutePlan plan;
  stream_walks(plan, hops, routes, rng);
  return plan;
}

TEST(RoutePlan, CompactLinksRadixMatchesSortReference) {
  Rng rng(2024);
  simcore::RoutePlan reused;
  for (const int dims : {1, 8, 24, 30}) {
    const std::uint64_t limit = static_cast<std::uint64_t>(dims) << dims;
    std::vector<std::uint64_t> few = {0, limit - 1, limit / 2, 1 % limit,
                                      limit / 3};
    std::vector<std::vector<std::uint64_t>> cases;
    std::vector<std::uint64_t> random(5000);
    for (std::uint64_t& g : random) g = rng.below(limit);
    random.push_back(limit - 1);  // both ends of the id range
    random.push_back(0);
    cases.push_back(random);
    std::vector<std::uint64_t> dups(5000);
    for (std::uint64_t& g : dups) g = few[rng.below(few.size())];
    cases.push_back(dups);
    cases.push_back(std::vector<std::uint64_t>(300, limit - 1));  // one link
    cases.push_back({limit - 1});                                 // one hop
    cases.push_back({});                                          // no hops
    for (const std::vector<std::uint64_t>& glinks : cases) {
      SCOPED_TRACE("dims " + std::to_string(dims) + ", hops " +
                   std::to_string(glinks.size()));
      simcore::RoutePlan plan = unlinked_plan(glinks.size(), 7, rng);
      const CompactReference ref = compact_reference(glinks, dims);
      compact_links(plan, glinks, dims);
      EXPECT_EQ(plan.global_link, ref.global_link);
      EXPECT_EQ(plan.link_of_hop, ref.link_of_hop);
      EXPECT_EQ(plan.dim_of, ref.dim_of);
      EXPECT_EQ(plan.host_order, ref.host_order);
      // A cleared plan that keeps the previous case's capacity (the
      // StepScratch path of the recovery waves) renumbers the same way.
      reused.clear();
      stream_walks(reused, glinks.size(), 3, rng);
      compact_links(reused, glinks, dims);
      EXPECT_EQ(reused.global_link, ref.global_link);
      EXPECT_EQ(reused.link_of_hop, ref.link_of_hop);
      EXPECT_EQ(reused.dim_of, ref.dim_of);
      EXPECT_EQ(reused.host_order, ref.host_order);
    }
  }
}

TEST(RoutePlan, CompactLinksRejectsIdsPastTheHostAndBadDims) {
  Rng rng(7);
  const int dims = 8;
  const std::uint64_t limit = std::uint64_t{dims} << dims;
  simcore::RoutePlan plan = unlinked_plan(3, 2, rng);
  EXPECT_THROW(compact_links(plan, {0, limit, 1}, dims), Error);
  simcore::RoutePlan edge = unlinked_plan(1, 1, rng);
  EXPECT_NO_THROW(compact_links(edge, {limit - 1}, dims));
  simcore::RoutePlan no_dims = unlinked_plan(1, 1, rng);
  EXPECT_THROW(compact_links(no_dims, {0}, 0), Error);
}

TEST(RoutePlan, CheckedHopOffsetAcceptsU32MaxAndRejectsPast) {
  constexpr std::uint64_t kMax = 0xffffffffull;
  EXPECT_EQ(simcore::checked_hop_offset(0), 0u);
  EXPECT_EQ(simcore::checked_hop_offset(kMax), 0xffffffffu);
  EXPECT_THROW(simcore::checked_hop_offset(kMax + 1), Error);
  try {
    simcore::checked_hop_offset(std::uint64_t{1} << 40);
    ADD_FAILURE() << "no throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("route plan hop count overflow"),
              std::string::npos);
  }
}

TEST(RoutePlan, CheckedRouteLenAcceptsU32MaxAndRejectsPast) {
  constexpr std::uint64_t kMax = 0xffffffffull;
  EXPECT_EQ(simcore::checked_route_len(0), 0u);
  EXPECT_EQ(simcore::checked_route_len(kMax), 0xffffffffu);
  try {
    simcore::checked_route_len(kMax + 1);
    ADD_FAILURE() << "no throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("route plan route length overflow"),
              std::string::npos);
  }
}

TEST(RoutePlan, CheckedReleaseNarrowsOnlyNonNegativeReleases) {
  EXPECT_EQ(simcore::checked_release(0), 0u);
  EXPECT_EQ(simcore::checked_release(std::numeric_limits<int>::max()),
            0x7fffffffu);
  for (const int bad : {-1, std::numeric_limits<int>::min()}) {
    try {
      simcore::checked_release(bad);
      ADD_FAILURE() << "no throw for " << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("negative release time"),
                std::string::npos);
    }
  }
}

TEST(RoutePlan, RebuildReportsBrokenRouteOfALaterPacketBeforeItsRelease) {
  // A valid packet first, then one with both a broken route and the most
  // negative release: rebuild names the route, never the release, and
  // never stores a wrapped release.
  const Hypercube q(3);
  Packet good;
  good.route = ecube_route(q, 0, 7);
  Packet both;
  both.route = {Node{1}, Node{6}};
  both.release = std::numeric_limits<int>::min();
  simcore::RoutePlan plan;
  try {
    plan.rebuild(q, {good, both});
    FAIL() << "broken packet accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("packet route invalid"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(plan.num_routes(), 1u);
  both.route = ecube_route(q, 1, 6);
  EXPECT_THROW(plan.rebuild(q, {good, both}), Error);
  EXPECT_EQ(plan.num_routes(), 1u);
}

/// A bundle-shaped workload on Q_5, as the oracle phase lays it out: each
/// of `groups` edges has `width` distinct paths (one of them hop-free on
/// edge 0, non-geodesic walks among them), ridden round-robin by
/// `per_edge` packets with their own release steps.
struct BundleWorkload {
  static constexpr int kDims = 5;
  static constexpr int kWidth = 3;
  std::vector<Packet> packets;  // one per packet, in plan order
};

BundleWorkload bundle_workload(int groups, int per_edge, std::uint64_t seed) {
  const Hypercube q(BundleWorkload::kDims);
  Rng rng(seed);
  BundleWorkload w;
  for (int g = 0; g < groups; ++g) {
    std::vector<HostPath> paths;
    for (int s = 0; s < BundleWorkload::kWidth; ++s) {
      const Node a = static_cast<Node>(rng.below(q.num_nodes()));
      const Node b = static_cast<Node>(rng.below(q.num_nodes()));
      if (g == 0 && s == 1) {
        paths.push_back({a});
      } else if (s == 2) {
        paths.push_back(zigzag_walk(a, 3 + static_cast<int>(rng.below(4))));
      } else {
        paths.push_back(ecube_route(q, a, b));
      }
    }
    for (int j = 0; j < per_edge; ++j) {
      w.packets.push_back({paths[j % BundleWorkload::kWidth],
                           static_cast<int>(rng.below(4)), 0});
    }
  }
  return w;
}

/// The workload's plan, per packet or with packets j ≥ width of an edge
/// repeating route first + j mod width; dense (add_route) or compact
/// (streamed, then compact_links).
simcore::RoutePlan bundle_plan(const BundleWorkload& w, int per_edge,
                               bool repeat, bool compact) {
  const Hypercube q(BundleWorkload::kDims);
  simcore::RoutePlan plan;
  std::vector<std::uint64_t> glinks;
  for (std::size_t k = 0; k < w.packets.size(); ++k) {
    const Packet& p = w.packets[k];
    const auto release = static_cast<std::uint32_t>(p.release);
    const int j = static_cast<int>(k % per_edge);
    if (repeat && j >= BundleWorkload::kWidth) {
      const auto first = static_cast<std::uint32_t>(k - j);
      plan.repeat_route(first + j % BundleWorkload::kWidth, release);
    } else if (compact) {
      plan.begin_route(release);
      plan.push_nodes(p.route);
      plan.end_route_unlinked(BundleWorkload::kDims, glinks);
    } else {
      plan.add_route(q, p.route, release);
    }
  }
  if (compact) compact_links(plan, glinks, BundleWorkload::kDims);
  return plan;
}

/// One traced run of `plan`: its result and its JSONL trace's bytes.
std::pair<SimResult, std::string> traced_run(const simcore::RoutePlan& plan,
                                             Arbitration policy,
                                             const std::string& name) {
  const std::string path = ::testing::TempDir() + name + ".jsonl";
  SimResult r;
  {
    obs::JsonlFileSink sink(path);
    r = run_plan<true, false>(plan, BundleWorkload::kDims, policy, 1 << 22,
                              &sink, nullptr, false, nullptr);
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return {r, bytes};
}

void expect_same_sim(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_transmissions, b.total_transmissions);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.link_visits, b.link_visits);
  EXPECT_EQ(a.dim_transmissions, b.dim_transmissions);
  EXPECT_EQ(a.latency, b.latency);
}

TEST(RoutePlan, RepeatRouteSharesSegmentsAndStoresNothing) {
  constexpr int kPerEdge = 7;
  const BundleWorkload w = bundle_workload(6, kPerEdge, 3);
  for (const bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "compact" : "dense");
    const auto shared = bundle_plan(w, kPerEdge, true, compact);
    const auto per_packet = bundle_plan(w, kPerEdge, false, compact);
    ASSERT_EQ(shared.num_routes(), w.packets.size());
    EXPECT_EQ(shared.route_len, per_packet.route_len);
    EXPECT_EQ(shared.release, per_packet.release);
    // A repeat rides links its source route used first, so both plans
    // number the links in the same first-use order.
    EXPECT_EQ(shared.global_link, per_packet.global_link);
    EXPECT_EQ(shared.dim_of, per_packet.dim_of);
    EXPECT_EQ(shared.host_order, per_packet.host_order);
    // Only the first `width` packets of an edge store hops, and no plan
    // stores nodes.
    std::size_t stored_hops = 0;
    for (std::size_t k = 0; k < w.packets.size(); ++k) {
      if (static_cast<int>(k % kPerEdge) >= BundleWorkload::kWidth) continue;
      stored_hops += w.packets[k].route.size() - 1;
    }
    EXPECT_TRUE(shared.route_nodes.empty());
    EXPECT_TRUE(per_packet.route_nodes.empty());
    EXPECT_EQ(shared.link_of_hop.size(), stored_hops);
    EXPECT_LT(stored_hops, per_packet.link_of_hop.size());
    for (std::uint32_t r = 0; r < shared.num_routes(); ++r) {
      const int j = static_cast<int>(r % kPerEdge);
      if (j >= BundleWorkload::kWidth) {
        EXPECT_EQ(shared.route_offsets[r],
                  shared.route_offsets[r - j + j % BundleWorkload::kWidth]);
      }
      for (std::uint32_t h = 0; h < shared.route_len[r]; ++h) {
        ASSERT_EQ(shared.link_of_hop[shared.route_offsets[r] + h],
                  per_packet.link_of_hop[per_packet.route_offsets[r] + h])
            << "route " << r << " hop " << h;
      }
    }
  }
}

TEST(RoutePlan, RepeatRouteRunsLikePerPacketPlan) {
  constexpr int kPerEdge = 7;
  const BundleWorkload w = bundle_workload(40, kPerEdge, 11);
  for (const bool compact : {false, true}) {
    const auto shared = bundle_plan(w, kPerEdge, true, compact);
    const auto per_packet = bundle_plan(w, kPerEdge, false, compact);
    for (const Arbitration policy :
         {Arbitration::kFifo, Arbitration::kFarthestFirst}) {
      SCOPED_TRACE(std::string(compact ? "compact" : "dense") +
                   (policy == Arbitration::kFifo ? " fifo" : " farthest"));
      const auto [want, want_trace] =
          traced_run(per_packet, policy, "repeat_per_packet");
      const auto [got, got_trace] = traced_run(shared, policy, "repeat_shared");
      EXPECT_GT(want.max_queue, 1u);  // packets really contend
      expect_same_sim(got, want);
      EXPECT_FALSE(want_trace.empty());
      EXPECT_EQ(got_trace, want_trace);
    }
  }
}

TEST(RoutePlan, RepeatRouteFatesMatchPerPacketPlanUnderFaults) {
  constexpr int kPerEdge = 7;
  const int dims = BundleWorkload::kDims;
  const BundleWorkload w = bundle_workload(40, kPerEdge, 19);
  // Cut links of the first edge's walk (slot 2, ≥ 3 hops) while its
  // packets queue on them, and a node of the second edge's walk for a
  // while.
  FaultSchedule schedule(dims);
  const HostPath& walk = w.packets[2].route;
  schedule.transient_link(0, 4, walk[0], walk[1]);
  schedule.link_down(1, walk[1], walk[2]);
  schedule.transient_node(2, 5, w.packets[kPerEdge + 2].route[1]);
  for (const bool compact : {false, true}) {
    const auto shared = bundle_plan(w, kPerEdge, true, compact);
    const auto per_packet = bundle_plan(w, kPerEdge, false, compact);
    for (const Arbitration policy :
         {Arbitration::kFifo, Arbitration::kFarthestFirst}) {
      SCOPED_TRACE(std::string(compact ? "compact" : "dense") +
                   (policy == Arbitration::kFifo ? " fifo" : " farthest"));
      FaultRunResult want;
      want.sim = run_plan<false, true>(per_packet, dims, policy, 1 << 22,
                                       nullptr, &schedule, false, &want);
      FaultRunResult got;
      got.sim = run_plan<false, true>(shared, dims, policy, 1 << 22, nullptr,
                                      &schedule, false, &got);
      EXPECT_GT(want.lost, 0u);
      EXPECT_EQ(got.fates, want.fates);
      EXPECT_EQ(got.lost, want.lost);
      EXPECT_EQ(got.delivered, want.delivered);
      expect_same_sim(got.sim, want.sim);
    }
  }
}

TEST(RoutePlan, RepeatRouteRejectsMissingSource) {
  simcore::RoutePlan plan;
  EXPECT_THROW(plan.repeat_route(0, 0), Error);
  const Hypercube q(3);
  plan.add_route(q, ecube_route(q, 0, 7), 0);
  plan.repeat_route(0, 2);
  EXPECT_THROW(plan.repeat_route(2, 0), Error);
  EXPECT_EQ(plan.num_routes(), 2u);
  EXPECT_EQ(plan.release, (std::vector<std::uint32_t>{0, 2}));
}

TEST(StepKernel, SortMovedMatchesStdSortOnBothPathsAndClearsMask) {
  Rng rng(0x5027);
  for (int trial = 0; trial < 40; ++trial) {
    const std::uint32_t universe = 64 + static_cast<std::uint32_t>(
                                            rng.below(5000));
    const std::size_t words = (universe + 63) / 64;
    // Even trials stay under one id per mask word (the std::sort fallback
    // for sparse recovery waves); odd trials force the dense counting path.
    const std::size_t count =
        trial % 2 == 0 ? rng.below(words)
                       : words + rng.below(universe - words);
    std::vector<std::uint32_t> pool(universe);
    std::iota(pool.begin(), pool.end(), 0u);
    for (std::size_t i = 0; i < count; ++i) {
      std::swap(pool[i], pool[i + rng.below(universe - i)]);
    }
    std::vector<std::uint32_t> moved(pool.begin(), pool.begin() + count);
    std::vector<std::uint32_t> expected = moved;
    std::sort(expected.begin(), expected.end());

    std::vector<std::uint64_t> mask(words, 0);
    simcore::sort_moved(moved, mask);
    EXPECT_EQ(moved, expected) << "trial " << trial;
    // The mask must come back all-zero — sort_moved's own precondition for
    // the next sweep.
    for (const std::uint64_t w : mask) ASSERT_EQ(w, 0u) << "trial " << trial;
  }
}

/// Streams `packets` into an unlinked plan and renumbers it compactly (the
/// oracle phase's path).
void compact_plan(const Hypercube& q, const std::vector<Packet>& packets,
                  simcore::RoutePlan& plan) {
  std::vector<std::uint64_t> glinks;
  for (const Packet& p : packets) {
    plan.begin_route(static_cast<std::uint32_t>(p.release));
    plan.push_nodes(p.route);
    plan.end_route_unlinked(q.dims(), glinks);
  }
  compact_links(plan, glinks, q.dims());
}

TEST(StepKernel, PrefetchLookaheadEdgesMatchReference) {
  // The sweep, arrival and release loops prefetch kPrefetchDistance
  // entries ahead; these workloads put 0, 1, d - 1, d and d + 1 entries on
  // the worklist and in the moved set.  In the "parallel" shape every
  // route has the same length on links of its own, so all of them arrive
  // together on the final step, the plan's last route among them: the
  // arrival prefetch must skip it, since its next hop index is one past
  // link_of_hop.  A trailing hop-free route does the same to the release
  // loop's first-link index.  link_of_hop is shrunk to fit, so an unguarded
  // read one past it is a heap overflow under AddressSanitizer.
  constexpr int kDims = 5;
  constexpr std::uint32_t d = simcore::kPrefetchDistance;
  const Hypercube q(kDims);
  const std::uint32_t mask = 0b10110;
  // Shapes: 0 parallel 3-hop routes; 1 all from node 0 (one queue n
  // deep); 2 parallel 1-hop routes; 3 shape 0 plus a trailing hop-free
  // route.
  for (const std::uint32_t n : {0u, 1u, d - 1, d, d + 1}) {
    for (int shape = 0; shape < 4; ++shape) {
      std::vector<Packet> packets;
      for (Node s = 0; s < n; ++s) {
        const Node src = shape == 1 ? 0 : s;
        const Node dst = shape == 2 ? src ^ 1 : src ^ mask;
        packets.push_back({ecube_route(q, src, dst), 0, 0});
      }
      if (shape == 3) packets.push_back({ecube_route(q, 7, 7), 0, 0});
      const std::string what =
          "n=" + std::to_string(n) + " shape=" + std::to_string(shape);

      simcore::RoutePlan dense = simcore::RoutePlan::compile(q, packets);
      simcore::RoutePlan compact;
      compact_plan(q, packets, compact);
      dense.link_of_hop.shrink_to_fit();
      compact.link_of_hop.shrink_to_fit();

      for (const auto policy :
           {Arbitration::kFifo, Arbitration::kFarthestFirst}) {
        obs::RingBufferSink ref_sink(1 << 14);
        const SimResult ref = refsim::RefStoreForwardSim(kDims).run(
            packets, policy, 1 << 22, &ref_sink);
        const auto expect_same = [&](const SimResult& got) {
          EXPECT_EQ(got.makespan, ref.makespan) << what;
          EXPECT_EQ(got.total_transmissions, ref.total_transmissions) << what;
          EXPECT_EQ(got.utilization, ref.utilization) << what;
          EXPECT_EQ(got.max_queue, ref.max_queue) << what;
          EXPECT_EQ(got.dim_transmissions, ref.dim_transmissions) << what;
          EXPECT_EQ(got.latency, ref.latency) << what;
        };
        obs::RingBufferSink sink(1 << 14);
        expect_same(run_plan<true, false>(dense, kDims, policy, 1 << 22,
                                          &sink, nullptr, false, nullptr));
        EXPECT_EQ(sink.total(), ref_sink.total()) << what;
        EXPECT_EQ(sink.events(), ref_sink.events()) << what;
        expect_same(run_plan<false, false>(dense, kDims, policy, 1 << 22,
                                           nullptr, nullptr, false, nullptr));
        expect_same(run_plan<false, false>(compact, kDims, policy, 1 << 22,
                                           nullptr, nullptr, false, nullptr));
      }
    }
  }
}

TEST(ActiveSetProperty, ClearLinkStaleEntriesCompactInExactlyOneSweep) {
  // Randomized model of the simulators' worklist discipline: each step
  // clears some nonempty links (the fault-truncation pass), sweeps with
  // in-place compaction, then enqueues fresh packets.  The invariants under
  // test: every stale entry is visited exactly once (the sweep that drops
  // it), a stale entry only ever comes from clear_link, and after
  // compaction the worklist is exactly the set of nonempty links with no
  // duplicates — the precondition push_back's registration relies on.
  Rng rng(20260808);
  constexpr std::uint64_t kLinks = 48;
  constexpr std::uint32_t kPackets = 192;
  for (int trial = 0; trial < 20; ++trial) {
    PooledArena pooled(kLinks, kPackets);
    LinkFifoArena& arena = pooled.arena;
    std::vector<std::uint32_t> worklist;
    std::vector<std::uint32_t> free_ids(kPackets);
    std::iota(free_ids.begin(), free_ids.end(), 0u);

    const auto enqueue_some = [&] {
      const int count = static_cast<int>(rng.below(40));
      for (int i = 0; i < count && !free_ids.empty(); ++i) {
        const std::size_t pick = rng.below(free_ids.size());
        const std::uint32_t id = free_ids[pick];
        free_ids[pick] = free_ids.back();
        free_ids.pop_back();
        arena.push_back(rng.below(kLinks), id, worklist);
      }
    };
    enqueue_some();

    for (int step = 0; step < 30; ++step) {
      // Fault truncation: each cleared nonempty link strands exactly one
      // worklist entry (nonempty links sit on the worklist exactly once).
      std::set<std::uint32_t> cleared;
      const int clears = static_cast<int>(rng.below(6));
      for (int i = 0; i < clears; ++i) {
        const std::uint64_t link = rng.below(kLinks);
        if (arena.empty(link)) continue;
        arena.for_each(link,
                       [&](std::uint32_t id) { free_ids.push_back(id); });
        arena.clear_link(link);
        cleared.insert(static_cast<std::uint32_t>(link));
      }

      // The sweep, as the kernels run it: serve one packet per live link,
      // compact in place, drop drained and stale entries.
      std::set<std::uint32_t> stale_seen;
      std::size_t out = 0;
      for (std::size_t i = 0; i < worklist.size(); ++i) {
        const std::uint32_t link = worklist[i];
        if (arena.empty(link)) {
          EXPECT_TRUE(cleared.count(link))
              << "stale entry for link " << link << " without a clear_link";
          EXPECT_TRUE(stale_seen.insert(link).second)
              << "stale link " << link << " visited twice in one sweep";
          continue;
        }
        free_ids.push_back(arena.pop_front(link));
        if (!arena.empty(link)) worklist[out++] = link;
      }
      worklist.resize(out);
      // Every clear produced exactly one stale visit — no more, no fewer.
      EXPECT_EQ(stale_seen, cleared) << "step " << step;

      // Post-compaction the worklist is precisely the nonempty links.
      const std::set<std::uint32_t> live(worklist.begin(), worklist.end());
      EXPECT_EQ(live.size(), worklist.size()) << "duplicate worklist entry";
      for (std::uint64_t link = 0; link < kLinks; ++link) {
        EXPECT_EQ(!arena.empty(link),
                  live.count(static_cast<std::uint32_t>(link)) == 1u)
            << "link " << link << " at step " << step;
      }

      enqueue_some();
    }
  }
}

}  // namespace
}  // namespace hyperpath
