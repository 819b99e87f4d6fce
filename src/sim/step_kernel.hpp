// The templated branch-light step-sweep kernel of the store-and-forward
// step loop (run_plan, store_forward.cpp), which runs it once per step over
// its one worklist of active links.
//
// One sweep serves one worklist of active links: pop one packet per live
// link, account the transmission, compact the worklist in place.  The two
// template booleans select the specialization matrix:
//
//              Traced=false            Traced=true
//   Faulted=false   tight hot loop         + high-water / transmit / stall
//                    (no stale check,        events emitted through `emit`
//                     no event code)
//   Faulted=true    + stale-entry skip     full behaviour
//
// * Traced compiles the event emission in or out.  With it out, the loop
//   body is: prefetch, depth read, running max, pop, dim counter, moved
//   append, compaction — no allocation, no virtual call, no event
//   construction.
// * Faulted compiles the stale-worklist check in or out.  Stale entries
//   exist only when the fault-truncation pass ran clear_link on a link that
//   was on a worklist; a fault-free run can never produce one, so skipping
//   the check is bit-identical there.  link_visits stays "entries visited,
//   stale included" in both shapes — without faults every entry is live, so
//   the hoisted `worklist.size()` is the same count a per-entry increment
//   would produce.
//
// Arbitration and the link-id space are functors, so each policy and each
// space instantiates its own loop: FifoArbiter is a straight pop_front;
// FarthestFirstArbiter reads its key from the RoutePlan's parallel arrays
// (route_len[id] - hop[id]) instead of chasing Packet::route.  A link space
// maps a plan link id to its dimension and to its host id: DenseLinks is
// the identity on host ids (dimension link mod n); CompactLinks reads a
// compact plan's dim_of and global_link tables, whose ids follow the first
// use of each link in hop order, and finds a host id's plan id through the
// plan's host_order permutation.  Events carry host ids, so a trace never
// depends on the space.  The caller picks both once per run, so the loop
// body carries no per-hop branch on either.
//
// Prefetch: each iteration asks for the queue record of the link
// kPrefetchDistance entries further down the worklist (a link on the
// worklist is always a valid index, stale or not).  run_plan_in's arrival
// pass does the same for the next link of the packet kPrefetchDistance
// entries ahead in `moved`, guarded by hop != route_len: a delivered packet
// has no next link, and for the plan's last route the unguarded index
// would read one past link_of_hop.  Its step-0 release loop prefetches the
// first link of route id + kPrefetchDistance when that route has hops.  A
// prefetch is only a cache hint, so results never depend on it.
//
// Determinism: the sweep visits the worklist in order and emits events in
// deterministic order; everything order-sensitive downstream (trace
// streams, arrivals) is canonically sorted by the callers, so results
// match the map-based test reference exactly.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/trace.hpp"
#include "sim/simcore.hpp"

namespace hyperpath::simcore {

/// How many iterations ahead the step loop's three random-access passes
/// (this sweep, run_plan_in's arrivals and its step-0 release) fetch the
/// queue record they will touch.  The passes are bound by memory latency,
/// not compute: at ~16 iterations a record requested now arrives about when
/// its iteration starts.  A fixed constant, not a setting.
inline constexpr std::size_t kPrefetchDistance = 16;

/// Outputs of one sweep over one worklist.
struct SweepStats {
  std::uint64_t busy = 0;         // transmissions performed
  std::uint64_t link_visits = 0;  // worklist entries visited (stale incl.)
  std::uint32_t max_queue = 0;    // deepest queue seen this sweep
};

/// FIFO arbitration: queue order (arrival time, ties by packet id).
struct FifoArbiter {
  std::uint32_t operator()(LinkFifoArena& arena, std::uint64_t link) const {
    return arena.pop_front(link);
  }
};

/// Farthest-remaining-distance-first over the SoA plan: the key is the
/// two-array read route_len[id] - hop[id]; ties go to queue order.
struct FarthestFirstArbiter {
  const std::uint32_t* route_len;
  const std::uint32_t* hop;

  std::uint32_t operator()(LinkFifoArena& arena, std::uint64_t link) const {
    return arena.pop_max(link, [this](std::uint32_t id) {
      return route_len[id] - hop[id];
    });
  }
};

/// Dense link space: plan link ids are the host ids tail·n + dim.
struct DenseLinks {
  std::uint64_t dims;
  std::uint64_t size() const { return dims << dims; }
  std::uint64_t dim(std::uint64_t link) const { return link % dims; }
  std::uint64_t host(std::uint64_t link) const { return link; }
  /// Plan id of host link `g`, which every dense plan spans.
  std::uint32_t find(std::uint64_t g) const {
    return static_cast<std::uint32_t>(g);
  }
};

/// Compact link space (RoutePlan::compact_links): plan ids are numbered in
/// order of first use, plan id l is host link global_link[l], and
/// host_order lists the plan ids by ascending host id.
struct CompactLinks {
  const std::uint8_t* dim_of;
  std::span<const std::uint64_t> global_link;
  std::span<const std::uint32_t> host_order;
  std::uint64_t size() const { return global_link.size(); }
  std::uint64_t dim(std::uint64_t link) const { return dim_of[link]; }
  std::uint64_t host(std::uint64_t link) const { return global_link[link]; }
  /// Plan id of host link `g` by binary search over host_order; kNil when
  /// no route uses it.
  std::uint32_t find(std::uint64_t g) const {
    const auto it = std::ranges::lower_bound(
        host_order, g, {},
        [this](std::uint32_t id) { return global_link[id]; });
    return it != host_order.end() && global_link[*it] == g ? *it : kNil;
  }
};

/// Sweeps `worklist` once: per live link records queue statistics, emits
/// trace events through `emit` (Traced only, host link ids), pops one
/// packet via `arbitrate`, appends it to `moved` and compacts the worklist
/// in place so only still-nonempty links survive.  `highwater` (per plan
/// link, Traced only) and `dim_tx` (per-dimension transmission counters,
/// indexed through `links`) are caller-owned.
template <bool Traced, bool Faulted, typename Links, typename Arbiter,
          typename EmitFn>
inline SweepStats step_sweep(LinkFifoArena& arena,
                             std::vector<std::uint32_t>& worklist,
                             std::vector<std::uint32_t>& moved,
                             std::uint64_t* dim_tx, Links links,
                             [[maybe_unused]] int step,
                             [[maybe_unused]] std::uint32_t* highwater,
                             Arbiter&& arbitrate,
                             [[maybe_unused]] EmitFn&& emit) {
  using obs::TraceEvent;
  using obs::TraceEventKind;
  SweepStats out;
  std::size_t keep = 0;
  const std::size_t count = worklist.size();
  out.link_visits = static_cast<std::uint64_t>(count);
  for (std::size_t r = 0; r < count; ++r) {
    if (r + kPrefetchDistance < count) {
      arena.prefetch(worklist[r + kPrefetchDistance]);
    }
    const std::uint32_t link = worklist[r];
    if constexpr (Faulted) {
      if (arena.empty(link)) continue;  // stale: emptied by the drop pass
    }
    const std::uint32_t depth = arena.depth(link);
    if (depth > out.max_queue) out.max_queue = depth;
    if constexpr (Traced) {
      std::uint32_t& high = highwater[link];
      if (depth > high) {
        high = depth;
        emit(TraceEvent{step, TraceEventKind::kQueueDepth,
                        TraceEvent::kNoPacket, links.host(link), depth});
      }
    }
    const std::uint32_t pick = arbitrate(arena, link);
    ++out.busy;
    ++dim_tx[links.dim(link)];
    if constexpr (Traced) {
      const std::uint64_t host = links.host(link);
      emit(TraceEvent{step, TraceEventKind::kTransmit, pick, host, depth});
      if (depth > 1) {
        emit(TraceEvent{step, TraceEventKind::kStall, TraceEvent::kNoPacket,
                        host, std::uint64_t{depth} - 1});
      }
    }
    moved.push_back(pick);
    if (!arena.empty(link)) {
      worklist[keep++] = link;
    }
  }
  worklist.resize(keep);
  return out;
}

/// Sorts the packet ids of `moved` ascending — the canonical arrival order.
/// A packet rides at most one queue, so one sweep moves it at most once:
/// the ids are distinct, which turns a one-bit-per-packet mask into an
/// exact counting sort.  Set each id's bit (random writes, but the mask is
/// only num_packets/8 bytes — L2-resident where the id vector is not), then
/// one ascending word scan re-emits the ids in order and clears the mask
/// behind itself.  `mask` must be all-zero on entry, sized to
/// (num_packets + 63) / 64 words, and is all-zero again on return.
///
/// Dense sweeps (phase traffic moves most packets every step) sort in
/// O(ids + words); sparse sweeps — a recovery wave trickling a handful of
/// retransmitted fragments through a big cube — fall back to comparison
/// sort, because the scan costs the id *range*, not the population.
/// Either path yields the same ascending sequence, so the choice can never
/// perturb results.
inline void sort_moved(std::vector<std::uint32_t>& moved,
                       std::vector<std::uint64_t>& mask) {
  if (moved.size() < mask.size()) {
    std::sort(moved.begin(), moved.end());
    return;
  }
  for (const std::uint32_t id : moved) {
    mask[id >> 6] |= std::uint64_t{1} << (id & 63);
  }
  std::size_t out = 0;
  const std::size_t words = mask.size();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = mask[w];
    if (bits == 0) continue;
    mask[w] = 0;
    const std::uint32_t base = static_cast<std::uint32_t>(w << 6);
    do {
      moved[out++] =
          base + static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
    } while (bits != 0);
  }
}

/// Batched hop advance of the arrival pass: every moved packet steps one
/// hop before any delivery test or re-enqueue runs.  Kept a separate
/// unit-stride loop so the compiler can vectorize the gather/increment/
/// scatter independent of the re-enqueue's control flow.
inline void advance_hops(const std::vector<std::uint32_t>& moved,
                         std::uint32_t* hop) {
  for (const std::uint32_t id : moved) ++hop[id];
}

}  // namespace hyperpath::simcore
