// Flat-arena simulator core shared by the store-and-forward and wormhole
// simulators.
//
// The hypercube's directed links already have a dense id (tail * n + dim,
// see Hypercube::edge_id), so per-link simulator state needs no hashing:
// everything is a flat array indexed by link id.
//
//   * LinkFifoArena — intrusive per-link packet FIFOs.  A packet waits in at
//     most one queue at a time, so a single `next[packet]` array plus one
//     dense array of 12-byte {head, tail, depth} records, one per link, hold
//     every queue of the run with zero per-enqueue allocation.  The record
//     keeps the three words a link access touches in one cache line (2 of
//     every 16 records straddle a 64-byte boundary), and prefetch(link)
//     lets the step loops fetch it ahead of use.
//
//   * Active-set scheduling — a step visits only links that currently hold
//     packets.  Enqueueing into an empty queue appends the link to a caller
//     owned worklist; the sweep compacts the worklist in place, dropping
//     links whose queue drained.  Per-step cost is O(live links), not
//     O(links that ever carried traffic).
//
//   * LinkBitmap — one bit per directed link; the wormhole simulator's
//     held-route set.
//
//   * RoutePlan — the structure-of-arrays route compilation the step
//     kernels run on, in a dense or compact link-id space.
//
//   * StepScratch — thread-local run state that keeps its capacity across
//     runs, and its ScratchPool, which a run's short-lived arrays take in
//     turn (compile ids, then the arena).
//
// Memory: the arena is 4·(packets + 3·links) bytes — one 12-byte record per
// link (no padding, no alignas: a 16-byte record would add a third to the
// per-link state) plus one 32-bit word per packet — ~12 MiB for a dense
// Q_16 plan, taken from the pool, so a run no larger than an earlier one on
// its thread faults in no fresh pages.  A compact plan sizes it by the
// links its traffic touches.
//
// Width discipline: queue depths are uniformly std::uint32_t inside the
// core (a queue can never hold more packets than the 32-bit packet ids that
// exist); widening to std::size_t/std::uint64_t happens exactly once, at
// the SimResult boundary.  Debug builds assert the (absurd)
// depth-overflow case instead of silently wrapping.
//
// Determinism: the arena itself is strictly FIFO-ordered and the worklist
// preserves insertion order, so a sweep visits links in a deterministic
// order for a fixed workload.  Nothing order-dependent escapes anyway —
// per-step trace events are canonically sorted by obs::StepTrace and the
// simulators sort arrivals by packet id — which is what keeps the core
// bit-identical to the map-based differential reference in
// tests/support/reference_sim.hpp (tests/property/simcore_equiv_test.cpp).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "base/scratch_pool.hpp"
#include "graph/hypercube.hpp"

namespace hyperpath {
struct Packet;
}

namespace hyperpath::simcore {

/// Sentinel for "no packet" in intrusive links and head/tail slots.
inline constexpr std::uint32_t kNil = 0xffffffffu;

/// Intrusive per-link packet FIFOs in one flat arena, indexed by the dense
/// directed-link id.  Packet ids must be < num_packets; each packet may sit
/// in at most one queue at a time (true of every store-and-forward model
/// here: a packet waits on exactly its next link).
class LinkFifoArena {
  /// One link's queue.  The three words a sweep, arrival or release reads
  /// and writes together share one 12-byte record, so a random link access
  /// costs one cache miss, not three.
  struct Queue {
    std::uint32_t head = kNil;  // kNil = empty
    std::uint32_t tail = kNil;  // kNil = empty
    std::uint32_t depth = 0;
  };
  static_assert(sizeof(Queue) == 12, "a link queue record is three words");

 public:
  /// Arena bytes per link and per packet: the arena's share of a plan's
  /// memory accounting (run_oracle_phase's compiled_bytes).
  static constexpr std::size_t kBytesPerLink = sizeof(Queue);
  static constexpr std::size_t kBytesPerPacket = sizeof(std::uint32_t);

  /// The pool room an arena of this size takes.
  static std::size_t pool_bytes(std::uint64_t links, std::size_t packets) {
    return ScratchPool::bytes<Queue>(links) +
           ScratchPool::bytes<std::uint32_t>(packets);
  }

  /// Empties and re-dimensions the arena in `pool`.  The per-packet links
  /// are left unset: push_back writes a packet's before anything reads it.
  void reset(ScratchPool& pool, std::uint64_t num_links,
             std::size_t num_packets);

  bool empty(std::uint64_t link) const { return queues_[link].head == kNil; }
  std::uint32_t depth(std::uint64_t link) const { return queues_[link].depth; }

  /// Hints the cache to fetch `link`'s queue record for writing.  The step
  /// loops call it kPrefetchDistance iterations ahead of their random link
  /// accesses (step_kernel.hpp); it never changes the arena's contents.
  void prefetch(std::uint64_t link) const {
    __builtin_prefetch(queues_ + link, 1);
  }

  /// Appends packet `id` to `link`'s queue.  When the queue was empty the
  /// link is pushed onto `worklist`, the caller-owned active set.  The
  /// caller must keep the invariant that an empty link is never already on
  /// a live worklist; the simulators get this for free because stale
  /// entries (queues emptied by the fault-truncation pass) are compacted
  /// away by the same step's sweep, before any enqueue runs.
  void push_back(std::uint64_t link, std::uint32_t id,
                 std::vector<std::uint32_t>& worklist) {
    Queue& q = queues_[link];
    // A queue deeper than the 32-bit id space is impossible (each packet
    // waits in at most one queue); guard the wrap anyway in debug builds.
    assert(q.depth != 0xffffffffu && "link queue depth overflow");
    next_[id] = kNil;
    if (q.head == kNil) {
      q.head = id;
      worklist.push_back(static_cast<std::uint32_t>(link));
    } else {
      next_[q.tail] = id;
    }
    q.tail = id;
    ++q.depth;
  }

  /// Removes and returns the oldest waiting packet.  Requires !empty(link).
  std::uint32_t pop_front(std::uint64_t link) {
    Queue& q = queues_[link];
    const std::uint32_t id = q.head;
    q.head = next_[id];
    if (q.head == kNil) q.tail = kNil;
    --q.depth;
    return id;
  }

  /// Removes and returns the waiting packet maximizing key(id); ties go to
  /// the earliest-queued packet (the farthest-first arbitration rule).
  /// O(depth).  Requires !empty(link).
  template <typename Key>
  std::uint32_t pop_max(std::uint64_t link, Key&& key) {
    Queue& q = queues_[link];
    std::uint32_t best = q.head;
    std::uint32_t best_prev = kNil;
    auto best_key = key(best);
    for (std::uint32_t prev = best, it = next_[best]; it != kNil;
         prev = it, it = next_[it]) {
      const auto k = key(it);
      if (k > best_key) {
        best = it;
        best_prev = prev;
        best_key = k;
      }
    }
    if (best_prev == kNil) {
      q.head = next_[best];
    } else {
      next_[best_prev] = next_[best];
    }
    if (q.tail == best) q.tail = best_prev;
    --q.depth;
    return best;
  }

  /// Visits the queue front-to-back (the canonical drop order of the
  /// fault-truncation pass).
  template <typename Fn>
  void for_each(std::uint64_t link, Fn&& fn) const {
    for (std::uint32_t it = queues_[link].head; it != kNil; it = next_[it]) {
      fn(it);
    }
  }

  /// Empties `link`'s queue in O(1).  Any worklist entry for the link goes
  /// stale and is dropped by the next sweep's compaction.
  void clear_link(std::uint64_t link) { queues_[link] = Queue{}; }

 private:
  Queue* queues_ = nullptr;           // per link, in the pool
  std::uint32_t* next_ = nullptr;     // per packet; intrusive successor
};

/// One bit per directed link (the wormhole simulator's held-route set).
class LinkBitmap {
 public:
  explicit LinkBitmap(std::uint64_t num_links)
      : words_((num_links + 63) / 64, 0) {}

  bool test(std::uint64_t link) const {
    return (words_[link >> 6] >> (link & 63)) & 1u;
  }
  void set(std::uint64_t link) { words_[link >> 6] |= std::uint64_t{1} << (link & 63); }
  void clear(std::uint64_t link) {
    words_[link >> 6] &= ~(std::uint64_t{1} << (link & 63));
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Narrows a plan's running hop total to its 32-bit route offset — the one
/// place route_offsets is narrowed.  Throws "route plan hop count overflow"
/// past 2^32 - 1 stored hops instead of wrapping.
std::uint32_t checked_hop_offset(std::uint64_t hops_total);

/// The same for one route's route_len entry: "route plan route length
/// overflow".
std::uint32_t checked_route_len(std::uint64_t hops);

/// Narrows a Packet's int release to its 32-bit release entry: "negative
/// release time" below 0.
std::uint32_t checked_release(int release);

/// Structure-of-arrays compilation of a route set, built once per run.
///
/// Hops of route r are the 32-bit link ids
///     link_of_hop[route_offsets[r] ... route_offsets[r] + route_len[r])
/// — its hop segment.  route_offsets, route_len and release are parallel
/// 32-bit arrays, one entry per route.  Segments may be shared
/// (repeat_route), so link_of_hop holds each stored segment once, and the
/// plan counts its stored hops itself.  A plan stores no route nodes: the
/// step kernel reads only these flat arrays — it never touches a Packet
/// and never recomputes Hypercube::edge_id.  route_nodes is only the
/// staging buffer of the route being streamed (begin_route ..
/// end_route_unlinked) and is empty between routes.
///
/// A plan's link ids are in one of two spaces:
///   * dense (compile/rebuild) — host ids tail·n + dim, narrowed to 32 bits,
///     which holds up to n = 27 (n·2^n < 2^32); compile() checks it.  The
///     dimension of link l is l mod n.
///   * compact (compact_links) — the distinct links the plan's routes touch,
///     numbered in order of first use: the first stored hop's link is 0,
///     the next hop on a link not seen yet 1, and so on.  Routes are stored
///     in packet order, so the kernel's queue accesses, which follow packet
///     ids, walk the arena almost sequentially.  global_link maps a compact
///     id back to its 64-bit host id, dim_of gives its dimension, and
///     host_order lists the compact ids by ascending host id (the binary
///     search of a faulted run's host-to-plan lookup).  Per-link state
///     scales with the traffic, not the host, and hosts past n = 27 work.
/// The space is internal to a run: run_plan maps ids at its boundary, so
/// trace events, fault schedules and PacketFates speak host ids in both.
class RoutePlan {
 public:
  /// Compiles (and validates) a packet set's routes into a dense plan.
  /// Throws "packet route invalid" and "negative release time".
  static RoutePlan compile(const Hypercube& host,
                           const std::vector<Packet>& packets);

  /// In-place compile: clears and refills this plan, keeping vector
  /// capacity — the StepScratch reuse path.  Same validation as compile().
  void rebuild(const Hypercube& host, const std::vector<Packet>& packets);

  /// Empties the plan, keeping capacity (scratch reuse across runs); the
  /// emptied plan is dense.
  void clear();
  void reserve(std::size_t routes, std::size_t total_nodes);

  /// Validates and appends one route.  `invalid_msg` is the HP_CHECK text
  /// raised on a malformed route — callers with their own vocabulary (the
  /// wormhole simulator) pass theirs so error contracts survive unchanged.
  void add_route(const Hypercube& host, const HostPath& route,
                 std::uint32_t release_step,
                 const char* invalid_msg = "packet route invalid");

  /// Streaming construction — PathOracle consumers compile routes with no
  /// HostPath temporary: begin_route(), the route's nodes appended to the
  /// route_nodes staging buffer (push_nodes() per slice, or a NodeSink on
  /// route_nodes), then end_route_unlinked(dims, glinks), which validates
  /// the walk within Q_dims, appends each hop's 64-bit host id
  /// (tail·dims + dim) to `glinks` and empties route_nodes, but leaves
  /// link_of_hop empty until compact_links fills it.  Do not mix unlinked
  /// routes with add_route ones in one plan.
  void begin_route(std::uint32_t release_step);
  void push_nodes(std::span<const Node> vs);
  void end_route_unlinked(int dims, std::vector<std::uint64_t>& glinks,
                          const char* invalid_msg = "packet route invalid");

  /// end_route_unlinked for a route the caller holds contiguously, with no
  /// staging copy; its hops' host ids go to ids[stored hop], and `ids`,
  /// the first array in `pool`, doubles when they do not fit.
  void add_route_unlinked(std::span<const Node> route,
                          std::uint32_t release_step, int dims,
                          ScratchPool& pool, std::span<std::uint64_t>& ids,
                          const char* invalid_msg = "packet route invalid");

  /// Appends a route on route `src`'s (already validated) hop segment,
  /// released at `release_step`.  Stores no hops, so it adds nothing to
  /// glinks either.  Requires src < num_routes().
  void repeat_route(std::uint32_t src, std::uint32_t release_step);

  /// Makes an unlinked plan compact.  `ids` (add_route_unlinked's) holds
  /// each stored hop's 64-bit host id (tail·dims + dim) in hop order; the
  /// distinct ids, in order of first use, become global_link, each hop's
  /// index among them its link_of_hop entry, dim_of their dimensions, and
  /// host_order their indices by ascending host id.
  ///
  /// `ids` grows in `pool` to twice the hop count, its ids become
  /// (id << hop_bits) | hop keys in place, LSD radix-sorted on the id bits
  /// through the spare half.  The first-use renumbering of the sorted
  /// keys runs in the plan's own vectors, whose capacity a reused plan
  /// keeps.  Every id must be below dims·2^dims, and the id bits plus the
  /// hop-index bits must fit 64; both are checked.
  void compact_links(ScratchPool& pool, std::span<std::uint64_t> ids,
                     int dims);

  /// True once compact_links ran, until the next clear() — also for a
  /// plan without hops, whose compact link space is empty.
  bool compact() const { return compact_; }

  std::uint32_t num_routes() const {
    return static_cast<std::uint32_t>(route_len.size());
  }
  std::uint64_t stored_hops() const { return stored_hops_; }

  std::vector<Node> route_nodes;            // the open streamed route's nodes
  std::vector<std::uint32_t> route_offsets; // per route: its segment's start
  std::vector<std::uint32_t> link_of_hop;   // plan link id per stored hop
  std::vector<std::uint32_t> route_len;     // hops per route
  std::vector<std::uint32_t> release;       // earliest step a route may move
  std::vector<std::uint64_t> global_link;   // compact id -> host link id
  std::vector<std::uint8_t> dim_of;         // compact id -> dimension
  std::vector<std::uint32_t> host_order;    // compact ids by host id

 private:
  /// Appends the record of a route whose hops were just stored last.
  void append_stored(std::uint64_t hops, std::uint32_t release_step);
  /// add_route() after its validity check.
  void append_route(const Hypercube& host, const HostPath& route,
                    std::uint32_t release_step);
  /// Validates a nonempty unlinked route and stores it, its ids at `ids`.
  void store_unlinked(std::span<const Node> route, std::uint32_t release_step,
                      int dims, std::uint64_t* ids, const char* invalid_msg);

  bool compact_ = false;              // link ids are compact (see above)
  std::uint64_t stored_hops_ = 0;     // size of the stored segments
  std::uint32_t stream_release_ = 0;  // release step of the open route
};

/// Thread-local, run-scoped scratch for the serial step path.  The
/// Monte-Carlo campaign engine and the recovery wave loop run thousands of
/// short simulations on the same pool thread, and a sweep reruns one large
/// oracle phase; everything here keeps its capacity across runs (nothing is
/// handed back), and correctness never depends on leftover contents.
struct StepScratch {
  RoutePlan plan;
  /// Hop ids and the radix spare while a plan compiles, then the oracle
  /// phase's load counters, then the arena and hop cursors of run_plan.
  ScratchPool pool;
  LinkFifoArena arena;                // in `pool` while run_plan steps
  std::vector<std::uint32_t> active;  // serial active-link worklist
  std::vector<std::uint32_t> moved;   // packets that advanced this step
  /// One bit per packet, all-zero between sweeps: the counting-sort mask
  /// step_kernel.hpp's sort_moved uses to order dense arrival batches.
  std::vector<std::uint64_t> moved_mask;
  /// Deferred releases as (release step, route id), sorted ascending; a
  /// cursor walks it as steps advance.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pending;
  std::vector<std::uint32_t> highwater;  // per-link, tracing runs only
  std::vector<std::uint32_t> dead;       // plan ids of dead links (faulted)
};

/// The calling thread's scratch arena.  Thread-local, so concurrent
/// Monte-Carlo trials each reuse their own; a simulator run owns it only
/// for the duration of the run (simulators never nest runs on one thread).
StepScratch& step_scratch();

}  // namespace hyperpath::simcore
