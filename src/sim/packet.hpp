// Packet and result types shared by the simulators.
//
// The simulation model is exactly Section 3's: time advances in synchronous
// steps; during one step each processor can send one packet over each of its
// n outgoing links.  A packet has a fixed route (chosen by the embedding /
// router before the simulation starts — all the paper's schemes are
// oblivious), and waits in a per-link queue when its next link is busy.
#pragma once

#include <cstdint>
#include <vector>

#include "base/types.hpp"
#include "graph/hypercube.hpp"
#include "obs/metrics.hpp"

namespace hyperpath {

/// One packet with a fixed route through the hypercube.
struct Packet {
  HostPath route;     // node sequence; route.size() >= 1
  int release = 0;    // earliest step at which the packet may move
  std::uint32_t tag = 0;  // caller-defined grouping (e.g. guest edge id)
};

/// What happened to one packet of a faulty run (parallel to the input
/// packet list).
struct PacketFate {
  enum class Kind : std::uint8_t {
    kDelivered = 0,  // reached its destination; step = arrival step
    kLost,           // truncated at a dead link; step = loss step,
                     // link = the dead directed link, hops = completed hops
  };

  Kind kind = Kind::kDelivered;
  int step = 0;
  std::uint64_t link = ~std::uint64_t{0};
  int hops = 0;

  bool delivered() const { return kind == Kind::kDelivered; }
  friend bool operator==(const PacketFate&, const PacketFate&) = default;
};

/// Outcome of a synchronous simulation run.
struct SimResult {
  /// Number of steps until the last packet reached its destination (0 if
  /// every route was trivial).
  int makespan = 0;

  /// Per-step fraction of directed links that transmitted a packet, kept as
  /// an exact running mean plus a memory-bounded downsampled profile (one
  /// sample per step would be 1<<22 doubles on long runs).
  obs::UtilizationProfile utilization;

  /// Total packet-hops transmitted.
  std::uint64_t total_transmissions = 0;

  /// Maximum number of packets that ever waited in one link queue.
  std::size_t max_queue = 0;

  /// Transmissions per hypercube dimension (size = dims of the host); shows
  /// which dimensions carry the congestion.
  std::vector<std::uint64_t> dim_transmissions;

  /// Per-packet latency (arrival step − release step) in exponential
  /// buckets 1, 2, 4, ...; trivial (single-node) routes are not counted.
  obs::FixedHistogram latency;

  /// Active-set accounting of the flat-arena core (simcore.hpp): how many
  /// worklist entries the per-step sweeps examined over the whole run,
  /// stale entries included.  Deterministic for a fixed workload and
  /// independent of the thread pool a run executes on.  With the active
  /// set working, this is Σ_steps (currently nonempty links), NOT
  /// makespan × (links ever used) — the regression tests pin that down.
  /// The map-based test reference leaves it 0.
  std::uint64_t link_visits = 0;

  /// Wall-clock seconds the run spent, stamped by the simulator around its
  /// whole run (setup + steps + drain).  Never part of the determinism
  /// contract — every equivalence check compares the deterministic fields
  /// individually and ignores this one.
  double elapsed_seconds = 0;

  double average_utilization() const { return utilization.average(); }

  /// First-class throughput metric: simulated packet-steps per wall-clock
  /// second (total transmissions / elapsed).  0 when timing is unavailable.
  double packet_steps_per_sec() const {
    return elapsed_seconds > 0
               ? static_cast<double>(total_transmissions) / elapsed_seconds
               : 0.0;
  }
};

/// Outcome of a run under a timed fault schedule (a faulted run_plan,
/// store_forward.hpp): the usual SimResult for the traffic that moved, plus
/// the per-packet fates.
struct FaultRunResult {
  SimResult sim;
  std::vector<PacketFate> fates;  // parallel to the plan's routes
  std::size_t delivered = 0;
  std::size_t lost = 0;
};

}  // namespace hyperpath
