// Measuring p-packet phase costs (Section 3).
//
// The p-packet cost of an embedding is the number of synchronous steps
// needed to complete one phase of the guest computation in which every
// guest edge carries p packets.  We measure it empirically: packets are
// generated per guest edge — assigned round-robin over the edge's path
// bundle (bundle sorted by path length, so direct paths absorb the extra
// packets exactly as in Theorem 1's schedule) — and run through the
// store-and-forward simulator.  measure_phase_cost is the oracle phase
// (oracle_sim.hpp) over MaterializedOracle(emb): it builds no Packet and
// no dense plan.  phase_packets builds the same traffic as an explicit
// Packet list for the StoreForwardSim step-loop benches (bench_simcore,
// bench_parallel_sim, hpbench's mat_phase_q16), and it is the reference
// that the oracle phase is tested against.
//
// The measured makespan is an *achievable* cost (an upper bound attained by
// a concrete oblivious schedule); the theorems' claims are checked against
// it in tests and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "embed/embedding.hpp"
#include "sim/packet.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {

/// The slot order of one guest edge's bundle of `width` paths: the path
/// indices stable-sorted by length, so packet j of the edge rides path
/// order[j mod width] and packet 0 the shortest.  `length(i)` is path i's
/// node (or hop) count.  The one packet-to-path rule of phase_packets and
/// compile_oracle_phase (oracle_sim.hpp).  An insertion sort into the
/// caller's reused buffer: a bundle is a handful of paths, and the sort
/// allocates nothing.
template <typename Length>
void slot_order(std::size_t width, Length&& length,
                std::vector<std::uint32_t>& order) {
  order.resize(width);
  for (std::uint32_t i = 0; i < width; ++i) {
    const auto len = length(i);
    std::uint32_t j = i;
    for (; j > 0 && length(order[j - 1]) > len; --j) order[j] = order[j - 1];
    order[j] = i;
  }
}

/// The packets of one phase as a Packet list: p per guest edge, packet j of
/// an edge routed on slot j mod w, in (edge, packet) order — the traffic
/// measure_phase_cost runs, for StoreForwardSim callers.  For a k-copy
/// embedding pass KCopyEmbedding::multipath(): p packets per guest edge
/// per copy, in (copy, edge, packet) order.
std::vector<Packet> phase_packets(const MultiPathEmbedding& emb, int p);

/// Runs one phase and returns the measured result (makespan = p-packet
/// cost of this schedule): run_oracle_phase over MaterializedOracle(emb)
/// and every guest edge in id order.  An optional trace sink receives the
/// simulator's step-level events.  elapsed_seconds is left 0.
SimResult measure_phase_cost(const MultiPathEmbedding& emb, int p,
                             Arbitration policy = Arbitration::kFifo,
                             obs::TraceSink* sink = nullptr);

}  // namespace hyperpath
