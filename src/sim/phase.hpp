// Measuring p-packet phase costs (Section 3).
//
// The p-packet cost of an embedding is the number of synchronous steps
// needed to complete one phase of the guest computation in which every
// guest edge carries p packets.  We measure it empirically: packets are
// generated per guest edge — assigned round-robin over the edge's path
// bundle (bundle sorted by path length, so direct paths absorb the extra
// packets exactly as in Theorem 1's schedule) — and run through the
// store-and-forward simulator.
//
// The measured makespan is an *achievable* cost (an upper bound attained by
// a concrete oblivious schedule); the theorems' claims are checked against
// it in tests and benches.
#pragma once

#include "embed/embedding.hpp"
#include "sim/packet.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {

/// The packets of one phase: p per guest edge, packet j of an edge routed on
/// bundle path (j mod w) with the bundle sorted by increasing length.  For a
/// k-copy embedding pass KCopyEmbedding::multipath(): p packets per guest
/// edge per copy, in (copy, edge, packet) order.
std::vector<Packet> phase_packets(const MultiPathEmbedding& emb, int p);

/// Runs one phase and returns the measured result (makespan = p-packet
/// cost of this schedule).  An optional trace sink receives the simulator's
/// step-level events.
SimResult measure_phase_cost(const MultiPathEmbedding& emb, int p,
                             Arbitration policy = Arbitration::kFifo,
                             obs::TraceSink* sink = nullptr);

}  // namespace hyperpath
