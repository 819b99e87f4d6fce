// Store-and-forward phase simulation fed directly from a PathOracle: the
// one phase driver.  measure_phase_cost (phase.hpp) is run_oracle_phase
// over MaterializedOracle(emb) and every guest edge, so a materialized
// embedding and an algebraic host far too large to materialize run the
// same compile, renumber and step code.
//
// No Packet, HostPath or bundle vector is built, and per-link state is
// sized by the links the traffic touches, never by the host's 2^n·n
// directed links (~400M at Q_24; past n = 27 the dense link id no longer
// fits 32 bits):
//
//   1. compile_oracle_phase asks the oracle once per demanded guest edge
//      for its whole bundle (PathOracle::append_bundle, into flat buffers
//      reused across edges), and add_route_unlinked validates each stored
//      path in place and records each hop's 64-bit *global* link id
//      u·n + dim in the thread's ScratchPool.  An edge's p packets ride
//      its w bundle paths round-robin, so only its min(p, w) distinct
//      paths are stored, as hops only; each further packet is a
//      RoutePlan::repeat_route onto its slot's hop segment.
//   2. RoutePlan::compact_links radix-sorts the stored global ids (tagged
//      with their hop index) through the buffer's spare half and numbers
//      the distinct ids in order of first use — a plan-local 32-bit link
//      id.  Routes are compiled in packet order, so the sweep and the
//      arrival pass, which follow packet ids, touch the link queues almost
//      in arena order.  The arena is sized by the number of *distinct
//      links the traffic touches*, not by the host: memory is proportional
//      to the active packet set, and hosts past the n = 27 dense-id ceiling
//      work unchanged.  The peak static link load is counted once per
//      stored segment, weighted by the packets that ride it.
//   3. run_plan (store_forward.hpp) — the kernel every serial
//      store-and-forward simulation runs — steps the compact plan to
//      completion under the spec's arbitration, traced when the spec
//      carries a sink.  The plan and the pool stay in the thread's
//      StepScratch: a next phase no larger allocates nothing.
//
// Packet-per-edge scheduling is the slot order of phase.hpp (bundle
// indices stable-sorted by increasing path length): packet j of an edge
// rides order[j mod width], and packet ids run edge-major (edge·p + j),
// as in phase_packets.  Trace events carry host link ids, so on a host
// small enough for both, a phase run here and phase_packets run through
// StoreForwardSim give equal results and equal traces, event for event
// (tests/property/oracle_sample_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "embed/path_oracle.hpp"
#include "sim/simcore.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {

struct OraclePhaseSpec {
  int packets_per_edge = 1;  // p packets per demanded guest edge
  Arbitration policy = Arbitration::kFifo;
  obs::TraceSink* sink = nullptr;  // step-level events (host link ids)
};

/// The run's SimResult (elapsed_seconds stays 0) plus what the compiled
/// plan counts.
struct OraclePhaseResult : SimResult {
  std::uint64_t delivered = 0;          // routes run to completion
  std::uint64_t peak_congestion = 0;    // max packets routed over one link
  std::uint64_t unique_links = 0;       // distinct host links touched
  std::uint64_t route_nodes = 0;        // per packet: its hops + 1, summed
  std::uint64_t compiled_bytes = 0;     // plan + renumber table + arena
};

/// Streams path `path_index` of `edge` from the oracle into `plan` as one
/// unlinked route (simcore::RoutePlan streaming API), appending each hop's
/// 64-bit global link id (tail·dims + dim) to `glinks` — the ids that
/// RoutePlan::compact_links renumbers.
void add_oracle_route(const PathOracle& oracle, const OracleEdge& edge,
                      int path_index, std::uint32_t release_step,
                      simcore::RoutePlan& plan,
                      std::vector<std::uint64_t>& glinks);

/// Step 1 of run_oracle_phase: refills `plan` with `packets_per_edge`
/// unlinked routes per demanded guest edge, in phase_packets order, and
/// returns each stored hop's global link id, in `pool`.  Each distinct
/// bundle path is streamed and stored once per edge; packet j ≥ w repeats
/// route first + j mod w.  Route for route, the plan rides the hops that
/// add_oracle_route per packet would give.
std::span<std::uint64_t> compile_oracle_phase(
    const PathOracle& oracle, std::span<const OracleEdge> edges,
    int packets_per_edge, simcore::RoutePlan& plan,
    ScratchPool& pool);

/// Compiles `spec.packets_per_edge` packets per demanded guest edge from
/// the oracle's bundles and runs the phase to completion under
/// `spec.policy`, emitting the step-level trace into `spec.sink` if set.
OraclePhaseResult run_oracle_phase(const PathOracle& oracle,
                                   std::span<const OracleEdge> edges,
                                   const OraclePhaseSpec& spec = {});

}  // namespace hyperpath
