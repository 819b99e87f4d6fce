// Synchronous store-and-forward link simulator.
//
// Each directed link transmits at most one packet per step; packets whose
// next link is busy wait in that link's queue.  Two arbitration policies:
//
//   * kFifo          — queue order (arrival time, ties by packet id);
//   * kFarthestFirst — the waiting packet with the most remaining hops goes
//                      first (a common latency-improving heuristic).
//
// The simulator is deterministic for a fixed packet list and policy.  An
// optional obs::TraceSink receives step-level events (releases, transmits,
// stalls, queue high-water marks, arrivals); with a null sink no event is
// ever constructed.
//
// A faulted run_plan replays a timed FaultSchedule during the run: at the
// start of each step the schedule's events for that step fire
// (kFault/kRepair trace events), and every packet waiting on a
// currently-dead link is truncated at the break point (kDrop, value = hops
// completed).  The per-packet outcome is reported in FaultRunResult::fates;
// the recovery engine (recovery.hpp) builds sender-side retransmission on
// top.
#pragma once

#include "obs/trace.hpp"
#include "sim/packet.hpp"

namespace hyperpath {

enum class Arbitration { kFifo, kFarthestFirst };

class FaultSchedule;

namespace simcore {
class RoutePlan;
}

/// Runs a compiled plan (simcore.hpp) to completion on a Q_dims host: the
/// one store-and-forward step loop, behind StoreForwardSim,
/// run_oracle_phase (oracle_sim.hpp) and the recovery waves (recovery.hpp).
/// The loop is serial: each step needs the queues the previous step left,
/// so parallelism lives across runs (trials, waves, sweeps), each on its
/// own thread-local StepScratch.
/// `Traced` requires `sink`; `Faulted` requires a `schedule` built for
/// Q_dims (an Error otherwise); `fault_out` (optional) receives per-route
/// fates.  Dense and compact plans (RoutePlan::compact) run the same
/// contract: trace events, the schedule's dead links and PacketFate links
/// are host link ids in both, a dead link no route uses has no effect, and
/// utilization is relative to the host's dims·2^dims links — so one route
/// set compiled either way gives equal results, fates and traces.  With
/// `announce_faults` false a traced faulted run omits the kFault/kRepair
/// events (the recovery waves announce one schedule once).  The returned
/// elapsed_seconds is 0; callers stamp their own wall time.
template <bool Traced, bool Faulted>
SimResult run_plan(const simcore::RoutePlan& plan, int dims,
                   Arbitration policy, int max_steps, obs::TraceSink* sink,
                   const FaultSchedule* schedule, bool announce_faults,
                   FaultRunResult* fault_out);

class StoreForwardSim {
 public:
  /// Simulates on Q_dims.
  explicit StoreForwardSim(int dims);

  /// Runs the packet set to completion and returns the measured result.
  /// Throws if any route is invalid or the simulation exceeds `max_steps`.
  /// With a sink attached, emits the canonical step-level trace.
  SimResult run(const std::vector<Packet>& packets,
                Arbitration policy = Arbitration::kFifo,
                int max_steps = 1 << 22,
                obs::TraceSink* sink = nullptr) const;

 private:
  Hypercube host_;
};

}  // namespace hyperpath
