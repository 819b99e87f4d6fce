// Thread-parallel store-and-forward simulation.
//
// The synchronous link model parallelizes naturally: within a step every
// link arbitrates independently, so links are sharded across the shards of
// a step (link id mod shards) and the moved packets are merged in a fixed
// order after each shard round.  The run is run_plan's one step loop with
// the sharded sweep (store_forward.hpp); each step's shard round runs on
// par::current_pool(), one shard per pool participant, so the pool size
// (--threads, HYPERPATH_THREADS, par::PoolScope) sets the shard count.  The
// result is bit-identical to StoreForwardSim (tests enforce this) —
// parallelism changes wall-clock time only, never the measured makespan,
// utilization or queue statistics.
//
// Tracing: each shard records its events into a shard-local buffer; the
// buffers are merged after the round and sorted into the canonical
// intra-step order, so a traced parallel run emits a byte-identical event
// stream to the serial simulator (also enforced by tests).
//
// Worth using from ~10^5 packets upward (Theorem 1 phases on Q_16 and the
// relaxation sweeps); below that the per-step round overhead dominates.
#pragma once

#include "obs/trace.hpp"
#include "sim/packet.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {

class ParallelStoreForwardSim {
 public:
  /// Simulates on Q_dims; each run shards across the participants of
  /// par::current_pool() (one shard: the serial sweep).
  explicit ParallelStoreForwardSim(int dims);

  /// FIFO arbitration only.
  SimResult run(const std::vector<Packet>& packets,
                int max_steps = 1 << 22,
                obs::TraceSink* sink = nullptr) const;

  /// Fault-schedule replay, bit-identical to
  /// StoreForwardSim::run_with_faults (same FaultRunResult, same trace).
  /// Fault application and queue truncation run on the calling thread
  /// between shard rounds, so the sharding never reorders them.
  FaultRunResult run_with_faults(const std::vector<Packet>& packets,
                                 const FaultSchedule& schedule,
                                 int max_steps = 1 << 22,
                                 obs::TraceSink* sink = nullptr,
                                 bool announce_faults = true) const;

 private:
  Hypercube host_;
};

}  // namespace hyperpath
