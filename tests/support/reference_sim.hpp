// Map-based reference simulators: the differential oracle of the simulator
// core.
//
// These are the pre-flat-arena implementations of StoreForwardSim and
// WormholeSim (hash-map per-link queues, full-map per-step scans,
// unordered_set held-links), compiled into the test binary only.
// tests/property/simcore_equiv_test.cpp asserts the production simulators
// produce bit-identical results AND trace streams to these references under
// randomized workloads, both arbitration policies, fault schedules and
// staggered releases.
//
// Do not "optimize" this file — its value is being the slow, obviously
// faithful model.  New simulator features land in the production cores
// first and are mirrored here only when the equivalence tests need them.
#pragma once

#include "obs/trace.hpp"
#include "sim/packet.hpp"
#include "sim/store_forward.hpp"
#include "sim/wormhole.hpp"

namespace hyperpath::refsim {

/// The map-based store-and-forward simulator (old StoreForwardSim).
class RefStoreForwardSim {
 public:
  explicit RefStoreForwardSim(int dims);

  SimResult run(const std::vector<Packet>& packets,
                Arbitration policy = Arbitration::kFifo,
                int max_steps = 1 << 22,
                obs::TraceSink* sink = nullptr) const;

  FaultRunResult run_with_faults(const std::vector<Packet>& packets,
                                 const FaultSchedule& schedule,
                                 Arbitration policy = Arbitration::kFifo,
                                 int max_steps = 1 << 22,
                                 obs::TraceSink* sink = nullptr,
                                 bool announce_faults = true) const;

 private:
  SimResult run_impl(const std::vector<Packet>& packets, Arbitration policy,
                     int max_steps, obs::TraceSink* sink,
                     const FaultSchedule* schedule, bool announce_faults,
                     FaultRunResult* fault_out) const;

  Hypercube host_;
};

/// The scan-all-worms wormhole simulator (old WormholeSim).
class RefWormholeSim {
 public:
  explicit RefWormholeSim(int dims);

  WormResult run(const std::vector<Worm>& worms, int max_steps = 1 << 22,
                 obs::TraceSink* sink = nullptr) const;

 private:
  Hypercube host_;
};

}  // namespace hyperpath::refsim
