// Test-side faulted run of an explicit packet list: compiles `packets` into
// a dense plan (RoutePlan::compile) and runs it through the faulted
// run_plan while replaying `schedule`, announcing every fault and repair —
// the contract the recovery waves run on, driven from hand-built packets.
#pragma once

#include <vector>

#include "graph/hypercube.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "sim/packet.hpp"
#include "sim/simcore.hpp"
#include "sim/store_forward.hpp"

namespace hyperpath {

inline FaultRunResult run_with_faults(int dims,
                                      const std::vector<Packet>& packets,
                                      const FaultSchedule& schedule,
                                      Arbitration policy = Arbitration::kFifo,
                                      int max_steps = 1 << 22,
                                      obs::TraceSink* sink = nullptr) {
  const simcore::RoutePlan plan =
      simcore::RoutePlan::compile(Hypercube(dims), packets);
  FaultRunResult out;
  out.sim = sink != nullptr
                ? run_plan<true, true>(plan, dims, policy, max_steps, sink,
                                       &schedule, true, &out)
                : run_plan<false, true>(plan, dims, policy, max_steps,
                                        nullptr, &schedule, true, &out);
  return out;
}

}  // namespace hyperpath
