#include "sim/phase.hpp"

#include "base/error.hpp"
#include "embed/path_oracle.hpp"
#include "obs/profile.hpp"
#include "sim/oracle_sim.hpp"

namespace hyperpath {

std::vector<Packet> phase_packets(const MultiPathEmbedding& emb, int p) {
  HP_PROFILE_SPAN("sim/phase_packets");
  HP_CHECK(p >= 1, "phase needs at least one packet per edge");
  std::vector<Packet> packets;
  packets.reserve(emb.guest().num_edges() * static_cast<std::size_t>(p));
  std::vector<std::uint32_t> order;  // slot order, reused across edges
  for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
    const BundleView bundle = emb.paths(e);
    HP_CHECK(!bundle.empty(), "phase needs a path for every guest edge");
    slot_order(
        bundle.size(), [&](std::uint32_t i) { return bundle[i].size(); },
        order);
    for (int j = 0; j < p; ++j) {
      const PathView route = bundle[order[j % order.size()]];
      packets.emplace_back().route.assign(route.begin(), route.end());
    }
  }
  return packets;
}

SimResult measure_phase_cost(const MultiPathEmbedding& emb, int p,
                             Arbitration policy, obs::TraceSink* sink) {
  const MaterializedOracle oracle(emb);
  return run_oracle_phase(oracle, all_guest_edges(oracle),
                          {.packets_per_edge = p, .policy = policy,
                           .sink = sink});
}

}  // namespace hyperpath
