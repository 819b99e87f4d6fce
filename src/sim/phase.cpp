#include "sim/phase.hpp"

#include <algorithm>
#include <numeric>

#include "base/error.hpp"
#include "obs/profile.hpp"

namespace hyperpath {

std::vector<Packet> phase_packets(const MultiPathEmbedding& emb, int p) {
  HP_PROFILE_SPAN("sim/phase_packets");
  HP_CHECK(p >= 1, "phase needs at least one packet per edge");
  std::vector<Packet> packets;
  packets.reserve(emb.guest().num_edges() * static_cast<std::size_t>(p));
  std::vector<std::size_t> order;  // slot order, reused across edges
  for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
    const BundleView bundle = emb.paths(e);
    HP_CHECK(!bundle.empty(), "phase needs a path for every guest edge");
    // Order paths by length so packet 0 takes the shortest (direct) path.
    // A width-1 bundle (every k-copy union edge) skips stable_sort, whose
    // temporary buffer is a heap allocation per call.
    order.resize(bundle.size());
    std::iota(order.begin(), order.end(), 0u);
    if (bundle.size() > 1) {
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return bundle[a].size() < bundle[b].size();
                       });
    }
    for (int j = 0; j < p; ++j) {
      const PathView route = bundle[order[j % order.size()]];
      packets.emplace_back().route.assign(route.begin(), route.end());
    }
  }
  return packets;
}

SimResult measure_phase_cost(const MultiPathEmbedding& emb, int p,
                             Arbitration policy, obs::TraceSink* sink) {
  StoreForwardSim sim(emb.host().dims());
  return sim.run(phase_packets(emb, p), policy, 1 << 22, sink);
}

}  // namespace hyperpath
