// Test-side adapter for plans streamed with end_route_unlinked: compacts
// `plan` from a vector holding its stored hops' host link ids, through a
// ScratchPool of its own (the library compacts in the thread's pool).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/simcore.hpp"

namespace hyperpath {

inline void compact_links(simcore::RoutePlan& plan,
                          const std::vector<std::uint64_t>& glinks,
                          int dims) {
  ScratchPool pool;
  const std::span<std::uint64_t> ids = pool.make<std::uint64_t>(glinks.size());
  std::ranges::copy(glinks, ids.begin());
  plan.compact_links(pool, ids, dims);
}

}  // namespace hyperpath
