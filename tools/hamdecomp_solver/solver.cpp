#include "hamdecomp_solver/solver.hpp"

#include <algorithm>
#include <array>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "obs/profile.hpp"

namespace hyperpath {

// ---------------------------------------------------------------------------
// CubeSubgraph
// ---------------------------------------------------------------------------

CubeSubgraph::CubeSubgraph(int dims, bool full) : dims_(dims) {
  HP_CHECK(dims >= 1 && dims <= 20, "CubeSubgraph dims out of range");
  const std::uint32_t all = full ? ((dims == 32) ? ~0u : ((1u << dims) - 1)) : 0u;
  mask_.assign(pow2(dims), all);
}

void CubeSubgraph::remove_edge(Node v, Dim d) {
  HP_CHECK(has_edge(v, d), "removing absent edge");
  mask_[v] &= ~(1u << d);
  mask_[flip_bit(v, d)] &= ~(1u << d);
}

void CubeSubgraph::add_edge(Node v, Dim d) {
  HP_CHECK(!has_edge(v, d), "adding present edge");
  mask_[v] |= 1u << d;
  mask_[flip_bit(v, d)] |= 1u << d;
}

int CubeSubgraph::degree(Node v) const { return std::popcount(mask_[v]); }

// ---------------------------------------------------------------------------
// Pósa-rotation Hamiltonian cycle heuristic
// ---------------------------------------------------------------------------

namespace {

// Picks a uniformly random set bit of mask (mask != 0).
Dim random_set_bit(std::uint32_t mask, Rng& rng) {
  const int k = std::popcount(mask);
  int pick = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
  while (pick-- > 0) mask &= mask - 1;
  return count_trailing_zeros(mask);
}

}  // namespace

std::optional<std::vector<Node>> find_hamiltonian_cycle(
    const CubeSubgraph& g, Rng& rng, std::uint64_t max_steps) {
  HP_PROFILE_SPAN("posa_cycle");
  const std::uint64_t n_nodes = g.num_nodes();
  std::vector<Node> path;
  std::vector<std::int32_t> pos(n_nodes, -1);  // index on path, or -1

  auto restart = [&] {
    for (Node v : path) pos[v] = -1;
    path.clear();
    const Node s = static_cast<Node>(rng.below(n_nodes));
    path.push_back(s);
    pos[s] = 0;
  };
  restart();

  for (std::uint64_t step = 0; step < max_steps; ++step) {
    const Node e = path.back();

    // Try to extend with an unvisited neighbor (random choice).
    std::uint32_t fresh = 0;
    for (std::uint32_t m = g.neighbor_mask(e); m != 0; m &= m - 1) {
      const Dim d = count_trailing_zeros(m);
      if (pos[flip_bit(e, d)] < 0) fresh |= 1u << d;
    }
    if (fresh != 0) {
      const Dim d = random_set_bit(fresh, rng);
      const Node v = flip_bit(e, d);
      pos[v] = static_cast<std::int32_t>(path.size());
      path.push_back(v);
      continue;
    }

    // Complete path: close into a cycle if the endpoints are adjacent in g.
    if (path.size() == n_nodes && is_pow2(e ^ path.front()) &&
        g.has_edge(e, count_trailing_zeros(e ^ path.front()))) {
      return path;
    }

    // Rotate: pick a random on-path neighbor v = path[i] (not the current
    // predecessor) and reverse the suffix after it.  New endpoint: path[i+1].
    std::uint32_t cand = g.neighbor_mask(e);
    // Exclude the predecessor edge (reversing there is a no-op).
    if (path.size() >= 2) {
      const Node pred = path[path.size() - 2];
      cand &= ~(1u << count_trailing_zeros(e ^ pred));
    }
    if (cand == 0) {
      restart();
      continue;
    }
    const Dim d = random_set_bit(cand, rng);
    const Node v = flip_bit(e, d);
    const std::int32_t i = pos[v];
    std::reverse(path.begin() + i + 1, path.end());
    for (std::size_t j = static_cast<std::size_t>(i) + 1; j < path.size(); ++j) {
      pos[path[j]] = static_cast<std::int32_t>(j);
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// 4-regular split
// ---------------------------------------------------------------------------

namespace {

// Undirected edge ids within a CubeSubgraph: canonical endpoint is the one
// with bit d clear.
struct UEdge {
  Node lo;  // endpoint with bit d == 0
  Dim d;
};

std::vector<UEdge> collect_edges(const CubeSubgraph& g) {
  std::vector<UEdge> edges;
  for (Node v = 0; v < g.num_nodes(); ++v) {
    for (std::uint32_t m = g.neighbor_mask(v); m != 0; m &= m - 1) {
      const Dim d = count_trailing_zeros(m);
      if (!test_bit(v, d)) edges.push_back(UEdge{v, d});
    }
  }
  return edges;
}

// Eulerian circuit of a connected even-degree undirected graph given as an
// edge list with per-node incidence.  Returns the oriented edge sequence as
// (edge index, direction) where direction 0 = lo→hi.
std::optional<std::vector<std::pair<std::uint32_t, int>>> euler_undirected(
    const CubeSubgraph& g, const std::vector<UEdge>& edges) {
  const std::uint64_t n_nodes = g.num_nodes();
  // incidence[v] = list of edge indices touching v.
  std::vector<std::vector<std::uint32_t>> inc(n_nodes);
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    inc[edges[e].lo].push_back(e);
    inc[flip_bit(edges[e].lo, edges[e].d)].push_back(e);
  }
  std::vector<std::uint32_t> next(n_nodes, 0);
  std::vector<bool> used(edges.size(), false);

  std::vector<std::pair<Node, std::uint32_t>> stack;  // (node, edge taken to it)
  std::vector<std::pair<std::uint32_t, int>> circuit;
  const Node start = edges.empty() ? 0 : edges[0].lo;
  stack.emplace_back(start, UINT32_MAX);
  while (!stack.empty()) {
    const Node u = stack.back().first;
    bool advanced = false;
    while (next[u] < inc[u].size()) {
      const std::uint32_t e = inc[u][next[u]++];
      if (used[e]) continue;
      used[e] = true;
      const Node other = (edges[e].lo == u) ? flip_bit(u, edges[e].d)
                                            : edges[e].lo;
      stack.emplace_back(other, e);
      advanced = true;
      break;
    }
    if (!advanced) {
      const std::uint32_t via = stack.back().second;
      stack.pop_back();
      if (via != UINT32_MAX) {
        // Edge `via` was traversed *into* u; in the final circuit order it
        // is traversed tail→head where head == u.
        const Node head = u;
        const int dir = (edges[via].lo == head) ? 1 : 0;  // 0 = lo→hi
        circuit.emplace_back(via, dir);
      }
    }
  }
  if (circuit.size() != edges.size()) return std::nullopt;  // disconnected
  std::reverse(circuit.begin(), circuit.end());
  return circuit;
}

// A 2-factor as per-node neighbor pairs.
struct TwoFactor {
  // For each node, the bitmask of incident dimensions (exactly two bits).
  std::vector<std::uint32_t> mask;

  explicit TwoFactor(std::uint64_t n_nodes) : mask(n_nodes, 0) {}

  void add(Node lo, Dim d) {
    mask[lo] |= 1u << d;
    mask[flip_bit(lo, d)] |= 1u << d;
  }
  void remove(Node lo, Dim d) {
    mask[lo] &= ~(1u << d);
    mask[flip_bit(lo, d)] &= ~(1u << d);
  }
  bool has(Node v, Dim d) const { return (mask[v] >> d) & 1u; }
};

// Number of cycles of a 2-factor (every node must have degree exactly 2).
int count_cycles(const TwoFactor& f) {
  const std::uint64_t n = f.mask.size();
  std::vector<bool> seen(n, false);
  int cycles = 0;
  for (Node s = 0; s < n; ++s) {
    if (seen[s]) continue;
    ++cycles;
    Node prev = kNoNode;
    Node v = s;
    while (!seen[v]) {
      seen[v] = true;
      std::uint32_t m = f.mask[v];
      // Step across an incident edge that does not lead back to prev.
      Dim step = count_trailing_zeros(m);
      if (prev != kNoNode && flip_bit(v, step) == prev) {
        m &= m - 1;
        step = count_trailing_zeros(m);
      }
      prev = v;
      v = flip_bit(v, step);
    }
  }
  return cycles;
}

// Extracts the closed node sequence of a single-cycle 2-factor.
std::vector<Node> extract_cycle(const TwoFactor& f) {
  const std::uint64_t n = f.mask.size();
  std::vector<Node> seq;
  seq.reserve(n);
  Node prev = kNoNode;
  Node v = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    seq.push_back(v);
    std::uint32_t m = f.mask[v];
    Dim step = count_trailing_zeros(m);
    if (prev != kNoNode && flip_bit(v, step) == prev) {
      m &= m - 1;
      step = count_trailing_zeros(m);
    }
    prev = v;
    v = flip_bit(v, step);
  }
  return seq;
}

}  // namespace

std::optional<std::pair<std::vector<Node>, std::vector<Node>>>
split_four_regular(const CubeSubgraph& g, Rng& rng, std::uint64_t max_flips) {
  HP_PROFILE_SPAN("split_four_regular");
  const std::uint64_t n_nodes = g.num_nodes();
  for (Node v = 0; v < n_nodes; ++v) {
    HP_CHECK(g.degree(v) == 4, "split_four_regular needs a 4-regular graph");
  }
  const std::vector<UEdge> edges = collect_edges(g);
  const auto circuit = euler_undirected(g, edges);
  if (!circuit) return std::nullopt;  // disconnected remainder

  // Petersen split: orient along the Euler circuit, then 2-color oriented
  // edges so each node gets one out-edge and one in-edge of each color.
  // Because each node has out-degree 2 and in-degree 2 in the orientation,
  // the "out-slot / in-slot" bipartite multigraph is 2-regular; alternating
  // around its cycles yields the coloring.
  std::vector<std::array<std::uint32_t, 2>> out_edges(
      n_nodes, {UINT32_MAX, UINT32_MAX});
  std::vector<std::array<std::uint32_t, 2>> in_edges(
      n_nodes, {UINT32_MAX, UINT32_MAX});
  std::vector<Node> tail_of(edges.size()), head_of(edges.size());
  for (const auto& [e, dir] : *circuit) {
    const Node lo = edges[e].lo;
    const Node hi = flip_bit(lo, edges[e].d);
    const Node t = dir == 0 ? lo : hi;
    const Node h = dir == 0 ? hi : lo;
    tail_of[e] = t;
    head_of[e] = h;
    (out_edges[t][0] == UINT32_MAX ? out_edges[t][0] : out_edges[t][1]) = e;
    (in_edges[h][0] == UINT32_MAX ? in_edges[h][0] : in_edges[h][1]) = e;
  }

  std::vector<int> color(edges.size(), -1);
  for (std::uint32_t e0 = 0; e0 < edges.size(); ++e0) {
    if (color[e0] >= 0) continue;
    std::uint32_t e = e0;
    int c = 0;
    while (color[e] < 0) {
      color[e] = c;
      // At the head of e, take the *other* in-edge; it must get the other
      // color; then at that edge's tail, take the other out-edge, etc.
      const Node h = head_of[e];
      const std::uint32_t other_in =
          (in_edges[h][0] == e) ? in_edges[h][1] : in_edges[h][0];
      if (color[other_in] < 0) color[other_in] = 1 - c;
      const Node t = tail_of[other_in];
      const std::uint32_t other_out =
          (out_edges[t][0] == other_in) ? out_edges[t][1] : out_edges[t][0];
      e = other_out;
      // e keeps color c (same tail parity chain).
    }
  }

  TwoFactor f[2] = {TwoFactor(n_nodes), TwoFactor(n_nodes)};
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    f[color[e]].add(edges[e].lo, edges[e].d);
  }
  for (Node v = 0; v < n_nodes; ++v) {
    if (std::popcount(f[0].mask[v]) != 2 || std::popcount(f[1].mask[v]) != 2) {
      return std::nullopt;  // coloring failed (should not happen)
    }
  }

  int cycles[2] = {count_cycles(f[0]), count_cycles(f[1])};

  // Alternating-cycle local search.
  std::vector<std::int64_t> visit_time(2 * n_nodes, -1);
  std::int64_t epoch = 0;
  std::uint64_t flips = 0;
  while ((cycles[0] > 1 || cycles[1] > 1) && flips < max_flips) {
    ++flips;
    // Random alternating walk; state = (node, factor-to-leave-by).
    ++epoch;
    Node v = static_cast<Node>(rng.below(n_nodes));
    int fac = static_cast<int>(rng.below(2));
    std::vector<std::pair<Node, Dim>> walk;  // edge i leaves walk-node i
    std::vector<int> walk_fac;
    std::int64_t loop_start = -1;
    // Track used undirected edges per walk to keep the loop edge-simple.
    // A walk is short (expected O(sqrt states)); linear scan is fine.
    auto edge_used = [&](Node a, Dim d, int fc) {
      const Node lo = test_bit(a, d) ? flip_bit(a, d) : a;
      for (std::size_t i = 0; i < walk.size(); ++i) {
        if (walk_fac[i] != fc) continue;
        const Node wlo = test_bit(walk[i].first, walk[i].second)
                             ? flip_bit(walk[i].first, walk[i].second)
                             : walk[i].first;
        if (wlo == lo && walk[i].second == d) return true;
      }
      return false;
    };
    bool stuck = false;
    while (true) {
      const std::size_t state = 2 * v + static_cast<std::size_t>(fac);
      if (visit_time[state] == epoch) {
        // Found the loop: it spans walk entries [first occurrence, end).
        for (std::size_t i = 0; i < walk.size(); ++i) {
          if (walk[i].first == v && walk_fac[i] == fac) {
            loop_start = static_cast<std::int64_t>(i);
            break;
          }
        }
        break;
      }
      visit_time[state] = epoch;
      // Choose an unused incident edge in factor `fac`.
      std::uint32_t m = f[fac].mask[v];
      std::uint32_t options = 0;
      for (std::uint32_t mm = m; mm != 0; mm &= mm - 1) {
        const Dim d = count_trailing_zeros(mm);
        if (!edge_used(v, d, fac)) options |= 1u << d;
      }
      if (options == 0) {
        stuck = true;
        break;
      }
      const Dim d = random_set_bit(options, rng);
      walk.emplace_back(v, d);
      walk_fac.push_back(fac);
      v = flip_bit(v, d);
      fac = 1 - fac;
      if (walk.size() > 8 * n_nodes) {
        stuck = true;  // runaway walk; give up on this sample
        break;
      }
    }
    if (stuck || loop_start < 0) continue;

    // Tentatively flip the loop's edges between factors.
    auto apply = [&](bool undo) {
      for (std::size_t i = static_cast<std::size_t>(loop_start);
           i < walk.size(); ++i) {
        const auto [a, d] = walk[i];
        const Node lo = test_bit(a, d) ? flip_bit(a, d) : a;
        const int from = undo ? 1 - walk_fac[i] : walk_fac[i];
        f[from].remove(lo, d);
        f[1 - from].add(lo, d);
      }
    };
    apply(false);
    const int nc0 = count_cycles(f[0]);
    const int nc1 = count_cycles(f[1]);
    // Accept improvements and sideways moves; occasionally accept a small
    // regression to escape plateaus.
    const int old_obj = cycles[0] + cycles[1];
    const int new_obj = nc0 + nc1;
    const bool accept =
        new_obj < old_obj || (new_obj == old_obj && rng.chance(0.5)) ||
        (new_obj == old_obj + 1 && rng.chance(0.05));
    if (accept) {
      cycles[0] = nc0;
      cycles[1] = nc1;
    } else {
      apply(true);
    }
  }
  if (cycles[0] != 1 || cycles[1] != 1) return std::nullopt;
  return std::make_pair(extract_cycle(f[0]), extract_cycle(f[1]));
}

// ---------------------------------------------------------------------------
// Full even-dimension solver
// ---------------------------------------------------------------------------

HamDecomposition solve_even_decomposition(int dims, std::uint64_t seed,
                                          int max_attempts) {
  HP_PROFILE_SPAN("construct/hamdecomp_solver");
  HP_CHECK(dims >= 2 && dims % 2 == 0 && dims <= 16,
           "solver handles even dims in [2, 16]");
  if (dims == 2) {
    HamDecomposition d;
    d.dims = 2;
    d.cycles.push_back({0b00, 0b01, 0b11, 0b10});
    d.verify_or_throw();
    return d;
  }

  const std::uint64_t n_nodes = pow2(dims);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(attempt));
    CubeSubgraph g(dims, /*full=*/true);
    HamDecomposition result;
    result.dims = dims;
    bool failed = false;

    // Peel down to a 4-regular remainder.
    for (int peel = 0; peel < dims / 2 - 2; ++peel) {
      const auto cycle =
          find_hamiltonian_cycle(g, rng, /*max_steps=*/400 * n_nodes);
      if (!cycle) {
        failed = true;
        break;
      }
      for (std::size_t i = 0; i < cycle->size(); ++i) {
        const Node a = (*cycle)[i];
        const Node b = (*cycle)[(i + 1) % cycle->size()];
        g.remove_edge(a, count_trailing_zeros(a ^ b));
      }
      result.cycles.push_back(*cycle);
    }
    if (failed) continue;

    const auto pair = split_four_regular(g, rng, /*max_flips=*/400 * n_nodes);
    if (!pair) continue;
    result.cycles.push_back(pair->first);
    result.cycles.push_back(pair->second);

    try {
      result.verify_or_throw();
    } catch (const Error&) {
      continue;
    }
    return result;
  }
  throw Error("Hamiltonian decomposition solver exhausted its attempts for Q_" +
              std::to_string(dims));
}

std::string encode_cycle_transitions(const std::vector<Node>& cycle) {
  HP_CHECK(!cycle.empty(), "empty cycle");
  std::string s;
  s.reserve(cycle.size());
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const Node a = cycle[i];
    const Node b = cycle[(i + 1) % cycle.size()];
    HP_CHECK(is_pow2(a ^ b), "cycle step is not a hypercube edge");
    s.push_back(static_cast<char>('a' + count_trailing_zeros(a ^ b)));
  }
  return s;
}

}  // namespace hyperpath
