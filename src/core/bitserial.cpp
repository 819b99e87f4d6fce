#include "core/bitserial.hpp"

#include "base/bits.hpp"
#include "base/error.hpp"
#include "base/moment.hpp"
#include "graph/builders.hpp"

namespace hyperpath {

std::vector<Node> ccc_route(int n, Node src, Node dst) {
  const LevelColumnLayout lay = ccc_layout(n);
  std::vector<Node> path{src};
  int level = lay.level_of(src);
  Node col = lay.column_of(src);
  const int dst_level = lay.level_of(dst);
  const Node dst_col = lay.column_of(dst);

  // One full sweep of the levels, correcting each column bit at its level.
  for (int step = 0; step < n; ++step) {
    if (test_bit(col ^ dst_col, level)) {
      col ^= bit(level);
      path.push_back(lay.id(level, col));  // cross edge
    }
    if (col == dst_col && level == dst_level) return path;
    level = (level + 1) % n;
    path.push_back(lay.id(level, col));  // straight edge
    if (col == dst_col && level == dst_level) return path;
  }
  // Column now correct; walk straight to the destination level.
  while (level != dst_level) {
    level = (level + 1) % n;
    path.push_back(lay.id(level, col));
  }
  return path;
}

namespace {

/// Expands a CCC path into a host path through copy `k`.
HostPath host_path_through_copy(const KCopyEmbedding& emb, int copy,
                                const std::vector<Node>& ccc_path) {
  HostPath p;
  p.reserve(ccc_path.size());
  for (Node v : ccc_path) p.push_back(emb.host_of(copy, v));
  return p;
}

/// Recovers the CCC stage count n from a guest with n·2^n vertices.
int stages_from_guest(const Digraph& g) {
  for (int n = 2; n <= 24; ++n) {
    if (static_cast<std::uint64_t>(n) * pow2(n) == g.num_nodes()) return n;
  }
  throw Error("guest is not an n-stage CCC (n·2^n vertices expected)");
}

}  // namespace

std::vector<Worm> ccc_split_worms(const KCopyEmbedding& emb,
                                  const Pattern& pattern, int total_flits) {
  const int copies = emb.num_copies();
  HP_CHECK(total_flits >= copies, "message too small to split");
  HP_CHECK(pattern.size() == emb.host().num_nodes(),
           "pattern must cover every host node");

  const int stages = stages_from_guest(emb.guest());
  // Inverse node maps per copy.
  std::vector<std::vector<Node>> inv(copies);
  for (int k = 0; k < copies; ++k) {
    inv[k].assign(emb.host().num_nodes(), kNoNode);
    for (Node v = 0; v < emb.guest().num_nodes(); ++v) {
      inv[k][emb.host_of(k, v)] = v;
    }
  }

  const int piece = (total_flits + copies - 1) / copies;
  std::vector<Worm> worms;
  worms.reserve(pattern.size() * static_cast<std::size_t>(copies));
  for (Node v = 0; v < pattern.size(); ++v) {
    if (pattern[v] == v) continue;
    for (int k = 0; k < copies; ++k) {
      const Node s = inv[k][v];
      const Node d = inv[k][pattern[v]];
      HP_CHECK(s != kNoNode && d != kNoNode, "host node missing from copy");
      Worm w;
      w.route = host_path_through_copy(emb, k, ccc_route(stages, s, d));
      w.flits = piece;
      worms.push_back(std::move(w));
    }
  }
  return worms;
}

std::vector<Worm> ecube_worms(int dims, const Pattern& pattern,
                              int total_flits) {
  const Hypercube q(dims);
  HP_CHECK(pattern.size() == q.num_nodes(), "pattern size mismatch");
  std::vector<Worm> worms;
  worms.reserve(pattern.size());
  for (Node v = 0; v < pattern.size(); ++v) {
    if (pattern[v] == v) continue;
    Worm w;
    w.route = ecube_route(q, v, pattern[v]);
    w.flits = total_flits;
    worms.push_back(std::move(w));
  }
  return worms;
}

std::vector<Node> butterfly_route(int m, Node src, Node dst) {
  const LevelColumnLayout lay = butterfly_layout(m);
  std::vector<Node> path{src};
  int level = lay.level_of(src);
  Node col = lay.column_of(src);
  const int dst_level = lay.level_of(dst);
  const Node dst_col = lay.column_of(dst);

  // One sweep over the levels; at level ℓ the cross edge flips column bit ℓ
  // while advancing a level, the straight edge just advances.
  for (int step = 0; step < m; ++step) {
    if (col == dst_col && level == dst_level) return path;
    if (test_bit(col ^ dst_col, level)) col ^= bit(level);
    level = (level + 1) % m;
    path.push_back(lay.id(level, col));
  }
  while (level != dst_level) {
    level = (level + 1) % m;
    path.push_back(lay.id(level, col));
  }
  return path;
}

std::vector<Node> x_two_phase_route(int m, const KCopyEmbedding& copies,
                                    Node src, Node dst) {
  const int n = copies.host().dims();
  const Node big = static_cast<Node>(pow2(n));
  const Node i1 = src / big, j1 = src % big;
  const Node i2 = dst / big, j2 = dst % big;

  // φ and φ^{-1} for the two copies involved.
  const auto copy_of = [&](Node line) {
    return static_cast<int>(moment(line) % static_cast<Node>(n));
  };
  const auto inv_of = [&](int c, Node pos) {
    for (Node w = 0; w < big; ++w) {
      if (copies.host_of(c, w) == pos) return w;
    }
    throw Error("position missing from copy");
  };

  std::vector<Node> path{src};
  // Phase 1: row i1, butterfly copy M(i1), from position j1 to j2.
  if (j1 != j2) {
    const int c = copy_of(i1);
    const auto r = butterfly_route(m, inv_of(c, j1), inv_of(c, j2));
    for (std::size_t t = 1; t < r.size(); ++t) {
      path.push_back(i1 * big + copies.host_of(c, r[t]));
    }
  }
  // Phase 2: column j2, butterfly copy M(j2), from row-coordinate i1 to i2.
  if (i1 != i2) {
    const int c = copy_of(j2);
    const auto r = butterfly_route(m, inv_of(c, i1), inv_of(c, i2));
    for (std::size_t t = 1; t < r.size(); ++t) {
      path.push_back(copies.host_of(c, r[t]) * big + j2);
    }
  }
  return path;
}

std::vector<Worm> x_two_phase_worms(int m, const MultiPathEmbedding& x,
                                    const KCopyEmbedding& copies,
                                    const Pattern& pattern, int total_flits) {
  const int n = copies.host().dims();
  HP_CHECK(pattern.size() == x.guest().num_nodes(),
           "pattern must cover every X vertex");
  HP_CHECK(total_flits >= n, "message too small to split n ways");
  const int piece = (total_flits + n - 1) / n;

  std::vector<Worm> worms;
  for (Node v = 0; v < pattern.size(); ++v) {
    if (pattern[v] == v) continue;
    const auto xroute = x_two_phase_route(m, copies, v, pattern[v]);
    // Piece k expands each X hop through bundle path k.
    for (int k = 0; k < n; ++k) {
      HostPath host{x.host_of(xroute.front())};
      for (std::size_t t = 0; t + 1 < xroute.size(); ++t) {
        const std::size_t xe = x.guest().find_edge(xroute[t], xroute[t + 1]);
        HP_CHECK(xe != static_cast<std::size_t>(-1),
                 "two-phase route leaves X(butterfly)");
        const auto bundle = x.paths(xe);
        const PathView seg = bundle[static_cast<std::size_t>(k) %
                                    bundle.size()];
        HP_CHECK(seg.front() == host.back(), "route discontinuity");
        host.insert(host.end(), seg.begin() + 1, seg.end());
      }
      Worm w;
      w.route = erase_loops(host);
      w.flits = piece;
      worms.push_back(std::move(w));
    }
  }
  return worms;
}

std::vector<Worm> ccc_single_copy_worms(const KCopyEmbedding& emb, int copy,
                                        const Pattern& pattern,
                                        int total_flits) {
  HP_CHECK(copy >= 0 && copy < emb.num_copies(), "copy index out of range");
  const int stages = stages_from_guest(emb.guest());
  std::vector<Node> inv(emb.host().num_nodes(), kNoNode);
  for (Node v = 0; v < emb.guest().num_nodes(); ++v) {
    inv[emb.host_of(copy, v)] = v;
  }
  std::vector<Worm> worms;
  for (Node v = 0; v < pattern.size(); ++v) {
    if (pattern[v] == v) continue;
    Worm w;
    w.route = host_path_through_copy(emb, copy,
                                     ccc_route(stages, inv[v], inv[pattern[v]]));
    w.flits = total_flits;
    worms.push_back(std::move(w));
  }
  return worms;
}

}  // namespace hyperpath
