#include "graph/builders.hpp"

#include "base/bits.hpp"
#include "base/error.hpp"

namespace hyperpath {

Digraph directed_cycle(Node len) {
  HP_CHECK(len >= 2, "cycle needs >= 2 nodes");
  DigraphBuilder b(len);
  for (Node v = 0; v < len; ++v) b.add_edge(v, (v + 1) % len);
  return std::move(b).build();
}

Digraph symmetric_cycle(Node len) {
  HP_CHECK(len >= 3, "symmetric cycle needs >= 3 nodes");
  DigraphBuilder b(len);
  for (Node v = 0; v < len; ++v) b.add_undirected(v, (v + 1) % len);
  return std::move(b).build();
}

Digraph directed_path(Node len) {
  HP_CHECK(len >= 1, "path needs >= 1 node");
  DigraphBuilder b(len);
  for (Node v = 0; v + 1 < len; ++v) b.add_edge(v, v + 1);
  return std::move(b).build();
}

Digraph symmetric_path(Node len) {
  HP_CHECK(len >= 1, "path needs >= 1 node");
  DigraphBuilder b(len);
  for (Node v = 0; v + 1 < len; ++v) b.add_undirected(v, v + 1);
  return std::move(b).build();
}

// ---------------------------------------------------------------------------
// Grids
// ---------------------------------------------------------------------------

Node GridSpec::num_nodes() const {
  std::uint64_t n = 1;
  for (Node s : sides) {
    HP_CHECK(s >= 1, "grid side must be >= 1");
    n *= s;
    HP_CHECK(n <= (1u << 30), "grid too large");
  }
  return static_cast<Node>(n);
}

Node GridSpec::index(std::span<const Node> c) const {
  HP_CHECK(c.size() == sides.size(), "coordinate arity mismatch");
  std::uint64_t idx = 0;
  for (std::size_t a = 0; a < sides.size(); ++a) {
    HP_CHECK(c[a] < sides[a], "coordinate out of range");
    idx = idx * sides[a] + c[a];
  }
  return static_cast<Node>(idx);
}

std::vector<Node> GridSpec::coords(Node v) const {
  std::vector<Node> c(sides.size());
  coords(v, c);
  return c;
}

void GridSpec::coords(Node v, std::span<Node> out) const {
  HP_CHECK(out.size() >= sides.size(), "coordinate buffer too small");
  for (std::size_t a = sides.size(); a-- > 0;) {
    out[a] = v % sides[a];
    v /= sides[a];
  }
}

namespace {

Digraph grid_graph_impl(const GridSpec& spec, bool symmetric) {
  const Node n = spec.num_nodes();
  DigraphBuilder b(n);
  for (Node v = 0; v < n; ++v) {
    std::vector<Node> c = spec.coords(v);
    for (std::size_t a = 0; a < spec.sides.size(); ++a) {
      const Node side = spec.sides[a];
      if (side < 2) continue;
      // Add only the "+1" neighbor in each axis (plus the reverse when
      // symmetric); skip the wrap edge for 2-cycles which would duplicate.
      if (c[a] + 1 < side) {
        std::vector<Node> d = c;
        d[a] = c[a] + 1;
        if (symmetric) {
          b.add_undirected(v, spec.index(d));
        } else {
          b.add_edge(v, spec.index(d));
        }
      } else if (spec.wrap && side > 2) {
        std::vector<Node> d = c;
        d[a] = 0;
        if (symmetric) {
          b.add_undirected(v, spec.index(d));
        } else {
          b.add_edge(v, spec.index(d));
        }
      }
    }
  }
  return std::move(b).build();
}

}  // namespace

Digraph grid_graph(const GridSpec& spec) {
  return grid_graph_impl(spec, /*symmetric=*/true);
}

Digraph grid_graph_directed(const GridSpec& spec) {
  return grid_graph_impl(spec, /*symmetric=*/false);
}

// ---------------------------------------------------------------------------
// Trees
// ---------------------------------------------------------------------------

Digraph complete_binary_tree(int levels) {
  HP_CHECK(levels >= 1 && levels <= 28, "CBT levels out of range");
  const Node n = static_cast<Node>(pow2(levels) - 1);
  DigraphBuilder b(n);
  for (Node v = 0; v < n; ++v) {
    const Node left = 2 * v + 1;
    const Node right = 2 * v + 2;
    if (left < n) b.add_undirected(v, left);
    if (right < n) b.add_undirected(v, right);
  }
  return std::move(b).build();
}

Digraph random_binary_tree(Node num_nodes, Rng& rng,
                           std::vector<Node>* parent_out) {
  HP_CHECK(num_nodes >= 1, "tree needs >= 1 node");
  // Grow the tree by attaching each new node to a uniformly random node
  // that still has a free child slot (< 2 children).  This produces varied
  // shapes from paths to bushy trees; uniformity over shapes is not needed,
  // coverage of shapes is.
  std::vector<Node> parent(num_nodes, kNoNode);
  std::vector<int> child_count(num_nodes, 0);
  std::vector<Node> open{0};  // nodes with < 2 children
  DigraphBuilder b(num_nodes);
  for (Node v = 1; v < num_nodes; ++v) {
    const std::size_t pick = static_cast<std::size_t>(rng.below(open.size()));
    const Node p = open[pick];
    parent[v] = p;
    b.add_undirected(p, v);
    if (++child_count[p] == 2) {
      open[pick] = open.back();
      open.pop_back();
    }
    open.push_back(v);
  }
  if (parent_out) *parent_out = std::move(parent);
  return std::move(b).build();
}

// ---------------------------------------------------------------------------
// CCC / butterfly / FFT
// ---------------------------------------------------------------------------

Node LevelColumnLayout::num_nodes() const {
  return static_cast<Node>(static_cast<std::uint64_t>(levels) *
                           pow2(cube_dims));
}

Node LevelColumnLayout::id(int level, Node column) const {
  HP_CHECK(level >= 0 && level < levels, "level out of range");
  HP_CHECK(column < pow2(cube_dims), "column out of range");
  return static_cast<Node>(static_cast<std::uint64_t>(level) *
                               pow2(cube_dims) +
                           column);
}

int LevelColumnLayout::level_of(Node v) const {
  return static_cast<int>(v / pow2(cube_dims));
}

Node LevelColumnLayout::column_of(Node v) const {
  return static_cast<Node>(v % pow2(cube_dims));
}

LevelColumnLayout ccc_layout(int n) {
  HP_CHECK(n >= 1 && n <= 24, "CCC order out of range");
  return LevelColumnLayout{n, n};
}

LevelColumnLayout butterfly_layout(int n) { return ccc_layout(n); }

LevelColumnLayout fft_layout(int n) {
  HP_CHECK(n >= 1 && n <= 24, "FFT order out of range");
  return LevelColumnLayout{n + 1, n};
}

Digraph ccc_directed(int n) {
  HP_CHECK(n >= 2, "directed CCC needs n >= 2 (n = 1 degenerates)");
  const LevelColumnLayout lay = ccc_layout(n);
  DigraphBuilder b(lay.num_nodes());
  const Node cols = static_cast<Node>(pow2(n));
  for (int l = 0; l < n; ++l) {
    for (Node c = 0; c < cols; ++c) {
      b.add_edge(lay.id(l, c), lay.id((l + 1) % n, c));  // straight
      // Cross edges come in oppositely oriented pairs; each direction is
      // added from its own tail, so both orientations appear exactly once.
      b.add_edge(lay.id(l, c), lay.id(l, c ^ bit(l)));
    }
  }
  return std::move(b).build();
}

Digraph ccc_symmetric(int n) {
  // n >= 3 so that the length-n column cycles are simple (n = 2 would make
  // the down-straight edge coincide with the next level's up-straight edge).
  HP_CHECK(n >= 3, "symmetric CCC needs n >= 3");
  const LevelColumnLayout lay = ccc_layout(n);
  DigraphBuilder b(lay.num_nodes());
  const Node cols = static_cast<Node>(pow2(n));
  for (int l = 0; l < n; ++l) {
    for (Node c = 0; c < cols; ++c) {
      b.add_edge(lay.id(l, c), lay.id((l + 1) % n, c));
      b.add_edge(lay.id((l + 1) % n, c), lay.id(l, c));
      b.add_edge(lay.id(l, c), lay.id(l, c ^ bit(l)));
    }
  }
  return std::move(b).build();
}

Digraph butterfly_directed(int n) {
  HP_CHECK(n >= 2, "directed butterfly needs n >= 2");
  const LevelColumnLayout lay = butterfly_layout(n);
  DigraphBuilder b(lay.num_nodes());
  const Node cols = static_cast<Node>(pow2(n));
  for (int l = 0; l < n; ++l) {
    for (Node c = 0; c < cols; ++c) {
      const int l1 = (l + 1) % n;
      b.add_edge(lay.id(l, c), lay.id(l1, c));
      b.add_edge(lay.id(l, c), lay.id(l1, c ^ bit(l)));
    }
  }
  return std::move(b).build();
}

Digraph butterfly_symmetric(int n) {
  HP_CHECK(n >= 3, "symmetric butterfly needs n >= 3");
  const LevelColumnLayout lay = butterfly_layout(n);
  DigraphBuilder b(lay.num_nodes());
  const Node cols = static_cast<Node>(pow2(n));
  for (int l = 0; l < n; ++l) {
    for (Node c = 0; c < cols; ++c) {
      const int l1 = (l + 1) % n;
      b.add_undirected(lay.id(l, c), lay.id(l1, c));
      b.add_undirected(lay.id(l, c), lay.id(l1, c ^ bit(l)));
    }
  }
  return std::move(b).build();
}

Digraph fft_directed(int n) {
  const LevelColumnLayout lay = fft_layout(n);
  DigraphBuilder b(lay.num_nodes());
  const Node cols = static_cast<Node>(pow2(n));
  for (int l = 0; l < n; ++l) {
    for (Node c = 0; c < cols; ++c) {
      b.add_edge(lay.id(l, c), lay.id(l + 1, c));
      b.add_edge(lay.id(l, c), lay.id(l + 1, c ^ bit(l)));
    }
  }
  return std::move(b).build();
}

}  // namespace hyperpath
