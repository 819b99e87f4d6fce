#include "embed/classical.hpp"

#include "base/bits.hpp"
#include "base/error.hpp"
#include "base/gray.hpp"
#include "hamdecomp/directed.hpp"

namespace hyperpath {

MultiPathEmbedding gray_code_cycle_embedding(int n) {
  const std::uint64_t len = pow2(n);
  MultiPathEmbedding emb(directed_cycle(static_cast<Node>(len)), n);

  std::vector<Node> eta(len);
  for (std::uint64_t j = 0; j < len; ++j) eta[j] = gray_node_at(n, j);
  emb.set_node_map(std::move(eta));

  const Digraph& g = emb.guest();
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& ge = g.edge(e);
    emb.begin_bundle(e);
    emb.add_path({emb.host_of(ge.from), emb.host_of(ge.to)});
  }
  return emb;
}

MultiPathEmbedding gray_code_grid_embedding(const GridSpec& spec) {
  // Field widths per axis.
  std::vector<int> width(spec.sides.size());
  int total = 0;
  for (std::size_t a = 0; a < spec.sides.size(); ++a) {
    HP_CHECK(is_pow2(spec.sides[a]),
             "gray_code_grid_embedding needs power-of-two sides");
    width[a] = floor_log2(spec.sides[a]);
    total += width[a];
  }
  HP_CHECK(total >= 1 && total <= 30, "grid too large for a hypercube host");

  MultiPathEmbedding emb(grid_graph(spec), total);

  // η: concatenate per-axis Gray codes, axis 0 in the most significant
  // field (matching GridSpec's row-major indexing).
  const Node n_nodes = spec.num_nodes();
  std::vector<Node> eta(n_nodes);
  for (Node v = 0; v < n_nodes; ++v) {
    const auto coords = spec.coords(v);
    Node addr = 0;
    for (std::size_t a = 0; a < coords.size(); ++a) {
      const Node g = (width[a] == 0) ? 0 : gray_node_at(width[a], coords[a]);
      addr = (addr << width[a]) | g;
    }
    eta[v] = addr;
  }
  emb.set_node_map(std::move(eta));

  const Digraph& g = emb.guest();
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& ge = g.edge(e);
    const Node a = emb.host_of(ge.from);
    const Node b = emb.host_of(ge.to);
    HP_CHECK(is_pow2(a ^ b), "gray grid neighbor images must be adjacent");
    emb.begin_bundle(e);
    emb.add_path({a, b});
  }
  return emb;
}

MultiPathEmbedding spanning_binomial_tree_embedding(int n) {
  const Node n_nodes = static_cast<Node>(pow2(n));
  DigraphBuilder b(n_nodes);
  // Parent of v: clear the highest set bit.
  for (Node v = 1; v < n_nodes; ++v) {
    const Node p = v ^ bit(floor_log2(v));
    b.add_undirected(p, v);
  }
  MultiPathEmbedding emb(std::move(b).build(), n);
  std::vector<Node> eta(n_nodes);
  for (Node v = 0; v < n_nodes; ++v) eta[v] = v;  // identity
  emb.set_node_map(std::move(eta));
  const Digraph& g = emb.guest();
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& ge = g.edge(e);
    emb.begin_bundle(e);
    emb.add_path({ge.from, ge.to});
  }
  return emb;
}

KCopyEmbedding multicopy_directed_cycles(int n) {
  const DirectedCycleFamily fam(n);
  const std::uint64_t len = pow2(n);
  KCopyEmbedding emb(directed_cycle(static_cast<Node>(len)), n,
                     fam.num_cycles());
  // Copy c maps guest node j to the j-th node of directed cycle c; each
  // guest edge (j, j+1) maps to the single hypercube edge between their
  // images (dilation 1).
  for (int c = 0; c < fam.num_cycles(); ++c) {
    emb.set_direct_copy(c, fam.sequence(c, 0));
  }
  return emb;
}

}  // namespace hyperpath
