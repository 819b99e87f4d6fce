#include "core/transform.hpp"

#include "base/bits.hpp"
#include "base/error.hpp"
#include "base/moment.hpp"
#include "graph/products.hpp"

namespace hyperpath {

MultiPathEmbedding theorem4_transform(const KCopyEmbedding& copies) {
  const int n = copies.host().dims();
  const Node big = copies.guest().num_nodes();
  HP_CHECK(n >= 1 && n <= 14, "transform host dimension out of range");
  HP_CHECK(big == static_cast<Node>(pow2(n)),
           "Theorem 4 needs a guest with exactly 2^n vertices");
  HP_CHECK(copies.num_copies() == n, "Theorem 4 needs exactly n copies");

  // Automorphisms φ_k from the copies' node maps.
  std::vector<std::vector<Node>> automorphs(n);
  for (int k = 0; k < n; ++k) {
    const auto span = copies.node_map(k);
    automorphs[k].assign(span.begin(), span.end());
  }

  const Digraph x = induced_cross_product(copies.guest(), n, automorphs);
  MultiPathEmbedding emb(x, 2 * n);

  // Vertex ⟨i, j⟩ ↦ (i << n) | j: the identity on the product structure.
  {
    std::vector<Node> eta(x.num_nodes());
    for (Node v = 0; v < x.num_nodes(); ++v) eta[v] = v;
    emb.set_node_map(std::move(eta));
  }

  // Bundles.  We re-enumerate X(G)'s edges exactly as the product was
  // built, looking each up in the digraph to write its bundle.
  const auto write_row_bundle = [&](std::size_t xe, Node i,
                                    PathView copy_path) {
    // Path lives in the low n bits; detours flip high bits n + k.
    emb.begin_bundle(xe);
    const Node row_base = i << n;
    for (int k = 0; k < n; ++k) {
      const Node detour_base = (i ^ bit(k)) << n;
      emb.begin_path();
      emb.push_node(row_base | copy_path.front());
      for (Node hop : copy_path) emb.push_node(detour_base | hop);
      emb.push_node(row_base | copy_path.back());
    }
  };
  const auto write_col_bundle = [&](std::size_t xe, Node j,
                                    PathView copy_path) {
    // Path lives in the high n bits; detours flip low bits k.
    emb.begin_bundle(xe);
    for (int k = 0; k < n; ++k) {
      const Node detour_col = j ^ bit(k);
      emb.begin_path();
      emb.push_node((copy_path.front() << n) | j);
      for (Node hop : copy_path) emb.push_node((hop << n) | detour_col);
      emb.push_node((copy_path.back() << n) | j);
    }
  };

  const Digraph& g = copies.guest();
  for (Node line = 0; line < big; ++line) {
    const int k = static_cast<int>(moment(line) % static_cast<Node>(n));
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const PathView p = copies.path(k, e);
      // Row `line`: X edge from ⟨line, p.front()⟩ to ⟨line, p.back()⟩.
      {
        const std::size_t xe = x.find_edge((line << n) | p.front(),
                                           (line << n) | p.back());
        HP_CHECK(xe != static_cast<std::size_t>(-1),
                 "row edge missing from X(G)");
        write_row_bundle(xe, line, p);
      }
      // Column `line`: X edge from ⟨p.front(), line⟩ to ⟨p.back(), line⟩.
      {
        const std::size_t xe = x.find_edge((p.front() << n) | line,
                                           (p.back() << n) | line);
        HP_CHECK(xe != static_cast<std::size_t>(-1),
                 "column edge missing from X(G)");
        write_col_bundle(xe, line, p);
      }
    }
  }

  emb.verify_or_throw(/*expected_width=*/n, /*expected_load=*/1);
  return emb;
}

KCopyEmbedding repeat_copies(const KCopyEmbedding& emb, int target) {
  HP_CHECK(emb.num_copies() >= 1, "need at least one copy to repeat");
  HP_CHECK(target >= emb.num_copies(), "target below current copy count");
  KCopyEmbedding out(emb.guest(), emb.host().dims(), target);
  for (int k = 0; k < target; ++k) {
    const int src = k % emb.num_copies();
    out.set_node_map(k, emb.node_map(src));
    for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
      out.set_path(k, e, emb.path(src, e));
    }
  }
  return out;
}

}  // namespace hyperpath
