#include "core/tree_multipath.hpp"

#include "base/bits.hpp"
#include "base/error.hpp"
#include "base/moment.hpp"
#include "ccc/ccc_embed.hpp"
#include "ccc/netmaps.hpp"
#include "core/transform.hpp"
#include "graph/builders.hpp"
#include "obs/profile.hpp"

namespace hyperpath {

KCopyEmbedding butterfly_multicopy_embedding(int m) {
  HP_PROFILE_SPAN("construct/butterfly_multicopy");
  // Symmetric networks throughout so trees can route both edge directions;
  // the symmetric CCC needs m >= 3 (and powers of two for the windows).
  HP_CHECK(m >= 4 && is_pow2(static_cast<std::uint64_t>(m)),
           "butterfly multicopy needs m a power of two, m >= 4");
  const int r = floor_log2(static_cast<std::uint64_t>(m));
  const KCopyEmbedding ccc = ccc_multicopy_embedding_undirected(m);
  const GraphEmbedding bfly = butterfly_into_ccc_symmetric(m);

  // Compose, copy by copy: butterfly vertex → CCC vertex (identity) →
  // hypercube node; butterfly edge → CCC path (≤ 2 hops) → hypercube path
  // (same length, every CCC edge maps to a single hypercube edge in copy k).
  KCopyEmbedding out(bfly.guest(), m + r, m);
  std::vector<Node> eta(bfly.guest().num_nodes());
  HostPath p;
  for (int k = 0; k < m; ++k) {
    for (Node v = 0; v < eta.size(); ++v) {
      eta[v] = ccc.host_of(k, bfly.host_of(v));
    }
    out.set_node_map(k, eta);
    for (std::size_t e = 0; e < bfly.guest().num_edges(); ++e) {
      p.clear();
      for (Node cv : bfly.path(e)) p.push_back(ccc.host_of(k, cv));
      out.set_path(k, e, p);
    }
  }
  return out;
}

GraphEmbedding cbt_into_x_butterfly(int m, const Digraph& xguest,
                                    const KCopyEmbedding& copies) {
  const int n = copies.host().dims();
  const Node big = static_cast<Node>(pow2(n));
  HP_CHECK(copies.guest().num_nodes() == big, "copies must fill Q_n");
  const LevelColumnLayout lay = butterfly_layout(m);

  // φ_k and φ_k^{-1}.
  std::vector<std::vector<Node>> phi(n), phi_inv(n);
  for (int k = 0; k < n; ++k) {
    const auto span = copies.node_map(k);
    phi[k].assign(span.begin(), span.end());
    phi_inv[k].assign(big, kNoNode);
    for (Node v = 0; v < big; ++v) phi_inv[k][phi[k][v]] = v;
  }
  const auto copy_of = [&](Node line) {
    return static_cast<int>(moment(line) % static_cast<Node>(n));
  };

  // Natural CBT subtree of a butterfly rooted at ⟨l0, c0⟩: subtree node at
  // depth d, offset o sits at level (l0+d) mod m, column c0 ⊕ Σ p_t·2^{(l0+t)
  // mod m} with p_t = bit (d−1−t) of o (first descent = most significant).
  const auto subtree_vertex = [&](int l0, Node c0, int d, Node o) {
    Node col = c0;
    for (int t = 0; t < d; ++t) {
      if (test_bit(o, d - 1 - t)) col ^= bit((l0 + t) % m);
    }
    return lay.id((l0 + d) % m, col);
  };

  const int levels = 2 * m;
  GraphEmbedding emb(complete_binary_tree(levels), xguest);
  const Node n_tree = emb.guest().num_nodes();

  // η, by depth bands.
  std::vector<Node> eta(n_tree, kNoNode);
  const auto x_id = [&](Node row, Node pos) { return row * big + pos; };
  for (Node t = 0; t < n_tree; ++t) {
    const int d = floor_log2(static_cast<std::uint64_t>(t) + 1);
    const Node o = t + 1 - static_cast<Node>(pow2(d));
    if (d <= m - 1) {
      // Row tree: row 0 carries copy M(0) = 0.
      const Node w = subtree_vertex(0, 0, d, o);
      eta[t] = x_id(0, phi[copy_of(0)][w]);
    } else if (d <= 2 * m - 2) {
      // Column trees: ancestor leaf at depth m−1 selects the column.
      const int dd = d - (m - 1);                 // depth within column tree
      const Node o_leaf = o >> dd;
      const Node oo = o & static_cast<Node>(pow2(dd) - 1);
      const Node j =
          phi[copy_of(0)][subtree_vertex(0, 0, m - 1, o_leaf)];  // column
      const int c = copy_of(j);
      const Node w_root = phi_inv[c][0];  // column position 0 = the leaf
      const Node w =
          subtree_vertex(lay.level_of(w_root), lay.column_of(w_root), dd, oo);
      eta[t] = x_id(phi[c][w], j);
    } else {
      // Final level: children across the parent's *row* butterfly.
      const Node parent = (t - 1) / 2;
      HP_CHECK(eta[parent] != kNoNode, "parent not yet placed");
      const Node i_row = eta[parent] / big;
      const Node j_pos = eta[parent] % big;
      const int c = copy_of(i_row);
      const Node u = phi_inv[c][j_pos];
      const int lu = lay.level_of(u);
      const Node cu = lay.column_of(u);
      const Node child = test_bit(o, 0)
                             ? lay.id((lu + 1) % m, cu ^ bit(lu))  // cross
                             : lay.id((lu + 1) % m, cu);           // straight
      eta[t] = x_id(i_row, phi[c][child]);
    }
  }
  emb.set_node_map(std::move(eta));

  // Every CBT edge is a single X edge by construction.
  for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
    const Edge& ge = emb.guest().edge(e);
    emb.set_path(e, {emb.host_of(ge.from), emb.host_of(ge.to)});
  }
  emb.verify_or_throw(/*max_dilation=*/1);
  return emb;
}

MultiPathEmbedding theorem5_cbt_embedding(int m) {
  HP_PROFILE_SPAN("construct/theorem5_cbt");
  const int r = floor_log2(static_cast<std::uint64_t>(m));
  const int n = m + r;
  const KCopyEmbedding copies =
      repeat_copies(butterfly_multicopy_embedding(m), n);
  const MultiPathEmbedding x = theorem4_transform(copies);
  GraphEmbedding cbt = [&] {
    HP_PROFILE_SPAN("cbt_into_x");
    return cbt_into_x_butterfly(m, x.guest(), copies);
  }();
  HP_PROFILE_SPAN("compose");
  return compose_multipath(x, cbt);
}

MultiPathEmbedding arbitrary_tree_multipath(const Digraph& tree,
                                            const std::vector<Node>& parent,
                                            int m) {
  HP_PROFILE_SPAN("construct/arbitrary_tree");
  const MultiPathEmbedding cbt_mp = theorem5_cbt_embedding(m);
  const GraphEmbedding t2c = tree_into_cbt(tree, parent, 2 * m);
  // Compose tree → CBT → Q: expand each CBT hop of the tree paths through
  // the CBT multipath bundles.
  GraphEmbedding inner(tree, cbt_mp.guest());
  {
    std::vector<Node> eta(tree.num_nodes());
    for (Node v = 0; v < tree.num_nodes(); ++v) eta[v] = t2c.host_of(v);
    inner.set_node_map(std::move(eta));
    for (std::size_t e = 0; e < tree.num_edges(); ++e) {
      inner.set_path(e, t2c.path(e));
    }
  }
  return compose_multipath(cbt_mp, inner);
}

}  // namespace hyperpath
