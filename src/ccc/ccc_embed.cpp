#include "ccc/ccc_embed.hpp"

#include <functional>
#include <set>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "base/gray.hpp"
#include "obs/profile.hpp"

namespace hyperpath {

Node CccEmbedSpec::map_vertex(int level, Node column) const {
  Node v = 0;
  v = apply_signature(v, w, ham[level]);
  v = apply_signature(v, wbar, column);
  return v;
}

void CccEmbedSpec::verify_or_throw() const {
  HP_CHECK(n >= 2 && is_pow2(static_cast<std::uint64_t>(n)),
           "spec requires n a power of two");
  HP_CHECK(r == floor_log2(static_cast<std::uint64_t>(n)), "r != log2(n)");
  HP_CHECK(static_cast<int>(w.size()) == r, "W must have length r");
  HP_CHECK(static_cast<int>(wbar.size()) == n, "W̄ must have length n");
  HP_CHECK(windows_disjoint(w, wbar), "windows overlap");
  std::set<Dim> all(w.begin(), w.end());
  all.insert(wbar.begin(), wbar.end());
  HP_CHECK(static_cast<int>(all.size()) == n + r, "windows repeat dimensions");
  for (Dim d : all) {
    HP_CHECK(d >= 0 && d < n + r, "window dimension out of range");
  }
  HP_CHECK(static_cast<int>(ham.size()) == n, "H must list n signatures");
  for (int l = 0; l < n; ++l) {
    HP_CHECK(ham[l] < pow2(r), "signature wider than r bits");
    const Node next = ham[(l + 1) % n];
    // Signatures are stored with window position i in bit i, and the paper
    // indexes Gray-code bits MSB-first (bit 0 = the bit used only twice),
    // so the level-ℓ straight edge flips signature position
    // r − 1 − G_r(ℓ) in our LSB-indexed transition sequence.
    HP_CHECK((ham[l] ^ next) == bit(r - 1 - gray_transition_at(r, l)),
             "H is not the Gray walk: consecutive signatures must differ in "
             "the window position paired with Gray bit G_r(ℓ)");
  }
}

CccEmbedSpec ccc_single_spec(int n) {
  HP_CHECK(n >= 2 && is_pow2(static_cast<std::uint64_t>(n)),
           "CCC embeddings implemented for n a power of two");
  CccEmbedSpec s;
  s.n = n;
  s.r = floor_log2(static_cast<std::uint64_t>(n));
  for (int i = 0; i < s.r; ++i) s.w.push_back(n + i);
  for (int l = 0; l < n; ++l) s.wbar.push_back(l);
  // Window position i carries paper Gray bit i (MSB-first), i.e. bit
  // r−1−i of our LSB-indexed Gray value.
  for (int l = 0; l < n; ++l) {
    s.ham.push_back(bit_reverse(gray_node_at(s.r, l), s.r));
  }
  s.verify_or_throw();
  return s;
}

CccEmbedSpec ccc_multicopy_spec(int n, int k) {
  HP_CHECK(n >= 2 && is_pow2(static_cast<std::uint64_t>(n)),
           "Theorem 3 implemented for n a power of two");
  HP_CHECK(k >= 0 && k < n, "copy index out of range");
  CccEmbedSpec s;
  s.n = n;
  s.r = floor_log2(static_cast<std::uint64_t>(n));

  // W^k(0) = 1; W^k(i) = 2^i + ρ_i(k).
  s.w.push_back(1);
  for (int i = 1; i < s.r; ++i) {
    s.w.push_back(static_cast<Dim>(pow2(i) +
                                   prefix_bits(static_cast<Node>(k), i, s.r)));
  }

  // W̄^k(ℓ) = ℓ if ℓ ∉ W^k else n + ⌊log ℓ⌋.
  for (int l = 0; l < n; ++l) {
    bool in_w = false;
    for (Dim d : s.w) in_w |= (d == l);
    if (!in_w) {
      s.wbar.push_back(l);
    } else {
      s.wbar.push_back(n + floor_log2(static_cast<std::uint64_t>(l)));
    }
  }

  // H^k(ℓ) = H_r(ℓ) ⊕ b(k), stored with paper bit i (MSB-first) at window
  // position i: ham[ℓ] = reverse_r(H_r(ℓ) ⊕ k).
  for (int l = 0; l < n; ++l) {
    s.ham.push_back(
        bit_reverse(gray_node_at(s.r, l) ^ static_cast<Node>(k), s.r));
  }
  s.verify_or_throw();
  return s;
}

void set_spec_copy(KCopyEmbedding& emb, int copy, const LevelColumnLayout& lay,
                   const CccEmbedSpec& spec) {
  std::vector<Node> eta(emb.guest().num_nodes());
  for (Node v = 0; v < eta.size(); ++v) {
    eta[v] = spec.map_vertex(lay.level_of(v), lay.column_of(v));
  }
  emb.set_direct_copy(copy, eta);
}

KCopyEmbedding ccc_single_embedding(int n) {
  const CccEmbedSpec spec = ccc_single_spec(n);
  const LevelColumnLayout lay = ccc_layout(n);
  KCopyEmbedding emb(ccc_directed(n), n + spec.r, 1);
  set_spec_copy(emb, 0, lay, spec);
  return emb;
}

namespace {

/// Finds a cyclic sequence of n distinct nodes of Q_r with consecutive
/// Hamming distance 1, except that for odd n the closing step has distance
/// 2 (bipartiteness forbids odd cycles).  Deterministic DFS; r ≤ 6 keeps
/// the search trivial.
std::vector<Node> signature_cycle(int n, int r) {
  HP_CHECK(n >= 3 && r >= 1 && r <= 6, "signature cycle out of range");
  HP_CHECK(static_cast<std::uint64_t>(n) <= pow2(r), "cycle longer than Q_r");
  const int close_dist = (n % 2 == 0) ? 1 : 2;
  std::vector<Node> seq{0};
  std::vector<bool> used(pow2(r), false);
  used[0] = true;

  std::function<bool()> dfs = [&]() -> bool {
    if (static_cast<int>(seq.size()) == n) {
      return popcount(seq.back() ^ seq.front()) == close_dist;
    }
    for (Dim d = 0; d < r; ++d) {
      const Node next = flip_bit(seq.back(), d);
      if (used[next]) continue;
      used[next] = true;
      seq.push_back(next);
      if (dfs()) return true;
      seq.pop_back();
      used[next] = false;
    }
    return false;
  };
  HP_CHECK(dfs(), "no signature cycle of the requested length exists");
  return seq;
}

}  // namespace

KCopyEmbedding ccc_single_embedding_general(int n) {
  HP_PROFILE_SPAN("construct/ccc_single_general");
  HP_CHECK(n >= 3 && n <= 20, "general Lemma 4 supports n in [3, 20]");
  const int r = ceil_log2(static_cast<std::uint64_t>(n));
  const std::vector<Node> ham = signature_cycle(n, r);

  // Windows as in the canonical spec: W = (n..n+r−1), W̄ = (0..n−1).
  Window w, wbar;
  for (int i = 0; i < r; ++i) w.push_back(n + i);
  for (int l = 0; l < n; ++l) wbar.push_back(l);

  const LevelColumnLayout lay = ccc_layout(n);
  KCopyEmbedding emb(ccc_directed(n), n + r, 1);

  std::vector<Node> eta(emb.guest().num_nodes());
  for (Node v = 0; v < eta.size(); ++v) {
    Node addr = 0;
    addr = apply_signature(addr, w, ham[lay.level_of(v)]);
    addr = apply_signature(addr, wbar, lay.column_of(v));
    eta[v] = addr;
  }

  emb.set_node_map(0, eta);
  for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
    const Edge& ge = emb.guest().edge(e);
    const Node a = eta[ge.from];
    const Node b = eta[ge.to];
    const int dist = popcount(a ^ b);
    if (dist == 1) {
      emb.set_path(0, e, {a, b});
    } else {
      // The odd-n seam (level n−1 → 0 straight edges): route through the
      // signature that flips the lower-indexed differing window bit first.
      HP_CHECK(dist == 2, "unexpected long edge");
      const Dim d = count_trailing_zeros(a ^ b);
      emb.set_path(0, e, {a, flip_bit(a, d), b});
    }
  }
  emb.verify_or_throw();
  return emb;
}

KCopyEmbedding ccc_multicopy_embedding(int n) {
  HP_PROFILE_SPAN("construct/ccc_multicopy");
  const LevelColumnLayout lay = ccc_layout(n);
  const int r = floor_log2(static_cast<std::uint64_t>(n));
  KCopyEmbedding emb(ccc_directed(n), n + r, n);
  for (int k = 0; k < n; ++k) {
    set_spec_copy(emb, k, lay, ccc_multicopy_spec(n, k));
  }
  return emb;
}

KCopyEmbedding ccc_multicopy_embedding_undirected(int n) {
  HP_PROFILE_SPAN("construct/ccc_multicopy_undirected");
  HP_CHECK(n >= 3, "undirected CCC needs n >= 3");
  const LevelColumnLayout lay = ccc_layout(n);
  const int r = floor_log2(static_cast<std::uint64_t>(n));
  KCopyEmbedding emb(ccc_symmetric(n), n + r, n);
  for (int k = 0; k < n; ++k) {
    set_spec_copy(emb, k, lay, ccc_multicopy_spec(n, k));
  }
  return emb;
}

GraphEmbedding to_graph_embedding(const KCopyEmbedding& emb, int copy) {
  HP_CHECK(copy >= 0 && copy < emb.num_copies(), "copy index out of range");
  GraphEmbedding out(emb.guest(), emb.host().to_digraph());
  const std::span<const Node> eta = emb.node_map(copy);
  out.set_node_map({eta.begin(), eta.end()});
  for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
    out.set_path(e, emb.path(copy, e));
  }
  return out;
}

}  // namespace hyperpath
