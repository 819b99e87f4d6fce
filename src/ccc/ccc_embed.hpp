// CCC → hypercube embeddings (Section 5).
//
// An embedding of the n-stage CCC into Q_{n+r} (r = log n) is specified —
// as in the abstract setting of §5.2 — by a length-r window W, a disjoint
// length-n window W̄, and a Hamiltonian signature cycle H over the r window
// bits:
//
//     vertex ⟨ℓ, c⟩  ↦  the node with signature H(ℓ) on W and c on W̄.
//
// Level-ℓ straight edges then map to dimension W(G_r(ℓ)) and level-ℓ cross
// edges to dimension W̄(ℓ) — dilation 1 throughout (we implement the case
// n = 2^r, the paper's own standing assumption in §5.3).
//
// Theorem 3 chooses n copies that jointly have edge-congestion 2:
//
//     W^k(0) = 1,   W^k(i) = 2^i + ρ_i(k)                (overlapping windows)
//     W̄^k(ℓ) = ℓ if ℓ ∉ W^k, else n + ⌊log ℓ⌋
//     H^k(ℓ) = H_r(ℓ) ⊕ b(k)
//
// Every hypercube edge is the image of at most one cross-edge (Lemmas 5–6)
// and at most one straight-edge — except dimension 1, which carries no
// cross-edges and at most two straight-edges (Lemma 8).
#pragma once

#include "ccc/windows.hpp"
#include "embed/embedding.hpp"
#include "embed/graph_embedding.hpp"
#include "graph/builders.hpp"

namespace hyperpath {

/// The data specifying one CCC copy embedding (§5.2).
struct CccEmbedSpec {
  int n = 0;  // CCC stages; must be a power of two here
  int r = 0;  // log2(n)
  Window w;               // length r: straight-edge dimensions
  Window wbar;            // length n: cross-edge dimensions
  std::vector<Node> ham;  // ham[ℓ] = signature on w of level ℓ (length n)

  /// Host address of CCC vertex ⟨level, column⟩.
  Node map_vertex(int level, Node column) const;

  /// Checks the spec is well-formed: windows disjoint and jointly covering
  /// n + r distinct dimensions, and ham a closed Gray walk (consecutive
  /// signatures differ in exactly bit G_r(ℓ)).
  void verify_or_throw() const;
};

/// The canonical single-copy spec (Lemma 4 shape): W = (n, n+1, …, n+r−1),
/// W̄ = (0, …, n−1), H = the reflected Gray cycle H_r.
CccEmbedSpec ccc_single_spec(int n);

/// Theorem 3's spec for copy k (0 ≤ k < n).
CccEmbedSpec ccc_multicopy_spec(int n, int k);

/// Writes `spec`'s dilation-1 map of emb.guest() (a CCC laid out by `lay`)
/// as copy `copy` of `emb`.
void set_spec_copy(KCopyEmbedding& emb, int copy, const LevelColumnLayout& lay,
                   const CccEmbedSpec& spec);

/// Lemma 4: the n-stage directed CCC in Q_{n+log n}, dilation 1 (n = 2^r).
KCopyEmbedding ccc_single_embedding(int n);

/// Lemma 4 for general n ≥ 3: the n-stage directed CCC in Q_{n+⌈log n⌉}
/// with dilation 1 when n is even and dilation 2 when n is odd (the paper's
/// exact claim).  The signature cycle over the ⌈log n⌉ window bits is a
/// length-n cycle of Q_r found by search (even n), or a near-cycle whose
/// single distance-2 seam gives the odd case its one dilation-2 level
/// (odd closed walks cannot exist in a bipartite cube).
KCopyEmbedding ccc_single_embedding_general(int n);

/// Theorem 3: n copies of the n-stage directed CCC in Q_{n+log n} with
/// dilation 1 and edge-congestion 2.
KCopyEmbedding ccc_multicopy_embedding(int n);

/// §5.4: the undirected variant (both straight-edge orientations included);
/// edge-congestion at most 4.
KCopyEmbedding ccc_multicopy_embedding_undirected(int n);

/// Extracts copy `copy` of a k-copy embedding as a GraphEmbedding whose
/// host is the materialized hypercube digraph (for composition).
GraphEmbedding to_graph_embedding(const KCopyEmbedding& emb, int copy);

}  // namespace hyperpath
