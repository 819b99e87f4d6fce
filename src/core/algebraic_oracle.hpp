// Algebraic PathOracle backends: closed-form routing without bundles.
//
// The paper's three embedding families are all arithmetic, so the oracle
// queries of embed/path_oracle.hpp have direct formulas:
//
//   * Theorem-1 cycle (algebraic_theorem1_oracle) — guest node g splits
//     into (column step t, in-column step s).  The column address is the
//     bit-permuted Gray value t ^ (t >> 1) (the construction's remap of
//     Gray dimensions onto position/block bits is a fixed bit permutation,
//     and a permutation of XOR-accumulated transitions is the permutation
//     of the accumulated value); the special cycle is moment(position)
//     (Lemma 2); the entry row follows the 4-group identity — aligned
//     column groups carry cycles (σ, σ, σ̄, σ̄), whose prev-chain closes
//     back to row 0 at every 4th column, so the entry row is one of
//     {0, prev_σ(0), prev_σ²(0)} by t mod 4.  In-column position is
//     rank/unrank on precomputed per-cycle sequence tables of the Q_{2k}
//     column subcube (≤ 8 cycles × 2^{2k} entries — a few KiB, the
//     oracle's whole state).  Bundles are Theorem 1's 2k length-3 detours
//     plus the direct edge, emitted hop by hop.
//
//   * Cross-product grid (algebraic_grid_oracle) — per-axis Theorem-1
//     generators composed by field concatenation: η is the OR of shifted
//     per-axis images, a bundle is the changing axis's bundle shifted
//     into its field with the other fields held fixed.  Because state is
//     per *axis* (not per node), total host dimension extends past the
//     materialized builder's 24-bit cap to Q_30.
//
//   * Large-copy cycle (algebraic_largecopy_oracle) — guest node g is
//     (cycle c, step s) of Lemma 1's directed Hamiltonian family; η is a
//     table lookup in the family's own successor structure and every
//     bundle is the single direct edge.
//
// Every generator is cross-checked bit-for-bit against the materialized
// construction at small n (tests/property/oracle_equiv_test.cpp) and
// spot-sampled at Q_20–Q_30 (oracle_sample_check).
#pragma once

#include <memory>

#include "embed/path_oracle.hpp"
#include "graph/builders.hpp"

namespace hyperpath {

/// Closed-form Theorem-1 oracle over Q_n.  Requires
/// cycle_multipath_supported(n); identical to wrapping
/// theorem1_cycle_embedding(n) in a MaterializedOracle, without building
/// the embedding.
std::unique_ptr<PathOracle> algebraic_theorem1_oracle(int n);

/// The grid spec range the algebraic backend accepts: every axis must
/// satisfy cycle_multipath_supported(axis bits) (torus sides must be
/// powers of two, as in the materialized builder), but the *total* host
/// dimension extends to 30 — the materialized builder's 24-bit cap is a
/// RAM limit the oracle does not have.
bool algebraic_grid_supported(const GridSpec& spec);

/// Closed-form Corollary-1 grid/torus oracle (per-axis Theorem-1
/// composition).  Guest is grid_graph_directed(spec).
std::unique_ptr<PathOracle> algebraic_grid_oracle(const GridSpec& spec);

/// Closed-form Lemma-1 large-copy oracle: the ⌊n/2⌋·2 directed
/// Hamiltonian cycles of Q_n traversed back to back, width 1.  Guest ids
/// are 64-bit (the guest has 2⌊n/2⌋·2^n nodes).  Requires
/// 2 ≤ n ≤ kMaxDecompositionDims (15, the decomposition range).
std::unique_ptr<PathOracle> algebraic_largecopy_oracle(int n);

}  // namespace hyperpath
