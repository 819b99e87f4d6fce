// Hamiltonian decompositions of hypercubes (Section 3.1, after
// Alspach–Bermond–Sotteau [3]).
//
//   * Q_{2k}:   the undirected edges partition into k Hamiltonian cycles.
//   * Q_{2k+1}: they partition into k Hamiltonian cycles + a perfect
//               matching.
//
// The paper cites [3] for existence; we make the result *constructive*:
//
//   * Q_2 is its one 4-cycle; even dimensions 4–14 come from verified
//     precomputed tables (tables.hpp), generated offline by the search in
//     tools/hamdecomp_solver/.  The library runs no search: a dimension
//     without a table is an error;
//   * odd dimensions are spliced from the even decomposition one dimension
//     down: Q_{2k+1} = Q_{2k} × K_2; each cycle appears once per half, one
//     edge is removed from each half's copy at vertex-disjoint positions and
//     replaced by two cross edges, merging the halves into one Hamiltonian
//     cycle; the unused cross edges plus the removed intra-half edges form
//     exactly the perfect matching.
//
// Every decomposition returned has been re-verified structurally (each cycle
// Hamiltonian, all parts pairwise edge-disjoint, union = all of E(Q_n)).
#pragma once

#include <vector>

#include "base/types.hpp"

namespace hyperpath {

/// An undirected Hamiltonian decomposition of Q_n.
struct HamDecomposition {
  int dims = 0;

  /// floor(dims/2) cycles; each is the closed node sequence of length 2^dims
  /// (the successor of back() is front()).
  std::vector<std::vector<Node>> cycles;

  /// For odd dims: the 2^{dims-1} matching edges.  Empty for even dims.
  std::vector<std::pair<Node, Node>> matching;

  /// Throws hyperpath::Error unless this is a genuine Hamiltonian
  /// decomposition of Q_dims (cycle validity, Hamiltonicity, pairwise
  /// edge-disjointness, exact edge coverage, matching perfectness).
  void verify_or_throw() const;
};

/// The largest n hamiltonian_decomposition() serves: Q_14 is the largest
/// table, and Q_15 is spliced from it.
inline constexpr int kMaxDecompositionDims = 15;

/// The Hamiltonian decomposition of Q_n.  Deterministic: identical output on
/// every call and every run (literals for n = 1, 2; tables for even n 4–14;
/// odd n is spliced).  Results are cached per dimension.
/// n in [1, kMaxDecompositionDims].
const HamDecomposition& hamiltonian_decomposition(int n);

/// Splices the decomposition of Q_{2k+1} from that of Q_{2k} (exposed for
/// testing; hamiltonian_decomposition() calls this internally for odd n).
HamDecomposition splice_odd_decomposition(const HamDecomposition& even);

}  // namespace hyperpath
