// Constructive solver for Hamiltonian decompositions of even hypercubes:
// the search that generates src/hamdecomp/tables.cpp (gen_hamdecomp_tables).
// The hyperpath_hamdecomp library serves decompositions only from those
// verified tables and the odd-dimension splice; it never runs this search.
//
// Strategy for Q_{2k} (k >= 2):
//
//   1. *Peel*: repeatedly find a Hamiltonian cycle of the remaining
//      (still-regular) subgraph with a Pósa-rotation heuristic and remove
//      its edges, until the remainder is 4-regular (k - 2 peels).
//   2. *Split*: decompose the 4-regular remainder into two 2-factors via an
//      Euler-orientation + bipartite alternation (Petersen's construction),
//      then run an alternating-cycle local search: sample a closed walk that
//      alternates between the two factors and flip the membership of its
//      edges (this preserves 2-regularity of both factors) whenever it
//      reduces the total number of cycles, until both factors are single
//      Hamiltonian cycles.
//
// Either stage can fail for an unlucky random stream (the peel can strand a
// non-Hamiltonian remainder); the driver retries with fresh seeds and
// *verifies* the final decomposition, so a returned value is always correct.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "base/types.hpp"
#include "hamdecomp/decomposition.hpp"

namespace hyperpath {

/// An undirected subgraph of Q_n stored as per-node neighbor sets (dims as
/// a bitmask: bit d set means the edge across dimension d is present).
class CubeSubgraph {
 public:
  CubeSubgraph(int dims, bool full);

  int dims() const { return dims_; }
  std::uint64_t num_nodes() const { return mask_.size(); }

  bool has_edge(Node v, Dim d) const { return (mask_[v] >> d) & 1u; }
  void remove_edge(Node v, Dim d);
  void add_edge(Node v, Dim d);
  int degree(Node v) const;

  /// Dimensions of v's remaining incident edges.
  std::uint32_t neighbor_mask(Node v) const { return mask_[v]; }

 private:
  int dims_;
  std::vector<std::uint32_t> mask_;  // per node: incident-dimension bitmask
};

/// Finds a Hamiltonian cycle of `g` (all nodes of Q_n) with Pósa rotations.
/// Returns the closed node sequence, or nullopt if the attempt budget runs
/// out.  Does not modify g.
std::optional<std::vector<Node>> find_hamiltonian_cycle(const CubeSubgraph& g,
                                                        Rng& rng,
                                                        std::uint64_t max_steps);

/// Splits a connected 4-regular subgraph of Q_n into two Hamiltonian cycles
/// using the alternating-cycle local search.  Returns nullopt on failure
/// (caller retries with a different remainder).
std::optional<std::pair<std::vector<Node>, std::vector<Node>>>
split_four_regular(const CubeSubgraph& g, Rng& rng, std::uint64_t max_flips);

/// Full solver: Hamiltonian decomposition of Q_{2k}, retrying with derived
/// seeds until verification passes.  Throws after `max_attempts` failures.
HamDecomposition solve_even_decomposition(int dims, std::uint64_t seed,
                                          int max_attempts = 64);

/// The seed the committed table entry for Q_dims was solved with.
inline constexpr std::uint64_t table_seed(int dims) {
  return 0xC0FFEEull + static_cast<std::uint64_t>(dims);
}

/// Encodes a closed cycle as its transition string: 'a' + d for each step
/// across dimension d, wrapping from back() to front().  The inverse of
/// decode_cycle_transitions (hamdecomp/tables.hpp) started at front().
std::string encode_cycle_transitions(const std::vector<Node>& cycle);

}  // namespace hyperpath
