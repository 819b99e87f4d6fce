// Guest-graph builders: every communication graph the paper embeds.
//
// Conventions:
//  * "directed" builders produce the one-directional graph the paper names
//    (e.g. the directed cycle of Section 2);
//  * "symmetric" builders produce both directions of every link, matching
//    the paper's communication model for grids and trees where each process
//    sends to each neighbor;
//  * structured graphs (grid, CCC, butterfly, FFT) come with a layout struct
//    that owns the address arithmetic, so constructions can talk about
//    "level ℓ, column c" instead of raw node ids.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/rng.hpp"
#include "base/types.hpp"
#include "graph/digraph.hpp"

namespace hyperpath {

/// The directed cycle 0 → 1 → ... → len-1 → 0.
Digraph directed_cycle(Node len);

/// Both orientations of the cycle.
Digraph symmetric_cycle(Node len);

/// The directed path 0 → 1 → ... → len-1.
Digraph directed_path(Node len);

/// Both orientations of the path.
Digraph symmetric_path(Node len);

// ---------------------------------------------------------------------------
// Grids and tori
// ---------------------------------------------------------------------------

/// A k-axis grid (wrap == false) or torus (wrap == true) with the given side
/// lengths.  Nodes are indexed row-major: axis 0 varies slowest.
struct GridSpec {
  std::vector<Node> sides;
  bool wrap = false;

  Node num_nodes() const;
  int num_axes() const { return static_cast<int>(sides.size()); }

  /// Dense index of a coordinate tuple.
  Node index(std::span<const Node> coords) const;
  Node index(const std::vector<Node>& coords) const {
    return index(std::span<const Node>(coords));
  }

  /// Coordinate tuple of a dense index.
  std::vector<Node> coords(Node v) const;
  /// The same, written to out[0 .. num_axes()) without allocating.
  void coords(Node v, std::span<Node> out) const;
};

/// The symmetric grid/torus communication graph for `spec`.
Digraph grid_graph(const GridSpec& spec);

/// The *directed* grid/torus: each axis carries only the +1 direction (and
/// the wrap edge for tori) — the per-axis directed cycles/paths Theorem 1
/// widens.  Simultaneous bidirectional traffic would halve the width; run
/// one phase per direction instead (see the relaxation bench).
Digraph grid_graph_directed(const GridSpec& spec);

// ---------------------------------------------------------------------------
// Trees
// ---------------------------------------------------------------------------

/// The complete binary tree with `levels` levels (2^levels − 1 nodes), both
/// edge directions.  Heap indexing: root 0, children of v are 2v+1, 2v+2.
Digraph complete_binary_tree(int levels);

/// A uniformly random binary tree shape with `num_nodes` nodes (each node
/// has 0–2 children), both edge directions.  Returns the parent array too so
/// callers can reconstruct structure.
Digraph random_binary_tree(Node num_nodes, Rng& rng,
                           std::vector<Node>* parent_out = nullptr);

// ---------------------------------------------------------------------------
// Cube-connected cycles, butterflies, FFT graphs (Section 5.1)
// ---------------------------------------------------------------------------

/// Address arithmetic for level/column networks with `levels` levels and
/// 2^`cube_dims` columns.  Node ⟨ℓ, c⟩ has id ℓ·2^n + c.
struct LevelColumnLayout {
  int levels = 0;
  int cube_dims = 0;

  Node num_nodes() const;
  Node id(int level, Node column) const;
  int level_of(Node v) const;
  Node column_of(Node v) const;
};

/// Edge classes of the CCC / butterfly.
enum class CccEdgeKind : std::uint8_t { kStraight, kCross };

/// The n-stage *directed* CCC (Section 5.1): n·2^n nodes; straight edges
/// ⟨ℓ,c⟩ → ⟨ℓ+1 mod n, c⟩ (one orientation), cross edges ⟨ℓ,c⟩ ↔ ⟨ℓ,c⊕2^ℓ⟩
/// (both orientations, per the paper: "cross edges form pairs of oppositely
/// oriented directed edges").  Out-degree 2 at every node.
Digraph ccc_directed(int n);

/// The undirected CCC (both straight-edge orientations too, Section 5.4).
Digraph ccc_symmetric(int n);

/// The n-level *wrapped butterfly*: n·2^n nodes; edges ⟨ℓ,c⟩ → ⟨ℓ+1 mod n,c⟩
/// and ⟨ℓ,c⟩ → ⟨ℓ+1 mod n, c ⊕ 2^ℓ⟩.  Out-degree 2.
Digraph butterfly_directed(int n);

/// Both orientations of every butterfly edge.
Digraph butterfly_symmetric(int n);

/// The (n+1)-level FFT graph: (n+1)·2^n nodes, no wraparound; edges
/// ⟨ℓ,c⟩ → ⟨ℓ+1,c⟩ and ⟨ℓ,c⟩ → ⟨ℓ+1, c ⊕ 2^ℓ⟩ for 0 ≤ ℓ < n.
Digraph fft_directed(int n);

/// Layout helper for the n-stage CCC / n-level butterfly (levels = n,
/// cube_dims = n) and the FFT graph (levels = n+1, cube_dims = n).
LevelColumnLayout ccc_layout(int n);
LevelColumnLayout butterfly_layout(int n);
LevelColumnLayout fft_layout(int n);

}  // namespace hyperpath
