// The boolean hypercube Q_n (Section 3 of Greenberg & Bhatt).
//
// Q_n has 2^n nodes with distinct n-bit addresses and a *directed* edge
// (u, v) whenever u and v differ in exactly one bit; the edge lies in
// dimension i when bit i differs.  The paper models every communication link
// as a directed edge, so Q_n has n·2^n directed edges.
//
// We never materialize adjacency: neighbors are computed by bit flips, and
// each directed edge has the canonical id  tail * n + dimension,  which
// doubles as an index into per-link simulator state and congestion counters.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/bits.hpp"
#include "base/types.hpp"

namespace hyperpath {
class Digraph;

class Hypercube {
 public:
  /// Largest supported dimension (node ids are 32-bit).
  static constexpr int kMaxDims = 30;

  /// Constructs Q_n.  n in [1, kMaxDims].
  explicit Hypercube(int n);

  int dims() const { return n_; }
  std::uint64_t num_nodes() const { return pow2(n_); }
  std::uint64_t num_directed_edges() const {
    return static_cast<std::uint64_t>(n_) * num_nodes();
  }
  std::uint64_t num_undirected_edges() const {
    return num_directed_edges() / 2;
  }

  bool contains(Node v) const { return v < num_nodes(); }

  /// The neighbor of v across dimension d.
  Node neighbor(Node v, Dim d) const { return flip_bit(v, d); }

  /// True iff (u, v) is a hypercube edge (addresses differ in exactly one
  /// bit).
  bool is_edge(Node u, Node v) const { return is_pow2(u ^ v); }

  /// The dimension of the edge (u, v); requires is_edge(u, v).
  Dim edge_dim(Node u, Node v) const;

  /// Canonical id of the directed edge leaving v across dimension d:
  /// v * n + d.  Ids cover [0, n·2^n).
  std::uint64_t edge_id(Node v, Dim d) const {
    return static_cast<std::uint64_t>(v) * n_ + static_cast<std::uint64_t>(d);
  }

  /// Id of the directed edge (u, v); requires is_edge(u, v).
  std::uint64_t edge_id(Node u, Node v) const {
    return edge_id(u, edge_dim(u, v));
  }

  /// Inverse of edge_id: (tail, dimension).
  std::pair<Node, Dim> edge_of_id(std::uint64_t id) const {
    return {static_cast<Node>(id / n_), static_cast<Dim>(id % n_)};
  }

  /// Materializes Q_n as a Digraph (both directions of every link).  Useful
  /// for generic algorithms; O(n·2^n).
  Digraph to_digraph() const;

  /// Hamming distance between two addresses — the hypercube graph distance.
  int distance(Node u, Node v) const { return popcount(u ^ v); }

 private:
  int n_;
};

/// A walk in the hypercube given as a node sequence.  Valid iff every pair
/// of consecutive nodes is a hypercube edge.
using HostPath = std::vector<Node>;

/// True iff `path` is a valid directed walk in `q` (length >= 1 node; every
/// hop flips exactly one bit).
bool is_valid_path(const Hypercube& q, std::span<const Node> path);

/// Sorts `hop_ids` (directed link ids, Hypercube::edge_id) and returns
/// true iff no id repeats — the one test behind every edge-disjointness
/// check.
bool hops_distinct(std::vector<std::uint64_t>& hop_ids);

/// True iff the paths in `bundle` are pairwise edge-disjoint as *directed*
/// paths (the paper's multiple-path requirement).  Node sharing is allowed.
/// `bundle` is any range of node sequences (a std::vector<HostPath>, a
/// MultiPathEmbedding's BundleView); `scratch` receives the hop ids, so a
/// caller checking many bundles reuses one buffer.
template <typename Bundle>
bool paths_edge_disjoint(const Hypercube& q, const Bundle& bundle,
                         std::vector<std::uint64_t>& scratch) {
  scratch.clear();
  for (const auto& p : bundle) {
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      scratch.push_back(q.edge_id(p[i], p[i + 1]));
    }
  }
  return hops_distinct(scratch);
}

/// Loop-erasure: removes cycles from a walk, yielding a simple path with
/// the same endpoints (used when concatenating per-hop detour paths, which
/// can revisit nodes).
HostPath erase_loops(const HostPath& walk);

}  // namespace hyperpath
