// The embedding framework of Section 3.
//
// An embedding of a guest graph G into the host hypercube H = Q_n is a node
// map η : V(G) → V(H) together with a map μ assigning each guest edge (u, v)
// to one or more paths in H from η(u) to η(v).
//
//   * load       — max number of guest vertices on one host vertex
//   * dilation   — max path length over all assigned paths
//   * congestion — max over host *directed* edges of the number of guest
//                  edges one of whose image paths uses it
//   * width      — min number of pairwise edge-disjoint paths per guest edge
//                  (a "width-w embedding" has w such paths for every edge)
//   * expansion  — |V(H)| / (smallest power of two ≥ |V(G)|)
//
// MultiPathEmbedding stores the full structure and re-derives every metric;
// verify_or_throw() re-checks the paper's structural requirements so that a
// construction bug can never silently flow into a measurement.
//
// Storage: every path of every bundle lives in one flat node array.  Path p
// is nodes[offset[p], offset[p+1]), and guest edge e owns the contiguous
// path range [first, last) of its bundle.  Writers stream
// a bundle in — begin_bundle(e), then add_path() or begin_path() plus
// push_node() per path — with no per-path heap object; edges may be written
// in any order, and rewriting an edge starts a new range (the old nodes stay
// behind as unused space).  Readers get a BundleView of PathViews
// (std::span<const Node>) into the store.  A KCopyEmbedding has no store of
// its own: its k copies are one width-1 MultiPathEmbedding of the guest's
// k-fold disjoint union, written copy by copy into this same flat array.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

#include "base/error.hpp"
#include "base/types.hpp"
#include "graph/digraph.hpp"
#include "graph/hypercube.hpp"

namespace hyperpath {

/// Every Section-3 metric of a multiple-path embedding, produced by one
/// fused sweep over the bundles (see MultiPathEmbedding::metrics) instead
/// of one re-walk per metric.
struct EmbeddingMetrics {
  int load = 0;
  int dilation = 0;
  int width = 0;
  int congestion = 0;
  std::vector<std::uint32_t> congestion_per_link;  // by Hypercube::edge_id
};

/// Narrows a running node or path count of MultiPathEmbedding's flat store
/// to its 32-bit offset — the one place the store narrows.  Throws
/// "multipath store offset overflow" past 2^32 − 1 instead of wrapping.
std::uint32_t checked_path_offset(std::uint64_t offset);

/// One path of a bundle: a std::span<const Node> into the embedding's flat
/// store, valid until the embedding is next written to.  It converts to an
/// owning HostPath (a copy), so a loop over `const HostPath&` still reads a
/// bundle; use `auto` to read without copying.
class PathView : public std::span<const Node> {
 public:
  using std::span<const Node>::span;
  PathView(std::span<const Node> nodes) : std::span<const Node>(nodes) {}

  operator HostPath() const { return HostPath(begin(), end()); }

  friend bool operator==(PathView a, PathView b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

/// The bundle of one guest edge: its paths, in the order they were written.
/// Like its PathViews, valid until the embedding is next written to.
class BundleView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PathView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = PathView;

    iterator() = default;
    iterator(const Node* nodes, const std::uint32_t* offset)
        : nodes_(nodes), offset_(offset) {}
    PathView operator*() const {
      return {nodes_ + offset_[0], nodes_ + offset_[1]};
    }
    iterator& operator++() {
      ++offset_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++offset_;
      return old;
    }
    friend bool operator==(iterator a, iterator b) {
      return a.offset_ == b.offset_;
    }

   private:
    const Node* nodes_ = nullptr;
    const std::uint32_t* offset_ = nullptr;  // this path's start; [1] its end
  };

  /// Path j is nodes[offset[j], offset[j+1]) for j < count.
  BundleView(const Node* nodes, const std::uint32_t* offset, std::size_t count)
      : nodes_(nodes), offset_(offset), count_(count) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  PathView operator[](std::size_t j) const {
    return {nodes_ + offset_[j], nodes_ + offset_[j + 1]};
  }
  PathView front() const { return (*this)[0]; }
  PathView back() const { return (*this)[count_ - 1]; }
  iterator begin() const { return {nodes_, offset_}; }
  iterator end() const { return {nodes_, offset_ + count_}; }

 private:
  const Node* nodes_;
  const std::uint32_t* offset_;
  std::size_t count_;
};

/// A multiple-path embedding of a guest digraph into Q_host_dims.
/// A width-1 instance is an ordinary (single-path) embedding.
class MultiPathEmbedding {
 public:
  MultiPathEmbedding(Digraph guest, int host_dims);

  const Digraph& guest() const { return guest_; }
  const Hypercube& host() const { return host_; }

  /// Sets η.  eta.size() must equal guest().num_nodes().
  void set_node_map(std::vector<Node> eta);

  /// Sets η of guest nodes [first, first + eta.size()).
  void set_node_map(std::size_t first, std::span<const Node> eta);

  Node host_of(Node guest_node) const { return eta_[guest_node]; }
  std::span<const Node> node_map() const { return eta_; }

  // --- writing bundles -----------------------------------------------------

  /// Capacity hint: room for `paths` more paths of `nodes` more nodes in all.
  void reserve(std::size_t paths, std::size_t nodes);

  /// Starts the bundle of guest edge `edge_id` (id in guest().edges()),
  /// replacing any earlier one; the paths added next belong to it.  A
  /// bundle left with no path fails verify_or_throw like an unset edge.
  void begin_bundle(std::size_t edge_id);

  /// Appends an empty path to the open bundle; push_node() extends it
  /// until the next begin_path(), add_path() or begin_bundle().
  void begin_path();
  void push_node(Node v) {
    HP_CHECK(path_open_, "push_node needs an open path (begin_path)");
    nodes_.push_back(v);
    offset_.back() = checked_path_offset(nodes_.size());
  }

  /// Appends one path, given whole, to the open bundle.
  void add_path(std::span<const Node> nodes);
  void add_path(std::initializer_list<Node> nodes) {
    add_path(std::span<const Node>(nodes.begin(), nodes.size()));
  }

  /// Writes guest edge `edge_id`'s whole bundle from owning paths.
  void set_paths(std::size_t edge_id, std::initializer_list<HostPath> bundle);

  BundleView paths(std::size_t edge_id) const {
    const PathRange r = bundle_[edge_id];
    return {nodes_.data(), offset_.data() + r.first, r.last - r.first};
  }

  // --- metrics (computed on demand; all O(total path length)) -------------

  int load() const;
  int dilation() const;

  /// Minimum bundle size over guest edges — the embedding's width.
  int width() const;

  /// Congestion per host directed edge, indexed by Hypercube::edge_id.
  /// Sharded over guest edges on the par::TaskPool; per-worker scratch
  /// counters are merged in fixed order, so the vector is bit-identical for
  /// every thread count.
  std::vector<std::uint32_t> congestion_per_link() const;

  int congestion() const;

  /// All metrics in one sharded sweep over the bundles (plus the O(|V|)
  /// node-map pass for load) — call this instead of four separate
  /// re-walks when more than one metric is needed.  Deterministic across
  /// thread counts.
  EmbeddingMetrics metrics() const;

  /// |V(H)| divided by the smallest power of two at least |V(G)|.
  double expansion() const;

  // --- verification --------------------------------------------------------

  /// Structural checks: η in range with load ≤ ⌈|V(G)|/|V(H)|⌉ only when
  /// |V(G)| > |V(H)| (otherwise η must be one-to-one... see note), every
  /// guest edge has ≥1 path, every path is a valid hypercube walk from
  /// η(u) to η(v), and each bundle is pairwise edge-disjoint.
  /// If expected_width ≥ 0, also checks width() == expected_width.
  /// If expected_load ≥ 0, checks load() ≤ expected_load; otherwise applies
  /// the paper's default (one-to-one when the guest fits).
  ///
  /// The per-edge checks and the width computation run as one sweep
  /// sharded over guest edges on the par::TaskPool; disjointness sorts each
  /// bundle's hop ids in a per-worker buffer.  Failure selection is
  /// deterministic: the error thrown is always the first failing edge's
  /// (chunks partition the edge range in order and the pool rethrows the
  /// lowest throwing chunk), identical to the serial scan.
  void verify_or_throw(int expected_width = -1, int expected_load = -1) const;

 private:
  /// The sharded sweep over the bundles behind metrics(): every metric but
  /// load, which needs the node map instead.
  EmbeddingMetrics sweep_bundles() const;

  /// A guest edge's paths: [first, last) in offset_ order.
  struct PathRange {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
  };

  Digraph guest_;
  Hypercube host_;
  std::vector<Node> eta_;
  std::vector<Node> nodes_;              // every path's nodes, back to back
  std::vector<std::uint32_t> offset_{0};  // path p: [offset_[p], offset_[p+1])
  std::vector<PathRange> bundle_;        // by guest edge id
  std::size_t open_edge_ = SIZE_MAX;     // the bundle new paths join
  bool path_open_ = false;               // push_node() may extend the last path
};

/// A k-copy embedding (Section 3): k one-to-one node maps of the same guest
/// into Q_n, each edge mapped to a single path per copy, with the
/// congestion of a host edge summed over all copies.  That is a width-1
/// embedding of the guest's k-fold disjoint union, and it is stored as one:
/// copy c of guest node v is union node c·|V| + v, and copy c of guest edge
/// e is union edge c·|E| + e (Digraph's (from, to) edge order makes the
/// copy-major node ids give exactly that edge numbering).  multipath() is
/// the union, for every reader of a MultiPathEmbedding: its metrics are the
/// summed k-copy ones, and its phase_packets order is (copy, edge, packet).
class KCopyEmbedding {
 public:
  /// Declares `copies` ≥ 1 copies, each with an unset node map and no
  /// paths.  Throws "k-copy union ids overflow" before allocating anything
  /// when copies·|V| or copies·|E| does not fit a 32-bit id.
  KCopyEmbedding(Digraph guest, int host_dims, int copies);

  const Digraph& guest() const { return guest_; }
  const Hypercube& host() const { return union_.host(); }
  int num_copies() const { return copies_; }
  const MultiPathEmbedding& multipath() const { return union_; }

  // --- writing copies (copy < num_copies(); a rewrite replaces) -----------

  /// Sets copy `copy`'s node map; eta.size() must equal guest().num_nodes().
  void set_node_map(int copy, std::span<const Node> eta);

  /// Sets copy `copy`'s path for guest edge `edge_id`.
  void set_path(int copy, std::size_t edge_id, std::span<const Node> nodes);
  void set_path(int copy, std::size_t edge_id,
                std::initializer_list<Node> nodes) {
    set_path(copy, edge_id, std::span<const Node>(nodes.begin(), nodes.size()));
  }

  /// Sets copy `copy`'s node map and routes every guest edge (u, v) on the
  /// single host link η(u) → η(v): a dilation-1 copy (verify_or_throw
  /// rejects an edge whose images are not adjacent).
  void set_direct_copy(int copy, std::span<const Node> eta);

  // --- reading copies (unchecked, like MultiPathEmbedding's readers) ------

  Node host_of(int copy, Node guest_node) const {
    return node_map(copy)[guest_node];
  }
  std::span<const Node> node_map(int copy) const {
    return union_.node_map().subspan(
        static_cast<std::size_t>(copy) * guest_.num_nodes(),
        guest_.num_nodes());
  }
  /// Copy `copy`'s path of guest edge `edge_id`, which must be written.
  PathView path(int copy, std::size_t edge_id) const {
    return union_.paths(static_cast<std::size_t>(copy) * guest_.num_edges() +
                        edge_id).front();
  }

  int dilation() const { return union_.dilation(); }

  /// Edge-congestion summed across copies, per host directed edge: the
  /// union's sharded, thread-count-independent congestion sweep.
  std::vector<std::uint32_t> congestion_per_link() const {
    return union_.congestion_per_link();
  }
  int edge_congestion() const { return union_.congestion(); }

  /// Checks: every copy's η is one-to-one, every path valid with correct
  /// endpoints.  If expected_congestion ≥ 0, also checks
  /// edge_congestion() ≤ expected_congestion.  Copies are checked in
  /// parallel on the par::TaskPool; the error thrown is always the first
  /// failing copy's first failing check, identical to the serial scan.
  void verify_or_throw(int expected_congestion = -1) const;

 private:
  /// The union edge of copy `copy`'s guest edge `edge_id`, range-checked.
  std::size_t union_edge(int copy, std::size_t edge_id) const;

  Digraph guest_;
  int copies_;
  MultiPathEmbedding union_;
};

}  // namespace hyperpath
