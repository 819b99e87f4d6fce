#include "embed/embedding.hpp"

#include <algorithm>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "par/task_pool.hpp"

namespace hyperpath {

namespace {

/// Per-worker accumulator of the fused bundle sweep.  The congestion
/// scratch is allocated lazily (a worker that never ran a chunk costs
/// nothing) and merged into the result in ascending worker order; the
/// counters are sums, so the merged vector is bit-identical for any thread
/// count and any steal pattern.
struct SweepShard {
  std::size_t max_dilation = 0;
  std::size_t min_width = SIZE_MAX;
  std::vector<std::uint32_t> cong;
};

}  // namespace

// ---------------------------------------------------------------------------
// MultiPathEmbedding
// ---------------------------------------------------------------------------

std::uint32_t checked_path_offset(std::uint64_t offset) {
  HP_CHECK(offset <= 0xffffffffull, "multipath store offset overflow");
  return static_cast<std::uint32_t>(offset);
}

MultiPathEmbedding::MultiPathEmbedding(Digraph guest, int host_dims)
    : guest_(std::move(guest)), host_(host_dims) {
  eta_.assign(guest_.num_nodes(), kNoNode);
  bundle_.assign(guest_.num_edges(), {});
}

void MultiPathEmbedding::set_node_map(std::vector<Node> eta) {
  HP_CHECK(eta.size() == guest_.num_nodes(), "node map size mismatch");
  eta_ = std::move(eta);
}

void MultiPathEmbedding::set_node_map(std::size_t first,
                                      std::span<const Node> eta) {
  HP_CHECK(first <= eta_.size() && eta.size() <= eta_.size() - first,
           "node map slice out of range");
  std::copy(eta.begin(), eta.end(), eta_.begin() + first);
}

void MultiPathEmbedding::reserve(std::size_t paths, std::size_t nodes) {
  offset_.reserve(offset_.size() + paths);
  nodes_.reserve(nodes_.size() + nodes);
}

void MultiPathEmbedding::begin_bundle(std::size_t edge_id) {
  HP_CHECK(edge_id < bundle_.size(), "edge id out of range");
  const std::uint32_t next = checked_path_offset(offset_.size() - 1);
  bundle_[edge_id] = {next, next};
  open_edge_ = edge_id;
  path_open_ = false;
}

void MultiPathEmbedding::begin_path() {
  HP_CHECK(open_edge_ < bundle_.size(), "no open bundle (begin_bundle)");
  offset_.push_back(offset_.back());
  bundle_[open_edge_].last = checked_path_offset(offset_.size() - 1);
  path_open_ = true;
}

void MultiPathEmbedding::add_path(std::span<const Node> nodes) {
  begin_path();
  nodes_.insert(nodes_.end(), nodes.begin(), nodes.end());
  offset_.back() = checked_path_offset(nodes_.size());
  path_open_ = false;
}

void MultiPathEmbedding::set_paths(std::size_t edge_id,
                                   std::initializer_list<HostPath> bundle) {
  HP_CHECK(edge_id < bundle_.size(), "edge id out of range");
  HP_CHECK(bundle.size() != 0, "bundle must contain at least one path");
  begin_bundle(edge_id);
  for (const HostPath& p : bundle) add_path(p);
}

int MultiPathEmbedding::load() const {
  std::vector<std::uint32_t> count(host_.num_nodes(), 0);
  std::uint32_t mx = 0;
  for (Node h : eta_) {
    HP_CHECK(h != kNoNode, "node map not fully set");
    mx = std::max(mx, ++count[h]);
  }
  return static_cast<int>(mx);
}

int MultiPathEmbedding::dilation() const {
  std::size_t mx = 0;
  for (std::size_t e = 0; e < bundle_.size(); ++e) {
    for (const PathView p : paths(e)) mx = std::max(mx, p.size() - 1);
  }
  return static_cast<int>(mx);
}

int MultiPathEmbedding::width() const {
  std::size_t mn = SIZE_MAX;
  for (const PathRange& r : bundle_) {
    mn = std::min<std::size_t>(mn, r.last - r.first);
  }
  return bundle_.empty() ? 0 : static_cast<int>(mn);
}

EmbeddingMetrics MultiPathEmbedding::metrics() const {
  const int observed_load = load();
  EmbeddingMetrics m = sweep_bundles();
  m.load = observed_load;
  return m;
}

EmbeddingMetrics MultiPathEmbedding::sweep_bundles() const {
  EmbeddingMetrics m;
  const std::size_t nedges = bundle_.size();
  const std::size_t nlinks = host_.num_directed_edges();
  m.congestion_per_link.reserve(nlinks);
  m.congestion_per_link.assign(nlinks, 0);
  if (nedges == 0) return m;

  const int workers = par::current_pool().threads();
  std::vector<SweepShard> shard(workers);
  par::parallel_for_chunks(
      0, nedges, par::suggested_grain(nedges),
      [&](std::size_t, std::size_t lo, std::size_t hi, int w) {
        SweepShard& sh = shard[w];
        if (sh.cong.empty()) sh.cong.assign(nlinks, 0);
        for (std::size_t e = lo; e < hi; ++e) {
          const BundleView bundle = paths(e);
          sh.min_width = std::min(sh.min_width, bundle.size());
          for (const PathView p : bundle) {
            sh.max_dilation = std::max(sh.max_dilation, p.size() - 1);
            for (std::size_t i = 0; i + 1 < p.size(); ++i) {
              ++sh.cong[host_.edge_id(p[i], p[i + 1])];
            }
          }
        }
      });

  std::size_t max_dilation = 0;
  std::size_t min_width = SIZE_MAX;
  for (int w = 0; w < workers; ++w) {
    max_dilation = std::max(max_dilation, shard[w].max_dilation);
    min_width = std::min(min_width, shard[w].min_width);
    if (shard[w].cong.empty()) continue;
    for (std::size_t l = 0; l < nlinks; ++l) {
      m.congestion_per_link[l] += shard[w].cong[l];
    }
  }
  m.dilation = static_cast<int>(max_dilation);
  m.width = static_cast<int>(min_width);
  m.congestion =
      m.congestion_per_link.empty()
          ? 0
          : static_cast<int>(*std::max_element(m.congestion_per_link.begin(),
                                               m.congestion_per_link.end()));
  return m;
}

std::vector<std::uint32_t> MultiPathEmbedding::congestion_per_link() const {
  return sweep_bundles().congestion_per_link;
}

int MultiPathEmbedding::congestion() const {
  return sweep_bundles().congestion;
}

double MultiPathEmbedding::expansion() const {
  const std::uint64_t need = pow2(ceil_log2(guest_.num_nodes()));
  return static_cast<double>(host_.num_nodes()) / static_cast<double>(need);
}

void MultiPathEmbedding::verify_or_throw(int expected_width,
                                         int expected_load) const {
  // Node map range + load.
  for (Node h : eta_) {
    HP_CHECK(h != kNoNode && host_.contains(h), "node map entry invalid");
  }
  const int observed_load = load();
  if (expected_load >= 0) {
    HP_CHECK(observed_load <= expected_load, "load exceeds expected bound");
  } else {
    // Paper default: one-to-one when the guest fits, otherwise balanced
    // many-to-one with load ⌈|V(G)|/|V(W)|⌉.
    const std::uint64_t vg = guest_.num_nodes();
    const std::uint64_t vh = host_.num_nodes();
    const std::uint64_t bound = (vg + vh - 1) / vh;
    HP_CHECK(static_cast<std::uint64_t>(observed_load) <= std::max<std::uint64_t>(bound, 1),
             "load exceeds ceil(|V|/|W|)");
  }

  // Paths: one sweep sharded over guest edges checks structure AND
  // accumulates the width, so no metric helper re-walks the bundles.
  const std::size_t nedges = guest_.num_edges();
  const int workers = par::current_pool().threads();
  std::vector<std::size_t> shard_min_width(workers, SIZE_MAX);
  std::vector<std::vector<std::uint64_t>> shard_hops(workers);
  par::parallel_for_chunks(
      0, nedges, par::suggested_grain(nedges, 32),
      [&](std::size_t, std::size_t lo, std::size_t hi, int w) {
        std::size_t mn = shard_min_width[w];
        std::vector<std::uint64_t>& hops = shard_hops[w];
        for (std::size_t e = lo; e < hi; ++e) {
          const Edge& ge = guest_.edge(e);
          const BundleView bundle = paths(e);
          HP_CHECK(!bundle.empty(), "guest edge has no image path");
          for (const PathView p : bundle) {
            HP_CHECK(is_valid_path(host_, p),
                     "image path is not a hypercube walk");
            HP_CHECK(p.front() == eta_[ge.from], "path does not start at η(u)");
            HP_CHECK(p.back() == eta_[ge.to], "path does not end at η(v)");
          }
          HP_CHECK(paths_edge_disjoint(host_, bundle, hops),
                   "bundle paths are not edge-disjoint");
          mn = std::min(mn, bundle.size());
        }
        shard_min_width[w] = mn;
      });

  if (expected_width >= 0) {
    std::size_t mn = SIZE_MAX;
    for (std::size_t w : shard_min_width) mn = std::min(mn, w);
    const int observed_width = nedges == 0 ? 0 : static_cast<int>(mn);
    HP_CHECK(observed_width == expected_width, "width differs from expected");
  }
}

// ---------------------------------------------------------------------------
// KCopyEmbedding
// ---------------------------------------------------------------------------

namespace {

/// The copy-major disjoint union of `copies` copies of g.  Every id is
/// checked to fit 32 bits before the builder allocates.
Digraph disjoint_union(const Digraph& g, int copies) {
  HP_CHECK(copies >= 1, "k-copy embedding needs at least one copy");
  const std::uint64_t k = static_cast<std::uint64_t>(copies);
  HP_CHECK(k * g.num_nodes() <= 0xffffffffull &&
               k * g.num_edges() <= 0xffffffffull,
           "k-copy union ids overflow 32 bits");
  DigraphBuilder b(static_cast<Node>(k * g.num_nodes()));
  for (Node base = 0; base < b.num_nodes(); base += g.num_nodes()) {
    for (const Edge& e : g.edges()) b.add_edge(base + e.from, base + e.to);
  }
  return std::move(b).build();
}

}  // namespace

KCopyEmbedding::KCopyEmbedding(Digraph guest, int host_dims, int copies)
    : guest_(std::move(guest)),
      copies_(copies),
      union_(disjoint_union(guest_, copies), host_dims) {
  const std::size_t paths = union_.guest().num_edges();
  union_.reserve(paths, 2 * paths);  // dilation-1 copies fit exactly
}

std::size_t KCopyEmbedding::union_edge(int copy, std::size_t edge_id) const {
  HP_CHECK(copy >= 0 && copy < copies_, "copy index out of range");
  HP_CHECK(edge_id < guest_.num_edges(), "edge id out of range");
  return static_cast<std::size_t>(copy) * guest_.num_edges() + edge_id;
}

void KCopyEmbedding::set_node_map(int copy, std::span<const Node> eta) {
  HP_CHECK(copy >= 0 && copy < copies_, "copy index out of range");
  HP_CHECK(eta.size() == guest_.num_nodes(), "copy node map size mismatch");
  union_.set_node_map(static_cast<std::size_t>(copy) * guest_.num_nodes(),
                      eta);
}

void KCopyEmbedding::set_path(int copy, std::size_t edge_id,
                              std::span<const Node> nodes) {
  union_.begin_bundle(union_edge(copy, edge_id));
  union_.add_path(nodes);
}

void KCopyEmbedding::set_direct_copy(int copy, std::span<const Node> eta) {
  set_node_map(copy, eta);
  for (std::size_t e = 0; e < guest_.num_edges(); ++e) {
    const Edge& ge = guest_.edge(e);
    set_path(copy, e, {eta[ge.from], eta[ge.to]});
  }
}

void KCopyEmbedding::verify_or_throw(int expected_congestion) const {
  const Hypercube& host = union_.host();
  // One copy per task: copies are independent, and the pool's
  // lowest-chunk error selection keeps the thrown error the serial scan's.
  par::parallel_for_chunks(
      0, static_cast<std::size_t>(copies_), /*grain=*/1,
      [&](std::size_t, std::size_t lo, std::size_t hi, int) {
        for (std::size_t ci = lo; ci < hi; ++ci) {
          const int c = static_cast<int>(ci);
          const std::span<const Node> eta = node_map(c);
          std::vector<bool> hit(host.num_nodes(), false);
          for (Node h : eta) {
            HP_CHECK(host.contains(h), "copy node map entry invalid");
            HP_CHECK(!hit[h], "copy node map is not one-to-one");
            hit[h] = true;
          }
          for (std::size_t e = 0; e < guest_.num_edges(); ++e) {
            const Edge& ge = guest_.edge(e);
            const BundleView bundle = union_.paths(union_edge(c, e));
            HP_CHECK(!bundle.empty(), "copy edge has no path");
            const PathView p = bundle.front();
            HP_CHECK(is_valid_path(host, p),
                     "copy path is not a hypercube walk");
            HP_CHECK(p.front() == eta[ge.from], "copy path start mismatch");
            HP_CHECK(p.back() == eta[ge.to], "copy path end mismatch");
          }
        }
      });
  if (expected_congestion >= 0) {
    HP_CHECK(edge_congestion() <= expected_congestion,
             "edge-congestion exceeds expected bound");
  }
}

}  // namespace hyperpath
