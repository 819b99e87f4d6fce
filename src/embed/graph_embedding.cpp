#include "embed/graph_embedding.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "base/error.hpp"
#include "embed/embedding.hpp"

namespace hyperpath {

GraphEmbedding::GraphEmbedding(Digraph guest, Digraph host)
    : guest_(std::move(guest)), host_(std::move(host)) {
  eta_.assign(guest_.num_nodes(), kNoNode);
  paths_.assign(guest_.num_edges(), {});
}

void GraphEmbedding::set_node_map(std::vector<Node> eta) {
  HP_CHECK(eta.size() == guest_.num_nodes(), "node map size mismatch");
  eta_ = std::move(eta);
}

void GraphEmbedding::set_path(std::size_t edge_id, std::vector<Node> path) {
  HP_CHECK(edge_id < paths_.size(), "edge id out of range");
  HP_CHECK(!path.empty(), "empty path");
  paths_[edge_id] = std::move(path);
}

int GraphEmbedding::load() const {
  std::vector<std::uint32_t> count(host_.num_nodes(), 0);
  std::uint32_t mx = 0;
  for (Node h : eta_) {
    HP_CHECK(h != kNoNode, "node map not fully set");
    mx = std::max(mx, ++count[h]);
  }
  return static_cast<int>(mx);
}

int GraphEmbedding::dilation() const {
  std::size_t mx = 0;
  for (const auto& p : paths_) mx = std::max(mx, p.size() - 1);
  return static_cast<int>(mx);
}

std::vector<std::uint32_t> GraphEmbedding::congestion_per_edge() const {
  std::vector<std::uint32_t> cong(host_.num_edges(), 0);
  for (const auto& p : paths_) {
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      const std::size_t e = host_.find_edge(p[i], p[i + 1]);
      HP_CHECK(e != static_cast<std::size_t>(-1), "path uses absent host edge");
      ++cong[e];
    }
  }
  return cong;
}

int GraphEmbedding::congestion() const {
  const auto cong = congestion_per_edge();
  return cong.empty() ? 0
                      : static_cast<int>(
                            *std::max_element(cong.begin(), cong.end()));
}

void GraphEmbedding::verify_or_throw(int max_dilation, int max_congestion,
                                     int max_load) const {
  for (Node h : eta_) {
    HP_CHECK(h != kNoNode && h < host_.num_nodes(), "node map entry invalid");
  }
  for (std::size_t e = 0; e < guest_.num_edges(); ++e) {
    const Edge& ge = guest_.edge(e);
    const auto& p = paths_[e];
    HP_CHECK(!p.empty(), "guest edge has no path");
    HP_CHECK(p.front() == eta_[ge.from], "path start mismatch");
    HP_CHECK(p.back() == eta_[ge.to], "path end mismatch");
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      HP_CHECK(host_.has_edge(p[i], p[i + 1]), "path hop is not a host edge");
    }
  }
  if (max_dilation >= 0) {
    HP_CHECK(dilation() <= max_dilation, "dilation bound violated");
  }
  if (max_congestion >= 0) {
    HP_CHECK(congestion() <= max_congestion, "congestion bound violated");
  }
  if (max_load >= 0) {
    HP_CHECK(load() <= max_load, "load bound violated");
  }
}

GraphEmbedding compose(const GraphEmbedding& outer,
                       const GraphEmbedding& inner) {
  HP_CHECK(inner.host().num_nodes() == outer.guest().num_nodes(),
           "composition type mismatch: inner host != outer guest");
  GraphEmbedding out(inner.guest(), outer.host());

  std::vector<Node> eta(inner.guest().num_nodes());
  for (Node v = 0; v < inner.guest().num_nodes(); ++v) {
    eta[v] = outer.host_of(inner.host_of(v));
  }
  out.set_node_map(std::move(eta));

  for (std::size_t e = 0; e < inner.guest().num_edges(); ++e) {
    const auto& mid = inner.path(e);  // path in B
    std::vector<Node> full{outer.host_of(mid.front())};
    for (std::size_t i = 0; i + 1 < mid.size(); ++i) {
      const std::size_t be = outer.guest().find_edge(mid[i], mid[i + 1]);
      HP_CHECK(be != static_cast<std::size_t>(-1),
               "inner path hop missing from outer guest");
      const auto& seg = outer.path(be);  // path in C
      HP_CHECK(seg.front() == full.back(), "composition discontinuity");
      full.insert(full.end(), seg.begin() + 1, seg.end());
    }
    out.set_path(e, std::move(full));
  }
  return out;
}


MultiPathEmbedding compose_multipath(const MultiPathEmbedding& outer,
                                     const GraphEmbedding& inner) {
  HP_CHECK(inner.host() == outer.guest(),
           "composition type mismatch: inner host must equal outer guest");
  MultiPathEmbedding out(inner.guest(), outer.host().dims());

  std::vector<Node> eta(inner.guest().num_nodes());
  for (Node v = 0; v < inner.guest().num_nodes(); ++v) {
    eta[v] = outer.host_of(inner.host_of(v));
  }
  out.set_node_map(std::move(eta));

  for (std::size_t e = 0; e < inner.guest().num_edges(); ++e) {
    const auto& mid = inner.path(e);  // path in X
    // Width of the composed bundle: min bundle size along the hops.
    std::size_t w = SIZE_MAX;
    std::vector<std::size_t> hop_edges;
    for (std::size_t i = 0; i + 1 < mid.size(); ++i) {
      const std::size_t xe = outer.guest().find_edge(mid[i], mid[i + 1]);
      HP_CHECK(xe != static_cast<std::size_t>(-1),
               "inner path hop missing from outer guest");
      hop_edges.push_back(xe);
      w = std::min(w, outer.paths(xe).size());
    }
    HP_CHECK(!hop_edges.empty(), "inner embedding has a trivial edge path");
    std::vector<HostPath> bundle;
    for (std::size_t k = 0; k < w; ++k) {
      HostPath full{outer.paths(hop_edges[0])[k].front()};
      for (std::size_t h : hop_edges) {
        const PathView seg = outer.paths(h)[k];
        HP_CHECK(seg.front() == full.back(), "composition discontinuity");
        full.insert(full.end(), seg.begin() + 1, seg.end());
      }
      bundle.push_back(erase_loops(full));
    }
    // Multi-hop compositions can collide *across* bundle paths (hop k of
    // one X edge and hop k' of the next can reuse a host edge when the
    // underlying copies are congested).  Keep a greedy maximal
    // edge-disjoint subset; single-hop compositions keep full width.
    if (hop_edges.size() > 1) {
      std::vector<HostPath> kept;
      std::unordered_set<std::uint64_t> used;
      const Hypercube& q = out.host();
      for (auto& p : bundle) {
        bool ok = true;
        for (std::size_t i = 0; ok && i + 1 < p.size(); ++i) {
          ok = !used.contains(q.edge_id(p[i], p[i + 1]));
        }
        if (!ok) continue;
        for (std::size_t i = 0; i + 1 < p.size(); ++i) {
          used.insert(q.edge_id(p[i], p[i + 1]));
        }
        kept.push_back(std::move(p));
      }
      bundle = std::move(kept);
      HP_CHECK(!bundle.empty(), "no disjoint composed path survived");
    }
    out.begin_bundle(e);
    for (const HostPath& p : bundle) out.add_path(p);
  }
  // Load is inherited from the inner embedding (Theorem 5's CBT → X has
  // load up to 3 by design), so the composition does not impose the
  // one-to-one default; callers assert their own load bounds.
  out.verify_or_throw(-1, std::numeric_limits<int>::max());
  return out;
}

}  // namespace hyperpath
