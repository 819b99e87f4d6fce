#include "embed/path_oracle.hpp"

#include <algorithm>
#include <bit>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"

namespace hyperpath {

HostPath PathOracle::path_vec(const OracleEdge& edge, int index) const {
  HostPath out;
  VectorSink sink(out);
  path(edge, index, sink);
  return out;
}

void PathOracle::append_bundle(const OracleEdge& edge,
                               std::vector<Node>& nodes,
                               std::vector<std::size_t>& ends) const {
  const int w = width(edge);
  VectorSink sink(nodes);
  for (int i = 0; i < w; ++i) {
    path(edge, i, sink);
    ends.push_back(nodes.size());
  }
}

std::vector<HostPath> PathOracle::bundle(const OracleEdge& edge) const {
  std::vector<Node> nodes;
  std::vector<std::size_t> ends;
  append_bundle(edge, nodes, ends);
  std::vector<HostPath> out;
  out.reserve(ends.size());
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    out.emplace_back(nodes.begin() + begin, nodes.begin() + end);
    begin = end;
  }
  return out;
}

// --- MaterializedOracle ----------------------------------------------------

Node MaterializedOracle::host_of(OracleId guest) const {
  return emb_.host_of(checked_u32(guest, "guest node id exceeds 32 bits"));
}

int MaterializedOracle::out_degree(OracleId guest) const {
  const auto [lo, hi] = emb_.guest().out_edge_range(
      checked_u32(guest, "guest node id exceeds 32 bits"));
  return static_cast<int>(hi - lo);
}

OracleEdge MaterializedOracle::out_edge(OracleId guest, int slot) const {
  const auto [lo, hi] = emb_.guest().out_edge_range(
      checked_u32(guest, "guest node id exceeds 32 bits"));
  HP_CHECK(slot >= 0 && lo + static_cast<std::uint32_t>(slot) < hi,
           "out-edge slot out of range");
  const Edge& e = emb_.guest().edge(lo + static_cast<std::uint32_t>(slot));
  return {e.from, e.to};
}

std::size_t MaterializedOracle::edge_index(const OracleEdge& edge) const {
  const std::size_t e = emb_.guest().find_edge(
      checked_u32(edge.from, "guest node id exceeds 32 bits"),
      checked_u32(edge.to, "guest node id exceeds 32 bits"));
  HP_CHECK(e != static_cast<std::size_t>(-1), "no such guest edge");
  return e;
}

int MaterializedOracle::width(const OracleEdge& edge) const {
  return static_cast<int>(emb_.paths(edge_index(edge)).size());
}

std::uint32_t MaterializedOracle::path_hops(const OracleEdge& edge,
                                            int index) const {
  const auto bundle = emb_.paths(edge_index(edge));
  HP_CHECK(index >= 0 && static_cast<std::size_t>(index) < bundle.size(),
           "bundle path index out of range");
  return static_cast<std::uint32_t>(bundle[index].size() - 1);
}

void MaterializedOracle::path(const OracleEdge& edge, int index,
                              NodeSink& sink) const {
  const auto bundle = emb_.paths(edge_index(edge));
  HP_CHECK(index >= 0 && static_cast<std::size_t>(index) < bundle.size(),
           "bundle path index out of range");
  for (Node v : bundle[index]) sink.push(v);
}

std::vector<OracleEdge> all_guest_edges(const PathOracle& oracle) {
  std::vector<OracleEdge> edges;
  edges.reserve(oracle.guest_edges());
  for (OracleId g = 0; g < oracle.guest_nodes(); ++g) {
    const int deg = oracle.out_degree(g);
    for (int s = 0; s < deg; ++s) edges.push_back(oracle.out_edge(g, s));
  }
  return edges;
}

// --- sampling verification -------------------------------------------------

std::vector<OracleEdge> sample_guest_edges(const PathOracle& oracle,
                                           std::uint64_t count,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<OracleEdge> edges;
  edges.reserve(count);
  const OracleId nodes = oracle.guest_nodes();
  HP_CHECK(nodes >= 1, "oracle has no guest nodes");
  while (edges.size() < count) {
    const OracleId g = rng.below(nodes);
    const int deg = oracle.out_degree(g);
    if (deg == 0) continue;  // non-wrap grid corners have no out-edges
    edges.push_back(oracle.out_edge(g, static_cast<int>(rng.below(deg))));
  }
  return edges;
}

namespace {

/// Sink that verifies the stream hop by hop instead of storing it:
/// endpoint correctness, host adjacency, and the per-path link-id list
/// (for the bundle disjointness check) with O(path length) state.
class CheckingSink final : public NodeSink {
 public:
  CheckingSink(int dims, Node expect_first, Node expect_last,
               std::vector<std::uint64_t>& links)
      : dims_(dims), expect_first_(expect_first), expect_last_(expect_last),
        links_(links) {}

  void push(Node v) override {
    HP_CHECK(dims_ == 32 || (v >> dims_) == 0, "node outside the host cube");
    if (count_ == 0) {
      HP_CHECK(v == expect_first_, "path does not start at eta(from)");
    } else {
      HP_CHECK(popcount(prev_ ^ v) == 1,
               "consecutive path nodes not host-adjacent");
      const Dim d = count_trailing_zeros(prev_ ^ v);
      links_.push_back(static_cast<std::uint64_t>(prev_) *
                           static_cast<std::uint64_t>(dims_) +
                       static_cast<std::uint64_t>(d));
    }
    digest_ = std::rotl(digest_, 13) ^ v;
    prev_ = v;
    ++count_;
  }

  void finish() const {
    HP_CHECK(count_ >= 1, "empty path stream");
    HP_CHECK(prev_ == expect_last_, "path does not end at eta(to)");
  }

  std::uint64_t hops() const { return count_ == 0 ? 0 : count_ - 1; }
  std::uint64_t digest() const { return digest_; }

 private:
  int dims_;
  Node expect_first_;
  Node expect_last_;
  std::vector<std::uint64_t>& links_;
  Node prev_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t digest_ = 0;
};

}  // namespace

OracleSampleReport oracle_sample_check(const PathOracle& oracle,
                                       std::uint64_t count,
                                       std::uint64_t seed) {
  OracleSampleReport report;
  const int dims = oracle.host_dims();
  std::vector<std::uint64_t> bundle_links;  // reused across edges
  std::vector<std::uint64_t> path_links;
  for (const OracleEdge& edge : sample_guest_edges(oracle, count, seed)) {
    const Node a = oracle.host_of(edge.from);
    const Node b = oracle.host_of(edge.to);
    const int w = oracle.width(edge);
    HP_CHECK(w >= 1, "guest edge with empty bundle");
    bundle_links.clear();
    for (int i = 0; i < w; ++i) {
      path_links.clear();
      CheckingSink sink(dims, a, b, path_links);
      oracle.path(edge, i, sink);
      sink.finish();
      HP_CHECK(sink.hops() == oracle.path_hops(edge, i),
               "declared path_hops disagrees with the streamed path");
      bundle_links.insert(bundle_links.end(), path_links.begin(),
                          path_links.end());
      ++report.paths_checked;
      report.hops_checked += sink.hops();
      report.node_digest ^=
          std::rotl(sink.digest(), static_cast<int>(i % 63));
    }
    HP_CHECK(hops_distinct(bundle_links),
             "bundle paths are not pairwise edge-disjoint");
    ++report.edges_checked;
  }
  return report;
}

}  // namespace hyperpath
