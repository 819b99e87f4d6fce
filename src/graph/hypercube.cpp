#include "graph/hypercube.hpp"

#include <algorithm>
#include <unordered_map>

#include "base/error.hpp"
#include "graph/digraph.hpp"

namespace hyperpath {

Hypercube::Hypercube(int n) : n_(n) {
  HP_CHECK(n >= 1 && n <= kMaxDims, "hypercube dimension out of range [1,30]");
}

Dim Hypercube::edge_dim(Node u, Node v) const {
  HP_CHECK(is_edge(u, v), "not a hypercube edge");
  return count_trailing_zeros(u ^ v);
}

Digraph Hypercube::to_digraph() const {
  DigraphBuilder b(static_cast<Node>(num_nodes()));
  for (Node v = 0; v < num_nodes(); ++v) {
    for (Dim d = 0; d < n_; ++d) b.add_edge(v, neighbor(v, d));
  }
  return std::move(b).build();
}

bool is_valid_path(const Hypercube& q, std::span<const Node> path) {
  if (path.empty()) return false;
  for (Node v : path) {
    if (!q.contains(v)) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!q.is_edge(path[i], path[i + 1])) return false;
  }
  return true;
}

HostPath erase_loops(const HostPath& walk) {
  HostPath out;
  std::unordered_map<Node, std::size_t> pos;
  for (Node v : walk) {
    const auto it = pos.find(v);
    if (it != pos.end()) {
      while (out.size() > it->second + 1) {
        pos.erase(out.back());
        out.pop_back();
      }
    } else {
      pos.emplace(v, out.size());
      out.push_back(v);
    }
  }
  return out;
}

bool hops_distinct(std::vector<std::uint64_t>& hop_ids) {
  std::sort(hop_ids.begin(), hop_ids.end());
  return std::adjacent_find(hop_ids.begin(), hop_ids.end()) == hop_ids.end();
}

}  // namespace hyperpath
