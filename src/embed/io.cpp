#include "embed/io.hpp"

#include <istream>
#include <ostream>
#include <string>

#include "base/error.hpp"

namespace hyperpath {

namespace {

constexpr const char* kMagic = "hyperpath-multipath";
constexpr const char* kVersion = "v1";

void expect_token(std::istream& is, const char* want) {
  std::string got;
  HP_CHECK(static_cast<bool>(is >> got) && got == want,
           std::string("expected token '") + want + "', got '" + got + "'");
}

template <typename T>
T read_value(std::istream& is, const char* what) {
  T v;
  HP_CHECK(static_cast<bool>(is >> v), std::string("failed to read ") + what);
  return v;
}

}  // namespace

void save_multipath(std::ostream& os, const MultiPathEmbedding& emb) {
  os << kMagic << ' ' << kVersion << '\n';
  os << "host " << emb.host().dims() << '\n';
  const Digraph& g = emb.guest();
  os << "guest " << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges()) {
    os << "edge " << e.from << ' ' << e.to << '\n';
  }
  os << "eta";
  for (Node v : emb.node_map()) os << ' ' << v;
  os << '\n';
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto bundle = emb.paths(e);
    os << "bundle " << e << ' ' << bundle.size() << '\n';
    for (const PathView p : bundle) {
      os << "path " << p.size();
      for (Node v : p) os << ' ' << v;
      os << '\n';
    }
  }
}

MultiPathEmbedding load_multipath(std::istream& is, int expected_load) {
  expect_token(is, kMagic);
  expect_token(is, kVersion);
  expect_token(is, "host");
  const int dims = read_value<int>(is, "host dims");
  expect_token(is, "guest");
  const Node n_nodes = read_value<Node>(is, "guest node count");
  const std::size_t n_edges = read_value<std::size_t>(is, "guest edge count");

  DigraphBuilder b(n_nodes);
  for (std::size_t e = 0; e < n_edges; ++e) {
    expect_token(is, "edge");
    const Node from = read_value<Node>(is, "edge tail");
    const Node to = read_value<Node>(is, "edge head");
    b.add_edge(from, to);
  }
  MultiPathEmbedding emb(std::move(b).build(), dims);
  HP_CHECK(emb.guest().num_edges() == n_edges, "edge count mismatch");

  expect_token(is, "eta");
  std::vector<Node> eta(n_nodes);
  for (Node& v : eta) v = read_value<Node>(is, "eta entry");
  emb.set_node_map(std::move(eta));

  for (std::size_t e = 0; e < n_edges; ++e) {
    expect_token(is, "bundle");
    const std::size_t id = read_value<std::size_t>(is, "bundle edge id");
    HP_CHECK(id == e, "bundles out of order");
    const std::size_t count = read_value<std::size_t>(is, "bundle size");
    HP_CHECK(count >= 1 && count <= 4096, "implausible bundle size");
    emb.begin_bundle(e);
    for (std::size_t j = 0; j < count; ++j) {
      expect_token(is, "path");
      const std::size_t len = read_value<std::size_t>(is, "path length");
      HP_CHECK(len >= 1 && len <= 1u << 20, "implausible path length");
      emb.begin_path();
      for (std::size_t i = 0; i < len; ++i) {
        emb.push_node(read_value<Node>(is, "path node"));
      }
    }
  }
  emb.verify_or_throw(-1, expected_load);
  return emb;
}

}  // namespace hyperpath
