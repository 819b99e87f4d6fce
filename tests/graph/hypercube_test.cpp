#include "graph/hypercube.hpp"

#include <gtest/gtest.h>

#include <set>

#include "base/error.hpp"
#include "graph/digraph.hpp"

namespace hyperpath {
namespace {

TEST(Hypercube, Counts) {
  const Hypercube q(4);
  EXPECT_EQ(q.dims(), 4);
  EXPECT_EQ(q.num_nodes(), 16u);
  EXPECT_EQ(q.num_directed_edges(), 64u);
  EXPECT_EQ(q.num_undirected_edges(), 32u);
}

TEST(Hypercube, NeighborsAndEdges) {
  const Hypercube q(5);
  EXPECT_EQ(q.neighbor(0b00000, 3), 0b01000u);
  EXPECT_TRUE(q.is_edge(0b00101, 0b00100));
  EXPECT_FALSE(q.is_edge(0b00101, 0b00110));
  EXPECT_FALSE(q.is_edge(7, 7));
  EXPECT_EQ(q.edge_dim(0b00101, 0b00001), 2);
  EXPECT_THROW(q.edge_dim(0, 3), Error);
}

TEST(Hypercube, EdgeIdsAreBijective) {
  const Hypercube q(4);
  std::set<std::uint64_t> ids;
  for (Node v = 0; v < q.num_nodes(); ++v) {
    for (Dim d = 0; d < q.dims(); ++d) {
      const auto id = q.edge_id(v, d);
      EXPECT_TRUE(ids.insert(id).second);
      EXPECT_LT(id, q.num_directed_edges());
      const auto [tail, dim] = q.edge_of_id(id);
      EXPECT_EQ(tail, v);
      EXPECT_EQ(dim, d);
    }
  }
  EXPECT_EQ(ids.size(), q.num_directed_edges());
}

TEST(Hypercube, EdgeIdFromEndpoints) {
  const Hypercube q(3);
  EXPECT_EQ(q.edge_id(Node{0b010}, Node{0b011}), q.edge_id(Node{0b010}, Dim{0}));
}

TEST(Hypercube, DistanceIsHamming) {
  const Hypercube q(8);
  EXPECT_EQ(q.distance(0, 0), 0);
  EXPECT_EQ(q.distance(0b10110, 0b00111), 2);
  EXPECT_EQ(q.distance(0, 0xFF), 8);
}

TEST(Hypercube, ToDigraphMatches) {
  const Hypercube q(3);
  const Digraph g = q.to_digraph();
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.num_edges(), 24u);
  for (Node v = 0; v < 8; ++v) {
    EXPECT_EQ(g.out_degree(v), 3u);
    for (Dim d = 0; d < 3; ++d) {
      EXPECT_TRUE(g.has_edge(v, q.neighbor(v, d)));
    }
  }
}

TEST(Hypercube, RejectsBadDims) {
  EXPECT_THROW(Hypercube(0), Error);
  EXPECT_THROW(Hypercube(31), Error);
}

TEST(HostPathCheck, ValidPaths) {
  const Hypercube q(4);
  EXPECT_TRUE(is_valid_path(q, HostPath{0b0000}));
  EXPECT_TRUE(is_valid_path(q, HostPath{0b0000, 0b0001, 0b0011}));
  EXPECT_FALSE(is_valid_path(q, HostPath{}));
  EXPECT_FALSE(is_valid_path(q, HostPath{0b0000, 0b0011}));   // two bits flip
  EXPECT_FALSE(is_valid_path(q, HostPath{0b0000, 0b10000}));  // out of Q_4
}

TEST(HostPathCheck, EdgeDisjointness) {
  const Hypercube q(3);
  std::vector<std::uint64_t> scratch;
  // Two node-sharing but edge-disjoint paths 000→011.
  const std::vector<HostPath> ok{{0b000, 0b001, 0b011}, {0b000, 0b010, 0b011}};
  EXPECT_TRUE(paths_edge_disjoint(q, ok, scratch));
  // Same directed edge twice.
  const std::vector<HostPath> bad{{0b000, 0b001, 0b011},
                                  {0b000, 0b001, 0b101}};
  EXPECT_FALSE(paths_edge_disjoint(q, bad, scratch));
  // Opposite directions of one link are distinct directed edges.
  const std::vector<HostPath> opposite{{0b000, 0b001}, {0b001, 0b000}};
  EXPECT_TRUE(paths_edge_disjoint(q, opposite, scratch));
}

}  // namespace
}  // namespace hyperpath
