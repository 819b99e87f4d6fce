#include "hamdecomp_solver/solver.hpp"

#include <gtest/gtest.h>

#include <set>

#include "base/bits.hpp"
#include "base/error.hpp"

namespace hyperpath {
namespace {

TEST(CubeSubgraph, FullGraphDegrees) {
  CubeSubgraph g(4, true);
  EXPECT_EQ(g.num_nodes(), 16u);
  for (Node v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4);
}

TEST(CubeSubgraph, RemoveAddSymmetric) {
  CubeSubgraph g(3, true);
  g.remove_edge(0b000, 1);
  EXPECT_FALSE(g.has_edge(0b000, 1));
  EXPECT_FALSE(g.has_edge(0b010, 1));
  EXPECT_EQ(g.degree(0), 2);
  g.add_edge(0b010, 1);
  EXPECT_TRUE(g.has_edge(0b000, 1));
  EXPECT_THROW(g.add_edge(0, 1), Error);
  EXPECT_THROW(g.remove_edge(7, 5), Error);
}

void expect_hamiltonian(int dims, const std::vector<Node>& cycle) {
  ASSERT_EQ(cycle.size(), pow2(dims));
  std::set<Node> seen(cycle.begin(), cycle.end());
  EXPECT_EQ(seen.size(), cycle.size());
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    EXPECT_TRUE(is_pow2(cycle[i] ^ cycle[(i + 1) % cycle.size()]));
  }
}

TEST(Posa, FindsCycleInFullCube) {
  for (int dims : {2, 3, 4, 5, 6, 8}) {
    CubeSubgraph g(dims, true);
    Rng rng(1234 + dims);
    const auto cycle = find_hamiltonian_cycle(g, rng, 400 * pow2(dims));
    ASSERT_TRUE(cycle.has_value()) << "dims=" << dims;
    expect_hamiltonian(dims, *cycle);
  }
}

TEST(Posa, DoesNotUseRemovedEdges) {
  CubeSubgraph g(5, true);
  // Remove a random-ish matching in dimension 0 to constrain the search.
  for (Node v = 0; v < 32; v += 2) {
    if (!test_bit(v, 0) && (v % 8) == 0) g.remove_edge(v, 0);
  }
  Rng rng(7);
  const auto cycle = find_hamiltonian_cycle(g, rng, 400 * 32);
  ASSERT_TRUE(cycle.has_value());
  for (std::size_t i = 0; i < cycle->size(); ++i) {
    const Node a = (*cycle)[i];
    const Node b = (*cycle)[(i + 1) % cycle->size()];
    EXPECT_TRUE(g.has_edge(a, count_trailing_zeros(a ^ b)));
  }
}

TEST(Split, FourRegularQ4SplitsIntoTwoHamiltonianCycles) {
  CubeSubgraph g(4, true);  // Q_4 itself is 4-regular
  Rng rng(99);
  const auto pair = split_four_regular(g, rng, 400 * 16);
  ASSERT_TRUE(pair.has_value());
  expect_hamiltonian(4, pair->first);
  expect_hamiltonian(4, pair->second);
  // Edge-disjoint: 16 + 16 = 32 = |E(Q_4)| distinct undirected edges.
  std::set<std::pair<Node, Node>> edges;
  for (const auto* cyc : {&pair->first, &pair->second}) {
    for (std::size_t i = 0; i < cyc->size(); ++i) {
      Node a = (*cyc)[i], b = (*cyc)[(i + 1) % cyc->size()];
      if (a > b) std::swap(a, b);
      EXPECT_TRUE(edges.emplace(a, b).second);
    }
  }
  EXPECT_EQ(edges.size(), 32u);
}

TEST(Split, RejectsNonFourRegular) {
  CubeSubgraph g(3, true);  // 3-regular
  Rng rng(1);
  EXPECT_THROW(split_four_regular(g, rng, 100), Error);
}

class SolveEven : public ::testing::TestWithParam<int> {};

TEST_P(SolveEven, ProducesVerifiedDecomposition) {
  const int dims = GetParam();
  const HamDecomposition d = solve_even_decomposition(dims, 0xABCDEF);
  EXPECT_EQ(d.dims, dims);
  EXPECT_NO_THROW(d.verify_or_throw());
}

INSTANTIATE_TEST_SUITE_P(SmallEvenCubes, SolveEven,
                         ::testing::Values(2, 4, 6, 8));

TEST(SolveEven, DifferentSeedsBothValid) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    EXPECT_NO_THROW(solve_even_decomposition(6, seed).verify_or_throw());
  }
}

TEST(SolveEven, RejectsOddDims) {
  EXPECT_THROW(solve_even_decomposition(5, 1), Error);
}

}  // namespace
}  // namespace hyperpath
