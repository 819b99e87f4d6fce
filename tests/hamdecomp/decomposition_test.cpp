#include "hamdecomp/decomposition.hpp"

#include <gtest/gtest.h>

#include "base/bits.hpp"
#include "base/error.hpp"

namespace hyperpath {
namespace {

TEST(HamDecomposition, Q1IsJustTheMatching) {
  const auto& d = hamiltonian_decomposition(1);
  EXPECT_EQ(d.dims, 1);
  EXPECT_TRUE(d.cycles.empty());
  ASSERT_EQ(d.matching.size(), 1u);
}

TEST(HamDecomposition, Q2IsOneCycle) {
  const auto& d = hamiltonian_decomposition(2);
  ASSERT_EQ(d.cycles.size(), 1u);
  EXPECT_EQ(d.cycles[0], (std::vector<Node>{0, 1, 3, 2}));
  EXPECT_TRUE(d.matching.empty());
}

// Q_15 is spliced from the largest table (Q_14); past it there is no
// decomposition to serve, and the library runs no search.
TEST(HamDecomposition, RejectsDimsOutsideTheServedRange) {
  EXPECT_THROW(hamiltonian_decomposition(0), Error);
  EXPECT_THROW(hamiltonian_decomposition(kMaxDecompositionDims + 1), Error);
}

// Alspach–Bermond–Sotteau: Q_{2k} → k Hamiltonian cycles; Q_{2k+1} → k
// cycles + a perfect matching.  verify_or_throw() checks Hamiltonicity,
// edge-disjointness, full coverage, and matching perfectness.
class HamDecompositionAll : public ::testing::TestWithParam<int> {};

TEST_P(HamDecompositionAll, IsValidDecomposition) {
  const int n = GetParam();
  const auto& d = hamiltonian_decomposition(n);
  EXPECT_EQ(d.dims, n);
  EXPECT_EQ(d.cycles.size(), static_cast<std::size_t>(n / 2));
  if (n % 2 == 0) {
    EXPECT_TRUE(d.matching.empty());
  } else {
    EXPECT_EQ(d.matching.size(), pow2(n - 1));
  }
  EXPECT_NO_THROW(d.verify_or_throw());
}

INSTANTIATE_TEST_SUITE_P(UpToQ9, HamDecompositionAll,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9));

TEST(HamDecomposition, CachedInstanceIsStable) {
  const auto& a = hamiltonian_decomposition(6);
  const auto& b = hamiltonian_decomposition(6);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(HamDecomposition, VerifyCatchesMissingEdgeCoverage) {
  HamDecomposition d = hamiltonian_decomposition(4);
  d.cycles.pop_back();
  EXPECT_THROW(d.verify_or_throw(), Error);
}

TEST(HamDecomposition, VerifyCatchesDuplicatedCycle) {
  HamDecomposition d = hamiltonian_decomposition(4);
  d.cycles[1] = d.cycles[0];
  EXPECT_THROW(d.verify_or_throw(), Error);
}

TEST(HamDecomposition, VerifyCatchesNonHamiltonianCycle) {
  HamDecomposition d = hamiltonian_decomposition(4);
  d.cycles[0][3] = d.cycles[0][0];  // revisit
  EXPECT_THROW(d.verify_or_throw(), Error);
}

TEST(HamDecomposition, VerifyCatchesBrokenMatching) {
  HamDecomposition d = hamiltonian_decomposition(3);
  ASSERT_FALSE(d.matching.empty());
  d.matching[0] = d.matching[1];
  EXPECT_THROW(d.verify_or_throw(), Error);
}

TEST(SpliceOdd, BuildsValidOddFromEven) {
  for (int even : {2, 4, 6}) {
    const HamDecomposition odd =
        splice_odd_decomposition(hamiltonian_decomposition(even));
    EXPECT_EQ(odd.dims, even + 1);
    EXPECT_NO_THROW(odd.verify_or_throw());
  }
}

TEST(SpliceOdd, RejectsOddInput) {
  EXPECT_THROW(splice_odd_decomposition(hamiltonian_decomposition(3)), Error);
}

}  // namespace
}  // namespace hyperpath
