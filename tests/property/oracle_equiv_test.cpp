// Backend equivalence: the algebraic PathOracle generators must be
// bit-identical to MaterializedOracle over the real embeddings — same
// guest shape, same out-edge enumeration, same η, same bundle widths and
// declared hop counts, same node sequence of every bundle path of every
// guest edge.  Exhaustive at materializable sizes; this suite is the
// license to run the algebraic backend alone at Q_20+ where the
// materialized side cannot exist.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/error.hpp"
#include "ccc/ccc_embed.hpp"
#include "core/algebraic_oracle.hpp"
#include "core/cycle_multipath.hpp"
#include "core/grid_multipath.hpp"
#include "core/largecopy.hpp"
#include "embed/path_oracle.hpp"

namespace hyperpath {
namespace {

/// Exhaustively compares two oracles: shape, η, out-edge walks, widths,
/// declared hop counts, and the node sequence of every path.
void expect_equivalent(const PathOracle& alg, const PathOracle& mat) {
  ASSERT_EQ(alg.host_dims(), mat.host_dims());
  ASSERT_EQ(alg.guest_nodes(), mat.guest_nodes());
  ASSERT_EQ(alg.guest_edges(), mat.guest_edges());
  for (OracleId g = 0; g < alg.guest_nodes(); ++g) {
    ASSERT_EQ(alg.host_of(g), mat.host_of(g)) << "eta mismatch at guest " << g;
    ASSERT_EQ(alg.out_degree(g), mat.out_degree(g)) << "guest " << g;
    for (int s = 0; s < alg.out_degree(g); ++s) {
      const OracleEdge e = alg.out_edge(g, s);
      ASSERT_EQ(e, mat.out_edge(g, s)) << "guest " << g << " slot " << s;
      ASSERT_EQ(alg.width(e), mat.width(e)) << "guest " << g << " slot " << s;
      for (int i = 0; i < alg.width(e); ++i) {
        ASSERT_EQ(alg.path_hops(e, i), mat.path_hops(e, i))
            << "guest " << g << " slot " << s << " path " << i;
        ASSERT_EQ(alg.path_vec(e, i), mat.path_vec(e, i))
            << "guest " << g << " slot " << s << " path " << i;
      }
    }
  }
}

TEST(OracleEquiv, Theorem1AllSupportedSmall) {
  for (const int n : {4, 5, 6, 7, 8, 9, 10, 11}) {
    SCOPED_TRACE(n);
    const MultiPathEmbedding emb = theorem1_cycle_embedding(n);
    const MaterializedOracle mat(emb);
    const auto alg = algebraic_theorem1_oracle(n);
    expect_equivalent(*alg, mat);
  }
}

TEST(OracleEquiv, Theorem1Q16) {
  const MultiPathEmbedding emb = theorem1_cycle_embedding(16);
  const MaterializedOracle mat(emb);
  const auto alg = algebraic_theorem1_oracle(16);
  expect_equivalent(*alg, mat);
}

TEST(OracleEquiv, TorusSquare) {
  const GridSpec spec{{16, 16}, true};
  ASSERT_TRUE(algebraic_grid_supported(spec));
  const MultiPathEmbedding emb = grid_multipath_embedding(spec);
  const MaterializedOracle mat(emb);
  const auto alg = algebraic_grid_oracle(spec);
  expect_equivalent(*alg, mat);
}

TEST(OracleEquiv, TorusRectangular) {
  const GridSpec spec{{256, 16}, true};
  ASSERT_TRUE(algebraic_grid_supported(spec));
  const MultiPathEmbedding emb = grid_multipath_embedding(spec);
  const MaterializedOracle mat(emb);
  const auto alg = algebraic_grid_oracle(spec);
  expect_equivalent(*alg, mat);
}

TEST(OracleEquiv, GridNonPow2NonWrap) {
  const GridSpec spec{{10, 17}, false};
  ASSERT_TRUE(algebraic_grid_supported(spec));
  const MultiPathEmbedding emb = grid_multipath_embedding(spec);
  const MaterializedOracle mat(emb);
  const auto alg = algebraic_grid_oracle(spec);
  expect_equivalent(*alg, mat);
}

TEST(OracleEquiv, TorusQ16Large) {
  const GridSpec spec{{1024, 64}, true};
  ASSERT_TRUE(algebraic_grid_supported(spec));
  const MultiPathEmbedding emb = grid_multipath_embedding(spec);
  const MaterializedOracle mat(emb);
  const auto alg = algebraic_grid_oracle(spec);
  expect_equivalent(*alg, mat);
}

TEST(OracleEquiv, Largecopy) {
  for (const int n : {2, 3, 4, 5, 6, 7, 8}) {
    SCOPED_TRACE(n);
    const MultiPathEmbedding emb = largecopy_directed_cycle(n);
    const MaterializedOracle mat(emb);
    const auto alg = algebraic_largecopy_oracle(n);
    expect_equivalent(*alg, mat);
  }
}

/// The sampling verifier must agree between backends too: same seed, same
/// sampled edges, same digest — so a Q_20+ algebraic digest is comparable
/// to a small-n materialized one in reports.
TEST(OracleEquiv, SampleDigestMatchesAcrossBackends) {
  const MultiPathEmbedding emb = theorem1_cycle_embedding(8);
  const MaterializedOracle mat(emb);
  const auto alg = algebraic_theorem1_oracle(8);
  const OracleSampleReport a = oracle_sample_check(*alg, 64, 123);
  const OracleSampleReport b = oracle_sample_check(mat, 64, 123);
  EXPECT_EQ(a.edges_checked, b.edges_checked);
  EXPECT_EQ(a.paths_checked, b.paths_checked);
  EXPECT_EQ(a.hops_checked, b.hops_checked);
  EXPECT_EQ(a.node_digest, b.node_digest);
}

/// The one-query bundle (append_bundle) must be the per-path queries
/// joined: for each edge, one end per path, path i node for node what
/// path() streams, its length what path_hops() declares, appended after
/// whatever the buffers already hold; bundle() must split it the same way.
/// A pair that is no guest edge is rejected before anything is appended.
void expect_bundle_query(const PathOracle& oracle,
                         const std::vector<OracleEdge>& edges) {
  ASSERT_FALSE(edges.empty());
  std::vector<Node> nodes = {7, 7, 7};  // earlier contents stay put
  std::vector<std::size_t> ends = {3};
  for (const OracleEdge& e : edges) {
    const std::size_t start = nodes.size();
    const std::size_t first_end = ends.size();
    oracle.append_bundle(e, nodes, ends);
    const int w = oracle.width(e);
    ASSERT_EQ(ends.size() - first_end, static_cast<std::size_t>(w));
    const std::vector<HostPath> split = oracle.bundle(e);
    ASSERT_EQ(split.size(), static_cast<std::size_t>(w));
    std::size_t begin = start;
    for (int i = 0; i < w; ++i) {
      SCOPED_TRACE("edge (" + std::to_string(e.from) + ", " +
                   std::to_string(e.to) + ") path " + std::to_string(i));
      const std::size_t end = ends[first_end + i];
      ASSERT_LT(begin, end);
      const HostPath got(nodes.begin() + begin, nodes.begin() + end);
      ASSERT_EQ(got, oracle.path_vec(e, i));
      ASSERT_EQ(got.size() - 1, oracle.path_hops(e, i));
      ASSERT_EQ(split[i], got);
      begin = end;
    }
    ASSERT_EQ(begin, nodes.size());
  }
  EXPECT_EQ(nodes[0], 7u);
  EXPECT_EQ(ends[0], 3u);

  // (from, from) is no edge of any of these guests.
  const std::size_t before_nodes = nodes.size();
  const std::size_t before_ends = ends.size();
  const OracleEdge loop{edges.front().from, edges.front().from};
  EXPECT_THROW(oracle.append_bundle(loop, nodes, ends), Error);
  EXPECT_THROW(oracle.bundle(loop), Error);
  EXPECT_EQ(nodes.size(), before_nodes);
  EXPECT_EQ(ends.size(), before_ends);
}

TEST(OracleEquiv, BundleQueryTheorem1) {
  for (const int n : {4, 8, 11}) {
    SCOPED_TRACE(n);
    const auto alg = algebraic_theorem1_oracle(n);
    expect_bundle_query(*alg, all_guest_edges(*alg));
  }
}

TEST(OracleEquiv, BundleQueryTorus) {
  const auto small = algebraic_grid_oracle(GridSpec{{256, 16}, true});
  expect_bundle_query(*small, all_guest_edges(*small));
  // The Q_24 torus of the oracle phase, on a sample.
  const auto q24 = algebraic_grid_oracle(GridSpec{{256, 256, 256}, true});
  expect_bundle_query(*q24, sample_guest_edges(*q24, 2000, 7));
}

TEST(OracleEquiv, BundleQueryGridNonWrap) {
  const auto alg = algebraic_grid_oracle(GridSpec{{10, 17}, false});
  expect_bundle_query(*alg, all_guest_edges(*alg));
}

TEST(OracleEquiv, BundleQueryLargecopy) {
  const auto alg = algebraic_largecopy_oracle(6);
  expect_bundle_query(*alg, all_guest_edges(*alg));
}

TEST(OracleEquiv, BundleQueryMaterialized) {
  const MultiPathEmbedding cycle = theorem1_cycle_embedding(8);
  const MaterializedOracle cycle_mat(cycle);
  expect_bundle_query(cycle_mat, all_guest_edges(cycle_mat));
  const MultiPathEmbedding grid =
      grid_multipath_embedding(GridSpec{{10, 17}, false});
  const MaterializedOracle grid_mat(grid);
  expect_bundle_query(grid_mat, all_guest_edges(grid_mat));
}

/// A k-copy embedding's union behind a MaterializedOracle: entry c·|E| + e
/// of all_guest_edges is copy c's guest edge e, and the oracle replays that
/// copy's path node for node.
void expect_kcopy_replay(const KCopyEmbedding& emb) {
  const MaterializedOracle mat(emb.multipath());
  const std::vector<OracleEdge> edges = all_guest_edges(mat);
  const Digraph& g = emb.guest();
  ASSERT_EQ(edges.size(), g.num_edges() * emb.num_copies());
  for (int c = 0; c < emb.num_copies(); ++c) {
    const OracleId base = static_cast<OracleId>(c) * g.num_nodes();
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const OracleEdge& oe = edges[c * g.num_edges() + e];
      ASSERT_EQ(oe, (OracleEdge{base + g.edge(e).from, base + g.edge(e).to}))
          << "copy " << c << " edge " << e;
      ASSERT_EQ(mat.width(oe), 1);
      ASSERT_EQ(mat.path_vec(oe, 0), HostPath(emb.path(c, e)))
          << "copy " << c << " edge " << e;
    }
  }
}

TEST(OracleEquiv, KCopyUnionCcc8) {
  expect_kcopy_replay(ccc_multicopy_embedding(8));
}

TEST(OracleEquiv, KCopyUnionTorus8x8) {
  expect_kcopy_replay(multicopy_torus(GridSpec{{8, 8}, true}));
}

}  // namespace
}  // namespace hyperpath
