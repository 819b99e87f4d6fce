#include "embed/embedding.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <functional>
#include <string>

#include "base/error.hpp"
#include "embed/classical.hpp"
#include "graph/builders.hpp"

namespace hyperpath {
namespace {

// A hand-built width-2 embedding of the directed 2-cycle 0↔1 into Q_2:
// η(0) = 00, η(1) = 11; each edge gets the two disjoint length-2 paths.
MultiPathEmbedding tiny_width2() {
  DigraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  MultiPathEmbedding emb(std::move(b).build(), 2);
  emb.set_node_map({0b00, 0b11});
  const std::size_t e01 = emb.guest().find_edge(0, 1);
  const std::size_t e10 = emb.guest().find_edge(1, 0);
  emb.set_paths(e01, {{0b00, 0b01, 0b11}, {0b00, 0b10, 0b11}});
  emb.set_paths(e10, {{0b11, 0b01, 0b00}, {0b11, 0b10, 0b00}});
  return emb;
}

TEST(MultiPathEmbedding, Metrics) {
  const auto emb = tiny_width2();
  EXPECT_EQ(emb.load(), 1);
  EXPECT_EQ(emb.dilation(), 2);
  EXPECT_EQ(emb.width(), 2);
  EXPECT_EQ(emb.congestion(), 1);
  EXPECT_EQ(emb.expansion(), 2.0);  // 4 host nodes / 2 guest nodes → next pow2 = 2
  EXPECT_NO_THROW(emb.verify_or_throw(2, 1));
}

TEST(MultiPathEmbedding, CongestionPerLinkCounts) {
  const auto emb = tiny_width2();
  const auto cong = emb.congestion_per_link();
  std::uint64_t used = 0;
  for (auto c : cong) used += c;
  EXPECT_EQ(used, 8u);  // 4 paths × 2 hops
}

TEST(MultiPathEmbedding, VerifyCatchesWrongEndpoint) {
  auto emb = tiny_width2();
  const std::size_t e01 = emb.guest().find_edge(0, 1);
  emb.set_paths(e01, {{0b00, 0b01}});  // ends at 01 ≠ η(1)
  EXPECT_THROW(emb.verify_or_throw(), Error);
}

TEST(MultiPathEmbedding, VerifyCatchesNonDisjointBundle) {
  auto emb = tiny_width2();
  const std::size_t e01 = emb.guest().find_edge(0, 1);
  emb.set_paths(e01, {{0b00, 0b01, 0b11}, {0b00, 0b01, 0b11}});
  EXPECT_THROW(emb.verify_or_throw(), Error);
}

TEST(MultiPathEmbedding, VerifyCatchesInvalidWalk) {
  auto emb = tiny_width2();
  const std::size_t e01 = emb.guest().find_edge(0, 1);
  emb.set_paths(e01, {{0b00, 0b11}});  // 2-bit hop
  EXPECT_THROW(emb.verify_or_throw(), Error);
}

TEST(MultiPathEmbedding, VerifyCatchesExcessLoad) {
  DigraphBuilder b(2);
  b.add_edge(0, 1);
  MultiPathEmbedding emb(std::move(b).build(), 2);
  emb.set_node_map({0b00, 0b00});  // two guests on one host, but guest fits
  EXPECT_THROW(emb.verify_or_throw(), Error);
}

TEST(MultiPathEmbedding, LoadTwoAllowedWhenRequested) {
  DigraphBuilder b(2);
  b.add_edge(0, 1);
  MultiPathEmbedding emb(std::move(b).build(), 2);
  emb.set_node_map({0b00, 0b00});
  // With expected_load = 2 the check passes structurally except that the
  // edge's path must loop from 00 to 00 — impossible as a simple edge walk,
  // so use a distinct pair instead.
  emb.set_node_map({0b00, 0b01});
  emb.set_paths(0, {{0b00, 0b01}});
  EXPECT_NO_THROW(emb.verify_or_throw(-1, 2));
}

TEST(MultiPathEmbedding, WidthIsMinimumBundleSize) {
  auto emb = tiny_width2();
  const std::size_t e10 = emb.guest().find_edge(1, 0);
  emb.set_paths(e10, {{0b11, 0b01, 0b00}});
  EXPECT_EQ(emb.width(), 1);
}

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "no error";
}

TEST(MultiPathEmbedding, OutOfOrderWritesReadBackInEdgeOrder) {
  // The Gray-code 8-cycle in Q_3, its bundles written last edge first and
  // the middle one streamed node by node.
  const MultiPathEmbedding ref = gray_code_cycle_embedding(3);
  MultiPathEmbedding emb(ref.guest(), 3);
  emb.set_node_map({ref.node_map().begin(), ref.node_map().end()});
  for (std::size_t e = ref.guest().num_edges(); e-- > 0;) {
    const Edge& ge = emb.guest().edge(e);
    emb.begin_bundle(e);
    if (e == 4) {
      emb.begin_path();
      emb.push_node(emb.host_of(ge.from));
      emb.push_node(emb.host_of(ge.to));
    } else {
      emb.add_path({emb.host_of(ge.from), emb.host_of(ge.to)});
    }
  }
  EXPECT_NO_THROW(emb.verify_or_throw(1, 1));
  for (std::size_t e = 0; e < ref.guest().num_edges(); ++e) {
    ASSERT_EQ(emb.paths(e).size(), 1u) << e;
    EXPECT_EQ(emb.paths(e)[0], ref.paths(e)[0]) << e;
  }
}

TEST(MultiPathEmbedding, SecondWriteReplacesFirst) {
  auto emb = tiny_width2();
  const std::size_t e01 = emb.guest().find_edge(0, 1);
  const std::size_t e10 = emb.guest().find_edge(1, 0);
  emb.set_paths(e01, {{0b00, 0b10, 0b11}});
  ASSERT_EQ(emb.paths(e01).size(), 1u);
  EXPECT_EQ(emb.paths(e01)[0], HostPath({0b00, 0b10, 0b11}));
  emb.begin_bundle(e10);  // streamed rewrite, one path longer than before
  emb.add_path({0b11, 0b10, 0b00});
  emb.add_path({0b11, 0b01, 0b00});
  ASSERT_EQ(emb.paths(e10).size(), 2u);
  EXPECT_EQ(emb.paths(e10)[0], HostPath({0b11, 0b10, 0b00}));
  EXPECT_EQ(emb.paths(e10)[1], HostPath({0b11, 0b01, 0b00}));
  EXPECT_EQ(emb.paths(e01)[0], HostPath({0b00, 0b10, 0b11}));  // untouched
  EXPECT_EQ(emb.width(), 1);
  EXPECT_EQ(emb.congestion(), 1);
  EXPECT_NO_THROW(emb.verify_or_throw(1, 1));
}

TEST(MultiPathEmbedding, RejectsEmptyBundleAndUnsetEdge) {
  auto emb = tiny_width2();
  const std::size_t e01 = emb.guest().find_edge(0, 1);
  EXPECT_NE(error_of([&] { emb.set_paths(e01, {}); })
                .find("bundle must contain at least one path"),
            std::string::npos);
  EXPECT_NE(error_of([&] { emb.set_paths(7, {{0b00}}); })
                .find("edge id out of range"),
            std::string::npos);
  EXPECT_NO_THROW(emb.verify_or_throw(2, 1));  // the failed writes changed nothing

  DigraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  MultiPathEmbedding unset(std::move(b).build(), 2);
  unset.set_node_map({0b00, 0b01});
  unset.set_paths(unset.guest().find_edge(0, 1), {{0b00, 0b01}});
  EXPECT_NE(error_of([&] { unset.verify_or_throw(); })
                .find("guest edge has no image path"),
            std::string::npos);
  // A bundle begun but given no path is as unset as one never begun.
  unset.begin_bundle(unset.guest().find_edge(1, 0));
  EXPECT_TRUE(unset.paths(unset.guest().find_edge(1, 0)).empty());
  EXPECT_NE(error_of([&] { unset.verify_or_throw(); })
                .find("guest edge has no image path"),
            std::string::npos);
  EXPECT_THROW(unset.push_node(0b01), Error);  // no begin_path yet
}

TEST(MultiPathEmbedding, CheckedPathOffsetAcceptsU32MaxAndRejectsPast) {
  constexpr std::uint64_t kMax = 0xffffffffull;
  EXPECT_EQ(checked_path_offset(0), 0u);
  EXPECT_EQ(checked_path_offset(kMax), 0xffffffffu);
  EXPECT_NE(error_of([] { checked_path_offset(kMax + 1); })
                .find("multipath store offset overflow"),
            std::string::npos);
  EXPECT_THROW(checked_path_offset(std::uint64_t{1} << 40), Error);
}

/// Writes copy `c` of `emb` from η and one owning path per guest edge.
void write_copy(KCopyEmbedding& emb, int c, const std::vector<Node>& eta,
                const std::vector<HostPath>& paths) {
  emb.set_node_map(c, eta);
  for (std::size_t e = 0; e < paths.size(); ++e) emb.set_path(c, e, paths[e]);
}

TEST(KCopyEmbedding, TwoCopiesCongestionSums) {
  // Guest: directed 4-cycle.  Two copies along the two orientations of the
  // same host cycle share links in opposite directions only, so congestion
  // stays 1; a duplicated copy forces congestion 2.
  const Digraph guest = directed_cycle(4);
  KCopyEmbedding emb(guest, 2, 2);
  const std::vector<Node> eta{0b00, 0b01, 0b11, 0b10};
  std::vector<HostPath> paths(4);
  for (std::size_t e = 0; e < 4; ++e) {
    const Edge& ge = guest.edge(e);
    paths[e] = {eta[ge.from], eta[ge.to]};
  }
  write_copy(emb, 0, eta, paths);
  write_copy(emb, 1, eta, paths);  // identical copy: every link doubly used
  EXPECT_EQ(emb.num_copies(), 2);
  EXPECT_EQ(emb.dilation(), 1);
  EXPECT_EQ(emb.edge_congestion(), 2);
  EXPECT_NO_THROW(emb.verify_or_throw(2));
  EXPECT_THROW(emb.verify_or_throw(1), Error);
}

TEST(KCopyEmbedding, VerifyCatchesNonInjectiveCopy) {
  const Digraph guest = directed_cycle(4);
  KCopyEmbedding emb(guest, 2, 1);
  std::vector<Node> eta{0, 0, 3, 2};
  std::vector<HostPath> paths(4, HostPath{0, 1});
  write_copy(emb, 0, eta, paths);
  EXPECT_THROW(emb.verify_or_throw(), Error);
}

// The directed 4-cycle into Q_2 with `copies` copies declared and a valid
// copy 0 written, for the error-path tests to corrupt one aspect at a time
// in the copies after it.
KCopyEmbedding one_good_copy(int copies) {
  const Digraph guest = directed_cycle(4);
  KCopyEmbedding emb(guest, 2, copies);
  const std::vector<Node> eta{0b00, 0b01, 0b11, 0b10};
  std::vector<HostPath> paths(4);
  for (std::size_t e = 0; e < 4; ++e) {
    const Edge& ge = guest.edge(e);
    paths[e] = {eta[ge.from], eta[ge.to]};
  }
  write_copy(emb, 0, eta, paths);
  return emb;
}

std::string verify_error(const KCopyEmbedding& emb) {
  try {
    emb.verify_or_throw();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(KCopyEmbedding, VerifyReportsDuplicateEtaEntries) {
  auto emb = one_good_copy(2);
  std::vector<Node> eta{0b00, 0b01, 0b01, 0b10};  // 0b01 twice
  std::vector<HostPath> paths(4, HostPath{0b00, 0b01});
  write_copy(emb, 1, eta, paths);
  EXPECT_NE(verify_error(emb).find("copy node map is not one-to-one"),
            std::string::npos);
}

TEST(KCopyEmbedding, VerifyReportsOutOfRangeEta) {
  auto emb = one_good_copy(2);
  std::vector<Node> eta{0b00, 0b01, 0b11, 0b100};  // 4 ∉ Q_2
  std::vector<HostPath> paths(4, HostPath{0b00, 0b01});
  write_copy(emb, 1, eta, paths);
  EXPECT_NE(verify_error(emb).find("copy node map entry invalid"),
            std::string::npos);
}

TEST(KCopyEmbedding, VerifyReportsWrongPathEndpoints) {
  {
    auto emb = one_good_copy(2);
    std::vector<Node> eta{0b00, 0b01, 0b11, 0b10};
    std::vector<HostPath> paths(4);
    for (std::size_t e = 0; e < 4; ++e) {
      const Edge& ge = emb.guest().edge(e);
      paths[e] = {eta[ge.from], eta[ge.to]};
    }
    paths[0] = {0b01, 0b11};  // starts at η(1), not η(0)
    write_copy(emb, 1, eta, paths);
    EXPECT_NE(verify_error(emb).find("copy path start mismatch"),
              std::string::npos);
  }
  {
    auto emb = one_good_copy(2);
    std::vector<Node> eta{0b00, 0b01, 0b11, 0b10};
    std::vector<HostPath> paths(4);
    for (std::size_t e = 0; e < 4; ++e) {
      const Edge& ge = emb.guest().edge(e);
      paths[e] = {eta[ge.from], eta[ge.to]};
    }
    paths[0] = {0b00, 0b10};  // valid walk, ends at η(3) instead of η(1)
    write_copy(emb, 1, eta, paths);
    EXPECT_NE(verify_error(emb).find("copy path end mismatch"),
              std::string::npos);
  }
}

TEST(KCopyEmbedding, VerifyReportsNonAdjacentHop) {
  auto emb = one_good_copy(2);
  std::vector<Node> eta{0b00, 0b01, 0b11, 0b10};
  std::vector<HostPath> paths(4);
  for (std::size_t e = 0; e < 4; ++e) {
    const Edge& ge = emb.guest().edge(e);
    paths[e] = {eta[ge.from], eta[ge.to]};
  }
  paths[0] = {0b00, 0b11};  // flips two bits at once
  write_copy(emb, 1, eta, paths);
  EXPECT_NE(verify_error(emb).find("copy path is not a hypercube walk"),
            std::string::npos);
}

TEST(KCopyEmbedding, VerifyErrorIsFirstFailingCopy) {
  // Corrupt copies 1 and 2 differently: the thrown error must always be
  // copy 1's, regardless of how the copies shard across pool workers.
  auto emb = one_good_copy(3);
  std::vector<Node> eta{0b00, 0b01, 0b11, 0b10};
  std::vector<HostPath> paths(4);
  for (std::size_t e = 0; e < 4; ++e) {
    const Edge& ge = emb.guest().edge(e);
    paths[e] = {eta[ge.from], eta[ge.to]};
  }
  auto bad_walk = paths;
  bad_walk[0] = {0b00, 0b11};
  write_copy(emb, 1, eta, bad_walk);  // copy 1: invalid walk
  auto bad_eta = eta;
  bad_eta[3] = 0b100;
  write_copy(emb, 2, bad_eta, paths);  // copy 2: η out of range
  EXPECT_NE(verify_error(emb).find("copy path is not a hypercube walk"),
            std::string::npos);
}

TEST(KCopyEmbedding, UnionIdOverflowThrowsBeforeAllocating) {
  // 2^30 copies of a 4-node guest need 2^32 union node ids, and 2^29
  // copies of the 8-edge symmetric 4-cycle need 2^32 union edge ids: the
  // constructor refuses both before it builds anything of the union.
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  EXPECT_NE(error_of([] { KCopyEmbedding(directed_cycle(4), 2, 1 << 30); })
                .find("k-copy union ids overflow"),
            std::string::npos);
  EXPECT_NE(error_of([] { KCopyEmbedding(symmetric_cycle(4), 2, 1 << 29); })
                .find("k-copy union ids overflow"),
            std::string::npos);
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 16 * 1024);  // KiB
  EXPECT_NE(error_of([] { KCopyEmbedding(directed_cycle(4), 2, 0); })
                .find("at least one copy"),
            std::string::npos);
}

TEST(KCopyEmbedding, UnwrittenCopyFailsVerify) {
  auto emb = one_good_copy(2);  // copy 1 declared, never written
  EXPECT_NE(verify_error(emb).find("copy node map entry invalid"),
            std::string::npos);
  // A node map alone is not a copy: every guest edge needs its path.
  emb.set_node_map(1, std::vector<Node>{0b00, 0b01, 0b11, 0b10});
  EXPECT_NE(verify_error(emb).find("copy edge has no path"),
            std::string::npos);
}

TEST(KCopyEmbedding, WritingPastDeclaredCopyCountThrows) {
  auto emb = one_good_copy(1);
  const std::vector<Node> eta{0b00, 0b01, 0b11, 0b10};
  for (const int c : {1, -1}) {
    EXPECT_NE(error_of([&] { emb.set_node_map(c, eta); })
                  .find("copy index out of range"),
              std::string::npos);
    EXPECT_NE(error_of([&] { emb.set_path(c, 0, {0b00, 0b01}); })
                  .find("copy index out of range"),
              std::string::npos);
    EXPECT_NE(error_of([&] { emb.set_direct_copy(c, eta); })
                  .find("copy index out of range"),
              std::string::npos);
  }
  // Edge 4 of copy 0 would be union edge 4 — copy 1's edge 0 — if unchecked.
  EXPECT_NE(error_of([&] { emb.set_path(0, 4, {0b00, 0b01}); })
                .find("edge id out of range"),
            std::string::npos);
  EXPECT_NE(error_of([&] { emb.set_node_map(0, std::vector<Node>{0, 1}); })
                .find("copy node map size mismatch"),
            std::string::npos);
  EXPECT_EQ(emb.num_copies(), 1);
  EXPECT_NO_THROW(emb.verify_or_throw());
}

TEST(KCopyEmbedding, NodeMapAndHostOfReadCopySlice) {
  // Three copies of the directed 4-cycle around Q_2: two share the
  // orientation (congestion 2), the third runs the other way.
  const std::vector<std::vector<Node>> etas = {{0b00, 0b01, 0b11, 0b10},
                                               {0b01, 0b11, 0b10, 0b00},
                                               {0b00, 0b10, 0b11, 0b01}};
  const Digraph guest = directed_cycle(4);
  KCopyEmbedding emb(guest, 2, 3);
  for (int c = 0; c < 3; ++c) emb.set_direct_copy(c, etas[c]);
  ASSERT_NO_THROW(emb.verify_or_throw(2));
  EXPECT_EQ(emb.edge_congestion(), 2);

  const MultiPathEmbedding& u = emb.multipath();
  ASSERT_EQ(u.guest().num_nodes(), 12u);
  ASSERT_EQ(u.guest().num_edges(), 12u);
  EXPECT_EQ(u.width(), 1);
  for (int c = 0; c < 3; ++c) {
    const auto slice = emb.node_map(c);
    EXPECT_EQ(std::vector<Node>(slice.begin(), slice.end()), etas[c]);
    for (Node v = 0; v < 4; ++v) {
      EXPECT_EQ(emb.host_of(c, v), etas[c][v]);
      EXPECT_EQ(u.host_of(4 * c + v), etas[c][v]);
    }
    for (std::size_t e = 0; e < 4; ++e) {
      const Edge& ge = guest.edge(e);
      EXPECT_EQ(u.guest().edge(4 * c + e),
                (Edge{4 * static_cast<Node>(c) + ge.from,
                      4 * static_cast<Node>(c) + ge.to}));
      EXPECT_EQ(HostPath(emb.path(c, e)),
                (HostPath{etas[c][ge.from], etas[c][ge.to]}));
    }
  }
}

}  // namespace
}  // namespace hyperpath
