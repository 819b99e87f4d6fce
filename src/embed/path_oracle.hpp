// PathOracle: on-demand routing queries decoupled from materialized bundles.
//
// Every construction in src/core is closed-form — Gray-code rank/unrank,
// moments M(v) (Lemma 2), Hamiltonian-decomposition successor tables — so
// the i-th path of the bundle for a guest edge is computable in O(path
// length) with O(1) per-query state.  MultiPathEmbedding materializes the
// whole structure anyway, which caps the host dimension at what fits in
// RAM (a Q_20 grid's bundles alone are ~1 GiB of little vectors).
//
// PathOracle is the query interface both worlds implement:
//
//   * MaterializedOracle — wraps an existing MultiPathEmbedding; answers
//     are spans into the stored bundles, bit-for-bit the current behavior.
//   * the algebraic generators (src/core/algebraic_oracle.hpp) — compute
//     η and every bundle path from closed form, never allocating a bundle;
//     peak state is a few KiB of per-cycle successor tables, independent
//     of how many queries run.  This is what unlocks Q_24–Q_30 hosts.
//
// Consumers that only need per-route streams (RoutePlan compilation, the
// recovery engine's next-surviving-path probe, the sampling verifier
// below) take a PathOracle so they run identically on either backend.
// A consumer that wants every path of an edge (the oracle phase's
// compile) asks once with append_bundle, which decodes the edge once.
//
// Width discipline: guest ids and edge counts are 64-bit (OracleId).  A
// large-copy guest has ⌊n/2⌋·2^{n+1} nodes and a dense directed-link id
// space is n·2^n — both overflow uint32 before the host address does
// (hosts stop at Q_30, so hypercube Node stays 32-bit).  Narrowing back
// to 32 bits happens only at the simulator boundary, via checked_u32.
//
// Edge identity is the (from, to) guest-node pair, not a dense edge index:
// the digraph's edge ids exist only after materializing the edge list, and
// non-wrap grids have no O(1) dense indexing.  out_degree/out_edge
// enumerate a node's out-edges in ascending `to` order — exactly the order
// Digraph stores them — so (node, slot) walks agree across backends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hpp"
#include "embed/embedding.hpp"

namespace hyperpath {

/// 64-bit guest node id / guest edge count (see width discipline above).
using OracleId = std::uint64_t;

/// Checked narrowing at the 32-bit simulator boundary: values that fit are
/// passed through; values that do not are an error, never a silent wrap.
inline std::uint32_t checked_u32(std::uint64_t v, const char* what) {
  HP_CHECK(v <= 0xffffffffull, what);
  return static_cast<std::uint32_t>(v);
}

/// A guest edge named by its endpoints.
struct OracleEdge {
  OracleId from = 0;
  OracleId to = 0;

  bool operator==(const OracleEdge&) const = default;
};

/// Receives one path's host nodes in order, one hop at a time.  Generators
/// call push() for η(u), each intermediate node, then η(v); they never
/// allocate, so a sink that streams (into a RoutePlan, a digest, a socket)
/// keeps the whole query allocation-free.
class NodeSink {
 public:
  virtual ~NodeSink() = default;
  virtual void push(Node v) = 0;
};

/// Sink that collects into a HostPath — the convenience/testing adapter.
class VectorSink final : public NodeSink {
 public:
  explicit VectorSink(HostPath& out) : out_(out) {}
  void push(Node v) override { out_.push_back(v); }

 private:
  HostPath& out_;
};

/// The backend-neutral routing query interface.
class PathOracle {
 public:
  virtual ~PathOracle() = default;

  /// Host dimension n (host is always Q_n).
  virtual int host_dims() const = 0;

  /// Guest |V| and |E| (64-bit: see width discipline above).
  virtual OracleId guest_nodes() const = 0;
  virtual OracleId guest_edges() const = 0;

  /// η(guest): the host image of a guest node.
  virtual Node host_of(OracleId guest) const = 0;

  /// Out-edges of a guest node, slot-indexed in ascending `to` order
  /// (Digraph storage order, so backends agree on (node, slot) walks).
  virtual int out_degree(OracleId guest) const = 0;
  virtual OracleEdge out_edge(OracleId guest, int slot) const = 0;

  /// Bundle size for a guest edge (the embedding's width at that edge).
  virtual int width(const OracleEdge& edge) const = 0;

  /// Hop count (path length in links) of bundle path `index`, without
  /// generating it — O(1) on the algebraic backends.
  virtual std::uint32_t path_hops(const OracleEdge& edge, int index) const = 0;

  /// Streams bundle path `index` of `edge`: η(from), intermediates, η(to).
  virtual void path(const OracleEdge& edge, int index,
                    NodeSink& sink) const = 0;

  /// The whole bundle of `edge` in one query: appends paths 0 .. w−1, each
  /// as path() streams it, to `nodes`, and after each path the new size of
  /// `nodes` to `ends`.  Path i is nodes[ends[i−1], ends[i]) of the
  /// appended part, and its hop count is its node count minus one.  The
  /// default runs width() and then path() per index; the grid backend (the
  /// Q_24 oracle phase's) overrides it to decode the edge's coordinates and
  /// compute η once.  Throws what width() throws for a pair that is no
  /// guest edge.
  virtual void append_bundle(const OracleEdge& edge, std::vector<Node>& nodes,
                             std::vector<std::size_t>& ends) const;

  /// Family tag for reports ("theorem1", "grid", "largecopy",
  /// "materialized").
  virtual const char* family() const = 0;

  // --- convenience (materializing; tests and small-n callers) -------------

  HostPath path_vec(const OracleEdge& edge, int index) const;
  /// append_bundle() split into one HostPath per path.
  std::vector<HostPath> bundle(const OracleEdge& edge) const;
};

/// The materialized backend: every query answered from a stored
/// MultiPathEmbedding.  The embedding must outlive the oracle.
class MaterializedOracle final : public PathOracle {
 public:
  explicit MaterializedOracle(const MultiPathEmbedding& emb) : emb_(emb) {}

  int host_dims() const override { return emb_.host().dims(); }
  OracleId guest_nodes() const override { return emb_.guest().num_nodes(); }
  OracleId guest_edges() const override { return emb_.guest().num_edges(); }
  Node host_of(OracleId guest) const override;
  int out_degree(OracleId guest) const override;
  OracleEdge out_edge(OracleId guest, int slot) const override;
  int width(const OracleEdge& edge) const override;
  std::uint32_t path_hops(const OracleEdge& edge, int index) const override;
  void path(const OracleEdge& edge, int index, NodeSink& sink) const override;
  const char* family() const override { return "materialized"; }

  const MultiPathEmbedding& embedding() const { return emb_; }

 private:
  /// Dense guest edge id of (from, to); throws if the edge doesn't exist.
  std::size_t edge_index(const OracleEdge& edge) const;

  const MultiPathEmbedding& emb_;
};

/// Every guest edge in (node, slot) order.  On a MaterializedOracle that is
/// the embedding's edge-id order: entry e is guest edge e.  Materializes
/// guest_edges() entries, so it is for hosts small enough to enumerate.
std::vector<OracleEdge> all_guest_edges(const PathOracle& oracle);

// --- sampling verification -------------------------------------------------

/// Seeded uniform sample of `count` guest edges: each draw picks a guest
/// node, then one of its out-edge slots.  Deterministic for a fixed
/// (oracle shape, count, seed) — callers that need the floor and the
/// simulation to see the same traffic share one sample.
std::vector<OracleEdge> sample_guest_edges(const PathOracle& oracle,
                                           std::uint64_t count,
                                           std::uint64_t seed);

/// What one sampling sweep verified (all counts, for reports/gates).
struct OracleSampleReport {
  std::uint64_t edges_checked = 0;
  std::uint64_t paths_checked = 0;
  std::uint64_t hops_checked = 0;
  /// XOR-rotate digest over every streamed node — two backends that pass
  /// the same sample with equal digests emitted identical hop streams.
  std::uint64_t node_digest = 0;
};

/// The sampling-verification contract for dimensions where exhaustive
/// verification is impossible: for each sampled edge and *every* bundle
/// path, checks (a) the stream starts at η(from) and ends at η(to),
/// (b) consecutive nodes are host-adjacent (single bit flip inside Q_n),
/// (c) the declared path_hops matches the streamed length, and (d) the
/// bundle's paths are pairwise edge-disjoint.  Throws on any violation.
OracleSampleReport oracle_sample_check(const PathOracle& oracle,
                                       std::uint64_t count,
                                       std::uint64_t seed);

}  // namespace hyperpath
