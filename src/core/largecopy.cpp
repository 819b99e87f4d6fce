#include "core/largecopy.hpp"

#include "base/bits.hpp"
#include "base/error.hpp"
#include "graph/builders.hpp"
#include "hamdecomp/decomposition.hpp"
#include "hamdecomp/directed.hpp"
#include "obs/profile.hpp"

namespace hyperpath {

namespace {

/// Shared by the large-copy constructions: every guest edge maps to the
/// single direct path between its endpoints' images.
void set_direct_paths(MultiPathEmbedding& emb) {
  const Digraph& g = emb.guest();
  emb.reserve(g.num_edges(), 2 * g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& ge = g.edge(e);
    emb.begin_bundle(e);
    emb.add_path({emb.host_of(ge.from), emb.host_of(ge.to)});
  }
}

}  // namespace

MultiPathEmbedding largecopy_directed_cycle(int n) {
  HP_PROFILE_SPAN("construct/largecopy_directed");
  const DirectedCycleFamily fam(n);
  const int copies = fam.num_cycles();
  const std::uint64_t n_nodes = pow2(n);
  const Node guest_len = static_cast<Node>(copies * n_nodes);

  MultiPathEmbedding emb(directed_cycle(guest_len), n);

  // Traverse cycle 0 fully from node 0, then cycle 1 from node 0, etc.;
  // the wrap from each cycle's last node back to node 0 is that cycle's own
  // closing edge, so consecutive guest nodes are always hypercube-adjacent.
  std::vector<Node> eta;
  eta.reserve(guest_len);
  for (int c = 0; c < copies; ++c) {
    const auto seq = fam.sequence(c, 0);
    eta.insert(eta.end(), seq.begin(), seq.end());
  }
  emb.set_node_map(std::move(eta));

  set_direct_paths(emb);
  emb.verify_or_throw(/*expected_width=*/1, /*expected_load=*/copies);
  return emb;
}

MultiPathEmbedding largecopy_undirected_cycle(int n) {
  HP_PROFILE_SPAN("construct/largecopy_undirected");
  const auto& d = hamiltonian_decomposition(n);
  const std::uint64_t n_nodes = pow2(n);
  const Node guest_len = static_cast<Node>(d.cycles.size() * n_nodes);
  HP_CHECK(guest_len >= 2, "need at least one Hamiltonian cycle");

  MultiPathEmbedding emb(directed_cycle(guest_len), n);
  // Traverse each undirected cycle once, in its stored orientation, all
  // starting from node 0 (every Hamiltonian cycle visits node 0, so the
  // rotation exists and the wrap between cycles is that cycle's own edge).
  std::vector<Node> eta;
  eta.reserve(guest_len);
  for (const auto& cyc : d.cycles) {
    std::size_t at0 = 0;
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      if (cyc[i] == 0) at0 = i;
    }
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      eta.push_back(cyc[(at0 + i) % cyc.size()]);
    }
  }
  emb.set_node_map(std::move(eta));
  set_direct_paths(emb);
  emb.verify_or_throw(/*expected_width=*/1,
                      /*expected_load=*/static_cast<int>(d.cycles.size()));
  // Undirected-congestion-1: each undirected host link carries exactly one
  // guest edge (the decomposition is a partition), checked directly.
  const auto cong = emb.congestion_per_link();
  const Hypercube& q = emb.host();
  for (Node v = 0; v < q.num_nodes(); ++v) {
    for (Dim dd = 0; dd < q.dims(); ++dd) {
      if (test_bit(v, dd)) continue;  // canonical endpoint only
      const auto fwd = cong[q.edge_id(v, dd)];
      const auto rev = cong[q.edge_id(q.neighbor(v, dd), dd)];
      HP_CHECK(fwd + rev == 1, "undirected link not used exactly once");
    }
  }
  return emb;
}

namespace {

/// Shared collapse for CCC / butterfly / FFT: every vertex ⟨ℓ, c⟩ maps to
/// hypercube node c; intra-column edges become internal (single-node
/// paths); cross/column-changing edges become the dimension edge.
MultiPathEmbedding collapse_columns(Digraph guest, const LevelColumnLayout& lay,
                                    int load) {
  HP_PROFILE_SPAN("construct/largecopy_collapse");
  MultiPathEmbedding emb(std::move(guest), lay.cube_dims);
  std::vector<Node> eta(emb.guest().num_nodes());
  for (Node v = 0; v < eta.size(); ++v) eta[v] = lay.column_of(v);
  emb.set_node_map(std::move(eta));

  const Digraph& g = emb.guest();
  emb.reserve(g.num_edges(), 2 * g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& ge = g.edge(e);
    const Node a = emb.host_of(ge.from);
    const Node b = emb.host_of(ge.to);
    emb.begin_bundle(e);
    if (a == b) {
      emb.add_path({a});  // internal: zero communication
    } else {
      emb.add_path({a, b});
    }
  }
  emb.verify_or_throw(/*expected_width=*/1, /*expected_load=*/load);
  return emb;
}

}  // namespace

MultiPathEmbedding largecopy_ccc(int n) {
  return collapse_columns(ccc_directed(n), ccc_layout(n), n);
}

MultiPathEmbedding largecopy_butterfly(int n) {
  return collapse_columns(butterfly_directed(n), butterfly_layout(n), n);
}

MultiPathEmbedding largecopy_fft(int n) {
  return collapse_columns(fft_directed(n), fft_layout(n), n + 1);
}

}  // namespace hyperpath
