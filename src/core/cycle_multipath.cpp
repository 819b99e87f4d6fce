#include "core/cycle_multipath.hpp"

#include <algorithm>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "base/gray.hpp"
#include "base/moment.hpp"
#include "graph/builders.hpp"
#include "graph/euler.hpp"
#include "hamdecomp/directed.hpp"
#include "obs/profile.hpp"

namespace hyperpath {

namespace {

/// Field geometry shared by Theorems 1 and 2: n = 4k + r with address
/// fields [row: 2k][position: 2k][block: r], block least significant.
struct Fields {
  int n = 0, k = 0, r = 0;
  int col_bits = 0;  // 2k + r

  explicit Fields(int n_in) : n(n_in) {
    HP_CHECK(n >= 4, "cycle multipath constructions need n >= 4");
    k = n / 4;
    r = n % 4;
    col_bits = 2 * k + r;
    HP_CHECK(is_pow2(static_cast<std::uint64_t>(2 * k)),
             "construction requires the column factor width 2k to be a power "
             "of two (moments must index its 2k directed cycles exactly)");
  }

  Node column(Node v) const { return bit_field(v, 0, col_bits); }
  Node row(Node v) const { return bit_field(v, col_bits, 2 * k); }
  Node position(Node v) const { return bit_field(v, r, 2 * k); }
  Node with_row(Node column_part, Node row_value) const {
    return column_part | (row_value << col_bits);
  }
  bool is_row_dim(Dim d) const { return d >= col_bits; }
};

/// Appends the detour paths of Theorems 1/2 to the open bundle: for guest
/// edge (a, b) across dimension `edge_dim`, the j-th path crosses dimension
/// detour_dims[j], follows the projected edge, and crosses back.
void add_detour_paths(MultiPathEmbedding& emb, Node a, Node b, Dim edge_dim,
                      const std::vector<Dim>& detour_dims) {
  for (Dim d : detour_dims) {
    const Node a1 = flip_bit(a, d);
    emb.add_path({a, a1, flip_bit(a1, edge_dim), b});
  }
}

}  // namespace

bool cycle_multipath_supported(int n) {
  if (n < 4) return false;
  const int k = n / 4;
  return is_pow2(static_cast<std::uint64_t>(2 * k)) && 2 * k + 3 <= 15;
}

// ---------------------------------------------------------------------------
// Theorem 1
// ---------------------------------------------------------------------------

MultiPathEmbedding theorem1_cycle_embedding(int n) {
  HP_PROFILE_SPAN("construct/theorem1_cycle");
  const Fields f(n);
  const DirectedCycleFamily fam(2 * f.k);
  const std::uint64_t num_cols = pow2(f.col_bits);
  const std::uint64_t col_size = pow2(2 * f.k);

  // Gray order over columns, with the Gray code's two busiest dimensions
  // remapped to *position* bits 0 and 1 so that each aligned 4-group of
  // columns carries special cycles (σ, σ, σ̄, σ̄): positions x, x⊕1, x⊕3,
  // x⊕2 have moments M, M, M⊕1, M⊕1, and cycles 2i/2i+1 are mutual
  // reverses.  (Gray dimension g < 2k toggles column bit r+g; g ≥ 2k
  // toggles block bit g−2k.)
  auto column_bit_of_gray_dim = [&](Dim g) {
    return g < 2 * f.k ? f.r + g : g - 2 * f.k;
  };

  // Walk the guest cycle C.
  std::vector<Node> c_nodes;
  c_nodes.reserve(pow2(n));
  {
    HP_PROFILE_SPAN("guest_walk");
    Node col = 0;
    Node row = 0;
    for (std::uint64_t t = 0; t < num_cols; ++t) {
      const int cyc = static_cast<int>(moment(f.position(col)));
      Node v = row;
      for (std::uint64_t s = 0; s < col_size; ++s) {
        c_nodes.push_back(f.with_row(col, v));
        v = fam.next(cyc, v);
      }
      HP_CHECK(v == row, "special cycle traversal did not wrap");
      row = fam.prev(cyc, row);  // exit row: one step short of closing
      col = flip_bit(col, column_bit_of_gray_dim(
                              gray_transition_at(f.col_bits, t)));
    }
    HP_CHECK(col == 0 && row == 0,
             "guest cycle does not close at row 0 of column 0 (4-group "
             "orientation pairing violated)");
  }

  MultiPathEmbedding emb(directed_cycle(static_cast<Node>(pow2(n))), n);
  emb.set_node_map(std::move(c_nodes));

  std::vector<Dim> col_detours, row_detours;
  for (int j = 0; j < 2 * f.k; ++j) col_detours.push_back(f.r + j);
  for (int j = 0; j < 2 * f.k; ++j) row_detours.push_back(f.col_bits + j);

  {
    HP_PROFILE_SPAN("bundles");
    // 2k detours of 4 nodes plus the 2-node direct path per edge.
    const Digraph& g = emb.guest();
    const std::size_t detours = 2 * static_cast<std::size_t>(f.k);
    emb.reserve(g.num_edges() * (detours + 1),
                g.num_edges() * (4 * detours + 2));
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const Edge& ge = g.edge(e);
      const Node a = emb.host_of(ge.from);
      const Node b = emb.host_of(ge.to);
      const Dim i = count_trailing_zeros(a ^ b);
      emb.begin_bundle(e);
      add_detour_paths(emb, a, b, i,
                       f.is_row_dim(i) ? col_detours : row_detours);
      emb.add_path({a, b});  // the direct path (the 2k+1st)
    }
  }
  HP_PROFILE_SPAN("verify");
  emb.verify_or_throw(/*expected_width=*/2 * f.k + 1, /*expected_load=*/1);
  return emb;
}

std::vector<Packet> theorem1_schedule_packets(const MultiPathEmbedding& emb,
                                              int p) {
  HP_CHECK(p >= 1, "need at least one packet per edge");
  std::vector<Packet> packets;
  packets.reserve(emb.guest().num_edges() * static_cast<std::size_t>(p));
  for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
    const auto bundle = emb.paths(e);
    const std::size_t w = bundle.size();
    // bundle layout from theorem1_cycle_embedding: detours first, direct
    // last.  Packet 0 rides the direct path at step 1; packets 1..w−1 ride
    // the detours; packet w goes direct again, released for step 3.
    const std::size_t direct = w - 1;
    for (std::size_t j = 0; j < static_cast<std::size_t>(p); ++j) {
      std::size_t slot = j % w;  // overflow: round-robin, natural queueing
      if (j == 0 || j == w) {
        slot = direct;
      } else if (j < w) {
        slot = j - 1;
      }
      const PathView route = bundle[slot];
      Packet& pk = packets.emplace_back();
      pk.route.assign(route.begin(), route.end());
      pk.release = j == w ? 2 : 0;
    }
  }
  return packets;
}

// ---------------------------------------------------------------------------
// Theorem 2
// ---------------------------------------------------------------------------

namespace {

MultiPathEmbedding theorem2_impl(int n, bool use_moments) {
  HP_PROFILE_SPAN("construct/theorem2_cycle");
  const Fields f(n);
  const DirectedCycleFamily col_fam(2 * f.k);
  const DirectedCycleFamily row_fam(f.col_bits);
  HP_CHECK(row_fam.num_cycles() >= 2 * f.k,
           "row factor must offer at least 2k directed cycles");

  const std::uint64_t n_nodes = pow2(n);

  // The spanning 2-in/2-out digraph: each node's column special edge (cycle
  // M(position) of its Q_{2k} column subcube, moving through row bits) and
  // row special edge (cycle M(row) of its Q_{2k+r} row subcube, moving
  // through the low bits).  The naive ablation pins both selections to
  // cycle 0 — see theorem2_cycle_embedding_naive.
  EdgeList special{static_cast<Node>(n_nodes), {}};
  special.edges.reserve(2 * n_nodes);
  {
    HP_PROFILE_SPAN("special_edges");
    for (Node v = 0; v < n_nodes; ++v) {
      const int ccyc =
          use_moments ? static_cast<int>(moment(f.position(v))) : 0;
      const Node next_row = col_fam.next(ccyc, f.row(v));
      special.edges.emplace_back(v, f.with_row(f.column(v), next_row));

      const int rcyc = use_moments ? static_cast<int>(moment(f.row(v))) : 0;
      const Node next_low = row_fam.next(rcyc, f.column(v));
      special.edges.emplace_back(v, f.with_row(next_low, f.row(v)));
    }
  }

  std::vector<Node> tour;
  {
    HP_PROFILE_SPAN("euler_tour");
    tour = eulerian_circuit(special, 0);
  }
  HP_CHECK(tour.size() == 2 * n_nodes + 1, "Eulerian tour has wrong length");

  MultiPathEmbedding emb(directed_cycle(static_cast<Node>(2 * n_nodes)), n);
  {
    std::vector<Node> eta(tour.begin(), tour.end() - 1);
    emb.set_node_map(std::move(eta));
  }

  std::vector<Dim> col_detours, row_detours;
  for (int j = 0; j < 2 * f.k; ++j) col_detours.push_back(f.r + j);
  for (int j = 0; j < 2 * f.k; ++j) row_detours.push_back(f.col_bits + j);

  {
    HP_PROFILE_SPAN("bundles");
    const Digraph& g = emb.guest();
    const std::size_t detours = 2 * static_cast<std::size_t>(f.k);
    emb.reserve(g.num_edges() * detours, g.num_edges() * 4 * detours);
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const Edge& ge = g.edge(e);
      const Node a = emb.host_of(ge.from);
      const Node b = emb.host_of(ge.to);
      const Dim i = count_trailing_zeros(a ^ b);
      // Column special edges flip row dimensions and detour through
      // position neighbors; row special edges flip low dimensions and
      // detour through row neighbors.  No direct path exists (Theorem 2's
      // proof): each family's direct edges are consumed by the other
      // family's first and last edges.
      emb.begin_bundle(e);
      add_detour_paths(emb, a, b, i,
                       f.is_row_dim(i) ? col_detours : row_detours);
    }
  }
  HP_PROFILE_SPAN("verify");
  emb.verify_or_throw(/*expected_width=*/2 * f.k, /*expected_load=*/2);
  return emb;
}

}  // namespace

MultiPathEmbedding theorem2_cycle_embedding(int n) {
  return theorem2_impl(n, /*use_moments=*/true);
}

MultiPathEmbedding theorem2_cycle_embedding_naive(int n) {
  return theorem2_impl(n, /*use_moments=*/false);
}

}  // namespace hyperpath
