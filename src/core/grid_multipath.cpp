#include "core/grid_multipath.hpp"

#include <algorithm>
#include <climits>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "core/cycle_multipath.hpp"
#include "hamdecomp/directed.hpp"
#include "obs/profile.hpp"
#include "par/task_pool.hpp"

namespace hyperpath {

namespace {

int axis_bits(Node side) { return ceil_log2(side); }

}  // namespace

bool grid_multipath_supported(const GridSpec& spec) {
  int total = 0;
  for (Node side : spec.sides) {
    if (side < 2) return false;
    const int b = axis_bits(side);
    if (!cycle_multipath_supported(b)) return false;
    if (spec.wrap && !is_pow2(side)) return false;
    total += b;
  }
  return total >= 1 && total <= 24;
}

MultiPathEmbedding grid_multipath_embedding(const GridSpec& spec) {
  HP_PROFILE_SPAN("construct/grid");
  HP_CHECK(grid_multipath_supported(spec),
           "grid spec unsupported (axis widths must satisfy "
           "cycle_multipath_supported; torus sides must be powers of two)");
  const int k = spec.num_axes();

  // Per-axis Theorem 1 embeddings and field offsets (axis 0 most
  // significant, matching GridSpec's row-major indexing).
  std::vector<MultiPathEmbedding> axis;
  std::vector<int> bits(k), offset(k);
  axis.reserve(k);
  {
    HP_PROFILE_SPAN("axis_embeddings");
    for (int a = 0; a < k; ++a) {
      bits[a] = axis_bits(spec.sides[a]);
      axis.push_back(theorem1_cycle_embedding(bits[a]));
    }
  }
  offset[k - 1] = 0;
  for (int a = k - 1; a-- > 0;) offset[a] = offset[a + 1] + bits[a + 1];
  int total = offset[0] + bits[0];

  MultiPathEmbedding emb(grid_graph_directed(spec), total);

  // η: concatenate per-axis cycle positions' host addresses.
  {
    HP_PROFILE_SPAN("node_map");
    const Node n_guest = spec.num_nodes();
    std::vector<Node> eta(n_guest);
    std::vector<Node> coords(k);
    for (Node v = 0; v < n_guest; ++v) {
      spec.coords(v, coords);
      Node addr = 0;
      for (int a = 0; a < k; ++a) {
        addr |= axis[a].host_of(coords[a]) << offset[a];
      }
      eta[v] = addr;
    }
    emb.set_node_map(std::move(eta));
  }

  // Bundles: for a grid edge along axis a between coordinates c and c+1
  // (or the wrap pair), take the axis cycle embedding's bundle for the
  // corresponding directed cycle edge, shift it into the axis field, keep
  // all other fields fixed; the reverse grid direction reverses the paths.
  {
  HP_PROFILE_SPAN("bundles");
  const Digraph& g = emb.guest();
  std::vector<Node> cf(k), ct(k);  // endpoint coordinates, reused
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const Edge& ge = g.edge(e);
    spec.coords(ge.from, cf);
    spec.coords(ge.to, ct);
    int a = -1;
    for (int i = 0; i < k; ++i) {
      if (cf[i] != ct[i]) {
        HP_CHECK(a < 0, "grid edge changes two axes");
        a = i;
      }
    }
    HP_CHECK(a >= 0, "degenerate grid edge");

    // The guest is directed: every edge goes c → c+1 (or the wrap
    // side−1 → 0), matching the axis cycle's orientation.
    const std::size_t cycle_edge = axis[a].guest().find_edge(cf[a], ct[a]);
    HP_CHECK(cycle_edge != static_cast<std::size_t>(-1),
             "axis cycle edge missing");

    const Node fixed =
        emb.host_of(ge.from) & ~((bit(bits[a]) - 1) << offset[a]);
    emb.begin_bundle(e);
    for (const PathView p : axis[a].paths(cycle_edge)) {
      emb.begin_path();
      for (Node hop : p) emb.push_node(fixed | (hop << offset[a]));
    }
  }
  }

  HP_PROFILE_SPAN("verify");
  emb.verify_or_throw();
  return emb;
}

KCopyEmbedding multicopy_torus(const GridSpec& spec) {
  HP_PROFILE_SPAN("construct/multicopy_torus");
  HP_CHECK(spec.wrap, "multicopy_torus needs a torus spec");
  const int k = spec.num_axes();
  HP_CHECK(k >= 1, "empty spec");

  std::vector<int> bits(k), offset(k);
  int copies = INT_MAX;
  std::vector<DirectedCycleFamily> fam;
  fam.reserve(k);
  for (int a = 0; a < k; ++a) {
    HP_CHECK(is_pow2(spec.sides[a]) && spec.sides[a] >= 4,
             "sides must be powers of two >= 4");
    bits[a] = floor_log2(spec.sides[a]);
    fam.emplace_back(bits[a]);
    copies = std::min(copies, fam.back().num_cycles());
  }
  offset[k - 1] = 0;
  for (int a = k - 1; a-- > 0;) offset[a] = offset[a + 1] + bits[a + 1];
  const int total = offset[0] + bits[0];
  HP_CHECK(total <= 24, "torus too large");

  KCopyEmbedding emb(grid_graph_directed(spec), total, copies);
  const Node n_guest = spec.num_nodes();
  // Copies are independent: build each copy's η in parallel (one copy per
  // task), then write the copies serially in copy order, so the store's
  // layout never depends on the schedule.
  std::vector<std::vector<Node>> etas(copies);
  par::parallel_for(
      0, static_cast<std::size_t>(copies), /*grain=*/1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          // Copy c: coordinate x along axis a sits at the x-th node of
          // directed cycle c of that axis's subcube.
          std::vector<std::vector<Node>> seq(k);
          for (int a = 0; a < k; ++a) {
            seq[a] = fam[a].sequence(static_cast<int>(c), 0);
          }

          std::vector<Node> eta(n_guest);
          for (Node v = 0; v < n_guest; ++v) {
            const auto coords = spec.coords(v);
            Node addr = 0;
            for (int a = 0; a < k; ++a) addr |= seq[a][coords[a]] << offset[a];
            eta[v] = addr;
          }
          etas[c] = std::move(eta);
        }
      });
  for (int c = 0; c < copies; ++c) emb.set_direct_copy(c, etas[c]);
  emb.verify_or_throw(/*expected_congestion=*/1);
  return emb;
}

}  // namespace hyperpath
