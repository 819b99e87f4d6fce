#include "core/algebraic_oracle.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "base/moment.hpp"
#include "core/cycle_multipath.hpp"
#include "hamdecomp/directed.hpp"

namespace hyperpath {

namespace {

// ---------------------------------------------------------------------------
// Theorem-1 closed form, shared by the cycle oracle and the grid axes
// ---------------------------------------------------------------------------

/// All state the Theorem-1 formulas need: the directed-cycle family of the
/// Q_{2k} column subcube plus its per-cycle sequence/rank tables (≤ 8
/// cycles × 2^{2k} entries).  Everything else is arithmetic.
struct Theorem1Core {
  int n = 0, k = 0, r = 0, col_bits = 0;
  std::uint64_t num_nodes = 0;  // 2^n
  std::uint64_t col_size = 0;   // 2^{2k}
  std::vector<std::vector<Node>> seq;           // [cycle][rank] -> node
  std::vector<std::vector<std::uint32_t>> rank;  // [cycle][node] -> rank
  std::vector<Node> prev0;    // prev_c(0)
  std::vector<Node> prev0_2;  // prev_c(prev_c(0))

  explicit Theorem1Core(int n_in) : n(n_in) {
    HP_CHECK(cycle_multipath_supported(n),
             "n outside theorem1_cycle_embedding's range");
    k = n / 4;
    r = n % 4;
    col_bits = 2 * k + r;
    num_nodes = pow2(n);
    col_size = pow2(2 * k);
    const DirectedCycleFamily fam(2 * k);
    const int cycles = fam.num_cycles();
    seq.reserve(cycles);
    rank.assign(cycles, std::vector<std::uint32_t>(col_size, 0));
    for (int c = 0; c < cycles; ++c) {
      seq.push_back(fam.sequence(c, 0));
      for (std::uint32_t i = 0; i < col_size; ++i) rank[c][seq[c][i]] = i;
      prev0.push_back(fam.prev(c, 0));
      prev0_2.push_back(fam.prev(c, prev0.back()));
    }
  }

  /// Entry row of column step t.  Aligned 4-groups of columns carry the
  /// special cycles (σ, σ, σ̄, σ̄) — positions x, x⊕1, x⊕3, x⊕2 have
  /// moments M, M, M⊕1, M⊕1 and prev_σ̄ == next_σ — so the prev-chain of
  /// exit rows telescopes: 0, prev_σ(0), prev_σ²(0), prev_σ(0), 0, …
  Node entry_row(std::uint64_t t) const {
    const int q = static_cast<int>(t & 3);
    if (q == 0) return 0;
    const std::uint64_t tb = t & ~std::uint64_t{3};
    const int sigma = static_cast<int>(
        moment(static_cast<Node>((tb ^ (tb >> 1)) & (col_size - 1))));
    return q == 2 ? prev0_2[sigma] : prev0[sigma];
  }

  /// η(g) for guest cycle node g = t·2^{2k} + s: the column address is the
  /// bit-permuted Gray value t ^ (t >> 1) (low 2k Gray dims land on
  /// position bits r..r+2k−1, high r dims on block bits 0..r−1), and the
  /// row is s steps along special cycle moment(position) from the entry
  /// row, via the rank/sequence tables.
  Node eta(std::uint64_t g) const {
    const std::uint64_t t = g >> (2 * k);
    const std::uint64_t s = g & (col_size - 1);
    const Node gray = static_cast<Node>(t ^ (t >> 1));
    const Node pos = gray & static_cast<Node>(col_size - 1);
    const Node col = (pos << r) | (gray >> (2 * k));
    const int cyc = static_cast<int>(moment(pos));
    const std::uint64_t at = (rank[cyc][entry_row(t)] + s) & (col_size - 1);
    return col | (seq[cyc][at] << col_bits);
  }

  int width() const { return 2 * k + 1; }

  std::uint32_t path_hops(int index) const {
    HP_CHECK(index >= 0 && index <= 2 * k, "bundle path index out of range");
    return index < 2 * k ? 3 : 1;
  }

  /// Streams bundle path `index` of guest edge (from, from+1 mod 2^n).
  template <typename Emit>
  void path(std::uint64_t from, int index, Emit&& emit) const {
    path_between(eta(from), eta((from + 1) & (num_nodes - 1)), index, emit);
  }

  /// Appends the whole bundle of guest edge (from, from+1 mod 2^n), each
  /// node mapped through `map`, to `nodes`, and each path's end to `ends`
  /// (PathOracle::append_bundle): η of both endpoints computed once.
  template <typename Map>
  void bundle(std::uint64_t from, Map&& map, std::vector<Node>& nodes,
              std::vector<std::size_t>& ends) const {
    const Node a = eta(from);
    const Node b = eta((from + 1) & (num_nodes - 1));
    const auto emit = [&](Node v) { nodes.push_back(map(v)); };
    for (int i = 0; i < width(); ++i) {
      path_between(a, b, i, emit);
      ends.push_back(nodes.size());
    }
  }

  /// Streams bundle path `index` between the endpoint images a = η(from)
  /// and b = η(from+1): Theorem 1's detours cross a free dimension of the
  /// opposite field (paths 0..2k−1, in field order), the direct edge rides
  /// last.
  template <typename Emit>
  void path_between(Node a, Node b, int index, Emit&& emit) const {
    if (index == 2 * k) {  // the direct path
      emit(a);
      emit(b);
      return;
    }
    HP_CHECK(index >= 0 && index < 2 * k, "bundle path index out of range");
    const Dim edge_dim = count_trailing_zeros(a ^ b);
    // Row-dimension edges detour through position bits, column-dimension
    // edges through row bits — matching cycle_multipath.cpp's
    // col_detours/row_detours order exactly.
    const Dim d = edge_dim >= col_bits ? static_cast<Dim>(r + index)
                                       : static_cast<Dim>(col_bits + index);
    emit(a);
    emit(flip_bit(a, d));
    emit(flip_bit(b, d));
    emit(b);
  }
};

/// Adapter: forward a Theorem1Core emit stream into a NodeSink, optionally
/// through an affine field transform (the grid composition).
struct SinkEmit {
  NodeSink& sink;
  void operator()(Node v) const { sink.push(v); }
};

// ---------------------------------------------------------------------------
// Theorem-1 cycle oracle
// ---------------------------------------------------------------------------

class Theorem1Oracle final : public PathOracle {
 public:
  explicit Theorem1Oracle(int n) : core_(n) {}

  int host_dims() const override { return core_.n; }
  OracleId guest_nodes() const override { return core_.num_nodes; }
  OracleId guest_edges() const override { return core_.num_nodes; }

  Node host_of(OracleId guest) const override {
    HP_CHECK(guest < core_.num_nodes, "guest node id out of range");
    return core_.eta(guest);
  }

  int out_degree(OracleId guest) const override {
    HP_CHECK(guest < core_.num_nodes, "guest node id out of range");
    return 1;
  }

  OracleEdge out_edge(OracleId guest, int slot) const override {
    HP_CHECK(guest < core_.num_nodes, "guest node id out of range");
    HP_CHECK(slot == 0, "out-edge slot out of range");
    return {guest, (guest + 1) & (core_.num_nodes - 1)};
  }

  int width(const OracleEdge& edge) const override {
    check_edge(edge);
    return core_.width();
  }

  std::uint32_t path_hops(const OracleEdge& edge, int index) const override {
    check_edge(edge);
    return core_.path_hops(index);
  }

  void path(const OracleEdge& edge, int index,
            NodeSink& sink) const override {
    check_edge(edge);
    core_.path(edge.from, index, SinkEmit{sink});
  }

  const char* family() const override { return "theorem1"; }

 private:
  void check_edge(const OracleEdge& edge) const {
    HP_CHECK(edge.from < core_.num_nodes &&
                 edge.to == ((edge.from + 1) & (core_.num_nodes - 1)),
             "no such guest edge");
  }

  Theorem1Core core_;
};

// ---------------------------------------------------------------------------
// Cross-product grid oracle
// ---------------------------------------------------------------------------

class GridOracle final : public PathOracle {
 public:
  explicit GridOracle(GridSpec spec) : spec_(std::move(spec)) {
    HP_CHECK(algebraic_grid_supported(spec_),
             "grid spec unsupported (axis widths must satisfy "
             "cycle_multipath_supported; torus sides must be powers of two; "
             "total host dimension at most 30)");
    const int k = spec_.num_axes();
    std::vector<int> bits(k);
    offset_.resize(k);
    axes_.reserve(k);
    for (int a = 0; a < k; ++a) {
      bits[a] = ceil_log2(spec_.sides[a]);
      axes_.emplace_back(bits[a]);
    }
    offset_[k - 1] = 0;
    for (int a = k - 1; a-- > 0;) offset_[a] = offset_[a + 1] + bits[a + 1];
    total_ = offset_[0] + bits[0];
    num_edges_ = 0;
    for (int a = 0; a < k; ++a) {
      const std::uint64_t along =
          spec_.wrap ? spec_.sides[a] : spec_.sides[a] - 1;
      num_edges_ += along * (spec_.num_nodes() / spec_.sides[a]);
    }
  }

  int host_dims() const override { return total_; }
  OracleId guest_nodes() const override { return spec_.num_nodes(); }
  OracleId guest_edges() const override { return num_edges_; }

  Node host_of(OracleId guest) const override {
    return eta_except(coords(guest), -1);
  }

  int out_degree(OracleId guest) const override {
    const Coords c = coords(guest);
    int deg = 0;
    for (int a = 0; a < spec_.num_axes(); ++a) {
      if (spec_.wrap || c[a] + 1 < spec_.sides[a]) ++deg;
    }
    return deg;
  }

  OracleEdge out_edge(OracleId guest, int slot) const override {
    Coords c = coords(guest);
    // Successor along each live axis, in ascending target order (Digraph
    // storage order).  At most 5 axes fit in 30 host bits, so the sort is
    // a handful of comparisons.
    Node targets[30];
    int deg = 0;
    for (int a = 0; a < spec_.num_axes(); ++a) {
      if (!spec_.wrap && c[a] + 1 >= spec_.sides[a]) continue;
      const Node keep = c[a];
      c[a] = (keep + 1) % spec_.sides[a];
      targets[deg++] = spec_.index({c.data(), spec_.sides.size()});
      c[a] = keep;
    }
    HP_CHECK(slot >= 0 && slot < deg, "out-edge slot out of range");
    std::sort(targets, targets + deg);
    return {guest, targets[slot]};
  }

  int width(const OracleEdge& edge) const override {
    return axes_[edge_axis(edge, coords(edge.from))].width();
  }

  std::uint32_t path_hops(const OracleEdge& edge, int index) const override {
    return axes_[edge_axis(edge, coords(edge.from))].path_hops(index);
  }

  void path(const OracleEdge& edge, int index,
            NodeSink& sink) const override {
    const Coords cf = coords(edge.from);
    const int a = edge_axis(edge, cf);
    const Node fixed = eta_except(cf, a);
    const int off = offset_[a];
    struct FieldEmit {
      NodeSink& sink;
      Node fixed;
      int off;
      void operator()(Node v) const { sink.push(fixed | (v << off)); }
    };
    axes_[a].path(cf[a], index, FieldEmit{sink, fixed, off});
  }

  void append_bundle(const OracleEdge& edge, std::vector<Node>& nodes,
                     std::vector<std::size_t>& ends) const override {
    const Coords cf = coords(edge.from);
    const int a = edge_axis(edge, cf);
    const Node fixed = eta_except(cf, a);
    const int off = offset_[a];
    axes_[a].bundle(
        cf[a], [&](Node v) { return fixed | (v << off); }, nodes, ends);
  }

  const char* family() const override { return "grid"; }

 private:
  /// Coordinates of a guest node, on the stack: no query allocates.
  /// num_axes() ≤ 30, since every axis takes at least one host bit.
  using Coords = std::array<Node, 30>;

  Coords coords(OracleId guest) const {
    Coords c{};
    spec_.coords(checked_u32(guest, "guest node id exceeds 32 bits"), c);
    return c;
  }

  /// OR of the per-axis images of `c` in their fields, skipping axis
  /// `skip` (-1 skips none: η of the node).
  Node eta_except(const Coords& c, int skip) const {
    Node addr = 0;
    for (int a = 0; a < spec_.num_axes(); ++a) {
      if (a != skip) addr |= axes_[a].eta(c[a]) << offset_[a];
    }
    return addr;
  }

  /// The single axis the edge advances (+1, or the torus wrap), given the
  /// source's coordinates `cf`; throws if the pair is not a grid edge.
  int edge_axis(const OracleEdge& edge, const Coords& cf) const {
    const Coords ct = coords(edge.to);
    int axis = -1;
    for (int a = 0; a < spec_.num_axes(); ++a) {
      if (cf[a] == ct[a]) continue;
      HP_CHECK(axis < 0, "no such guest edge (changes two axes)");
      HP_CHECK(ct[a] == (cf[a] + 1) % spec_.sides[a] &&
                   (spec_.wrap || cf[a] + 1 < spec_.sides[a]),
               "no such guest edge (not the +1 direction)");
      axis = a;
    }
    HP_CHECK(axis >= 0, "no such guest edge (degenerate)");
    return axis;
  }

  GridSpec spec_;
  std::vector<Theorem1Core> axes_;
  std::vector<int> offset_;
  int total_ = 0;
  std::uint64_t num_edges_ = 0;
};

// ---------------------------------------------------------------------------
// Large-copy cycle oracle
// ---------------------------------------------------------------------------

class LargecopyOracle final : public PathOracle {
 public:
  explicit LargecopyOracle(int n) : n_(n) {
    HP_CHECK(n >= 2 && n <= kMaxDecompositionDims,
             "large-copy oracle needs 2 <= n <= " +
                 std::to_string(kMaxDecompositionDims));
    const DirectedCycleFamily fam(n);
    cycle_len_ = pow2(n);
    for (int c = 0; c < fam.num_cycles(); ++c) {
      seq_.push_back(fam.sequence(c, 0));
    }
    guest_nodes_ = static_cast<OracleId>(seq_.size()) * cycle_len_;
  }

  int host_dims() const override { return n_; }
  OracleId guest_nodes() const override { return guest_nodes_; }
  OracleId guest_edges() const override { return guest_nodes_; }

  Node host_of(OracleId guest) const override {
    HP_CHECK(guest < guest_nodes_, "guest node id out of range");
    return seq_[guest >> n_][guest & (cycle_len_ - 1)];
  }

  int out_degree(OracleId guest) const override {
    HP_CHECK(guest < guest_nodes_, "guest node id out of range");
    return 1;
  }

  OracleEdge out_edge(OracleId guest, int slot) const override {
    HP_CHECK(guest < guest_nodes_, "guest node id out of range");
    HP_CHECK(slot == 0, "out-edge slot out of range");
    const OracleId next = guest + 1;
    return {guest, next == guest_nodes_ ? 0 : next};
  }

  int width(const OracleEdge& edge) const override {
    check_edge(edge);
    return 1;
  }

  std::uint32_t path_hops(const OracleEdge& edge, int index) const override {
    check_edge(edge);
    HP_CHECK(index == 0, "bundle path index out of range");
    return 1;
  }

  void path(const OracleEdge& edge, int index,
            NodeSink& sink) const override {
    check_edge(edge);
    HP_CHECK(index == 0, "bundle path index out of range");
    sink.push(host_of(edge.from));
    sink.push(host_of(edge.to));
  }

  const char* family() const override { return "largecopy"; }

 private:
  void check_edge(const OracleEdge& edge) const {
    const OracleId next = edge.from + 1;
    HP_CHECK(edge.from < guest_nodes_ &&
                 edge.to == (next == guest_nodes_ ? 0 : next),
             "no such guest edge");
  }

  int n_;
  std::uint64_t cycle_len_ = 0;
  OracleId guest_nodes_ = 0;
  std::vector<std::vector<Node>> seq_;  // [cycle][step] -> host node
};

}  // namespace

std::unique_ptr<PathOracle> algebraic_theorem1_oracle(int n) {
  return std::make_unique<Theorem1Oracle>(n);
}

bool algebraic_grid_supported(const GridSpec& spec) {
  int total = 0;
  for (Node side : spec.sides) {
    if (side < 2) return false;
    const int b = ceil_log2(side);
    if (!cycle_multipath_supported(b)) return false;
    if (spec.wrap && !is_pow2(side)) return false;
    total += b;
  }
  return total >= 1 && total <= 30;
}

std::unique_ptr<PathOracle> algebraic_grid_oracle(const GridSpec& spec) {
  return std::make_unique<GridOracle>(spec);
}

std::unique_ptr<PathOracle> algebraic_largecopy_oracle(int n) {
  return std::make_unique<LargecopyOracle>(n);
}

}  // namespace hyperpath
