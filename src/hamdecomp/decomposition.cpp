#include "hamdecomp/decomposition.hpp"

#include <map>
#include <mutex>
#include <set>
#include <string>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "hamdecomp/tables.hpp"

namespace hyperpath {

void HamDecomposition::verify_or_throw() const {
  HP_CHECK(dims >= 1 && dims <= 30, "decomposition dims out of range");
  const std::uint64_t n_nodes = pow2(dims);
  const std::size_t expected_cycles = static_cast<std::size_t>(dims / 2);
  HP_CHECK(cycles.size() == expected_cycles,
           "wrong number of Hamiltonian cycles");
  if (dims % 2 == 0) {
    HP_CHECK(matching.empty(), "even decomposition must have no matching");
  } else {
    HP_CHECK(matching.size() == n_nodes / 2, "matching has wrong size");
  }

  // Each undirected edge of Q_dims must be used exactly once across all
  // parts.  Key an undirected edge by (lo-endpoint, dimension).
  std::set<std::pair<Node, Dim>> used;
  auto use_edge = [&](Node a, Node b) {
    HP_CHECK(a < n_nodes && b < n_nodes, "node outside hypercube");
    HP_CHECK(is_pow2(a ^ b), "pair is not a hypercube edge");
    const Dim d = count_trailing_zeros(a ^ b);
    const Node lo = test_bit(a, d) ? b : a;
    HP_CHECK(used.emplace(lo, d).second, "edge used twice across parts");
  };

  for (const auto& cycle : cycles) {
    HP_CHECK(cycle.size() == n_nodes, "cycle is not Hamiltonian (length)");
    std::vector<bool> seen(n_nodes, false);
    for (Node v : cycle) {
      HP_CHECK(v < n_nodes, "cycle node outside hypercube");
      HP_CHECK(!seen[v], "cycle revisits a node");
      seen[v] = true;
    }
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      use_edge(cycle[i], cycle[(i + 1) % cycle.size()]);
    }
  }

  std::vector<bool> matched(n_nodes, false);
  for (const auto& [a, b] : matching) {
    use_edge(a, b);
    HP_CHECK(!matched[a] && !matched[b], "matching repeats a node");
    matched[a] = matched[b] = true;
  }
  if (!matching.empty()) {
    for (Node v = 0; v < n_nodes; ++v) {
      HP_CHECK(matched[v], "matching is not perfect");
    }
  }

  HP_CHECK(used.size() == static_cast<std::uint64_t>(dims) * n_nodes / 2,
           "parts do not cover every hypercube edge");
}

HamDecomposition splice_odd_decomposition(const HamDecomposition& even) {
  HP_CHECK(even.dims % 2 == 0, "splice input must be even-dimensional");
  const int n = even.dims + 1;
  const Node half = static_cast<Node>(pow2(even.dims));

  HamDecomposition odd;
  odd.dims = n;

  // For cycle i, pick the splice edge (cycle[s], cycle[s+1]) greedily so all
  // splice endpoints are distinct across cycles.
  std::vector<bool> reserved(half, false);
  std::vector<std::size_t> splice_at(even.cycles.size());
  for (std::size_t i = 0; i < even.cycles.size(); ++i) {
    const auto& cyc = even.cycles[i];
    bool found = false;
    for (std::size_t s = 0; s < cyc.size(); ++s) {
      const Node a = cyc[s];
      const Node b = cyc[(s + 1) % cyc.size()];
      if (!reserved[a] && !reserved[b]) {
        reserved[a] = reserved[b] = true;
        splice_at[i] = s;
        found = true;
        break;
      }
    }
    HP_CHECK(found, "no vertex-disjoint splice edge available");
  }

  // Build each merged Hamiltonian cycle of Q_{n}: with C = v_0..v_{L-1} and
  // splice edge (v_s, v_{s+1}):
  //   v_{s+1}, v_{s+2}, ..., v_s, v_s', v_{s-1}', ..., v_{s+1}', (close)
  // where x' = x + 2^{even.dims} is x's twin in the upper half.
  for (std::size_t i = 0; i < even.cycles.size(); ++i) {
    const auto& cyc = even.cycles[i];
    const std::size_t L = cyc.size();
    const std::size_t s = splice_at[i];
    std::vector<Node> merged;
    merged.reserve(2 * L);
    // Lower half: v_{s+1} ... v_s (forward order around the cycle).
    for (std::size_t j = 1; j <= L; ++j) merged.push_back(cyc[(s + j) % L]);
    // Upper half: v_s' then walking backwards v_{s-1}' ... v_{s+1}'.
    for (std::size_t j = 0; j < L; ++j) {
      merged.push_back(cyc[(s + L - j) % L] + half);
    }
    odd.cycles.push_back(std::move(merged));
  }

  // Matching: every cross edge except the 2·(#cycles) used by the splices,
  // plus the removed intra-half edges from both halves.
  for (Node v = 0; v < half; ++v) {
    if (!reserved[v]) odd.matching.emplace_back(v, v + half);
  }
  for (std::size_t i = 0; i < even.cycles.size(); ++i) {
    const auto& cyc = even.cycles[i];
    const Node a = cyc[splice_at[i]];
    const Node b = cyc[(splice_at[i] + 1) % cyc.size()];
    odd.matching.emplace_back(a, b);
    odd.matching.emplace_back(a + half, b + half);
  }
  return odd;
}

namespace {

HamDecomposition build_decomposition(int n) {
  if (n == 1) {
    HamDecomposition d;
    d.dims = 1;
    d.matching.emplace_back(0, 1);
    return d;
  }
  if (n == 2) {
    HamDecomposition d;
    d.dims = 2;
    d.cycles.push_back({0b00, 0b01, 0b11, 0b10});
    return d;
  }
  if (n % 2 == 1) {
    return splice_odd_decomposition(hamiltonian_decomposition(n - 1));
  }
  auto tabled = table_decomposition(n);
  HP_CHECK(tabled.has_value(), "no table for Q_" + std::to_string(n));
  return *std::move(tabled);
}

}  // namespace

const HamDecomposition& hamiltonian_decomposition(int n) {
  HP_CHECK(n >= 1 && n <= kMaxDecompositionDims,
           "hamiltonian_decomposition supports n in [1, " +
               std::to_string(kMaxDecompositionDims) + "]");
  // recursive_mutex: building an odd dimension recurses into n-1.
  static std::recursive_mutex mu;
  static std::map<int, HamDecomposition> cache;
  std::scoped_lock lock(mu);
  auto it = cache.find(n);
  if (it == cache.end()) {
    HamDecomposition d = build_decomposition(n);
    d.verify_or_throw();
    it = cache.emplace(n, std::move(d)).first;
  }
  return it->second;
}

}  // namespace hyperpath
