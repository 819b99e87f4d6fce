#include "ccc/strawmen.hpp"

#include "base/bits.hpp"
#include "base/error.hpp"
#include "base/gray.hpp"
#include "graph/builders.hpp"

namespace hyperpath {

KCopyEmbedding ccc_multicopy_same_windows(int n) {
  const CccEmbedSpec spec = ccc_single_spec(n);
  const LevelColumnLayout lay = ccc_layout(n);
  KCopyEmbedding emb(ccc_directed(n), n + spec.r, n);
  for (int k = 0; k < n; ++k) set_spec_copy(emb, k, lay, spec);
  emb.verify_or_throw();
  return emb;
}

KCopyEmbedding ccc_multicopy_disjoint_windows(int n) {
  HP_CHECK(n >= 2 && is_pow2(static_cast<std::uint64_t>(n)),
           "straw man implemented for n a power of two");
  const int r = floor_log2(static_cast<std::uint64_t>(n));
  const int total = n + r;
  const int copies = total / r;  // pairwise-disjoint windows that fit
  const LevelColumnLayout lay = ccc_layout(n);
  KCopyEmbedding emb(ccc_directed(n), total, copies);
  for (int i = 0; i < copies; ++i) {
    CccEmbedSpec s;
    s.n = n;
    s.r = r;
    for (int j = 0; j < r; ++j) s.w.push_back(i * r + j);
    for (int d = 0; d < total && static_cast<int>(s.wbar.size()) < n; ++d) {
      bool in_w = false;
      for (Dim wd : s.w) in_w |= (wd == d);
      if (!in_w) s.wbar.push_back(d);
    }
    for (int l = 0; l < n; ++l) {
      s.ham.push_back(bit_reverse(gray_node_at(r, l), r));
    }
    s.verify_or_throw();
    set_spec_copy(emb, i, lay, s);
  }
  emb.verify_or_throw();
  return emb;
}

}  // namespace hyperpath
