#include "base/scratch_pool.hpp"

#include <cstring>
#include <utility>

namespace hyperpath {

// Arrays start on kAlign boundaries of a block from operator new[].
static_assert(ScratchPool::kAlign <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

void ScratchPool::begin(std::size_t bytes) {
  used_ = 0;
  if (bytes <= capacity_) return;
  storage_.reset();  // the old block goes before the new one is taken
  storage_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
  capacity_ = bytes;
}

void ScratchPool::grow(std::size_t offset, std::size_t keep,
                       std::size_t need) {
  HP_CHECK(offset == 0, "scratch pool tenancy overrun");
  auto block = std::make_unique_for_overwrite<std::byte[]>(2 * need);
  // memcpy, which creates the copied objects in the new block.
  if (keep > 0) std::memcpy(block.get(), storage_.get(), keep);
  storage_ = std::move(block);
  capacity_ = 2 * need;
}

}  // namespace hyperpath
