// ScratchPool (base/scratch_pool.hpp): tenancies reuse one block, only a
// tenancy's first array may outgrow it, and a move keeps its values.
#include "base/scratch_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "base/error.hpp"

namespace hyperpath {
namespace {

TEST(ScratchPool, KeepsItsBlockAcrossTenancies) {
  ScratchPool pool;
  pool.begin(ScratchPool::bytes<std::uint64_t>(100));
  const std::span<std::uint64_t> words = pool.make<std::uint64_t>(100);
  std::ranges::fill(words, 7);
  const std::byte* const data = pool.data();
  const std::size_t capacity = pool.capacity();
  EXPECT_EQ(capacity, 800u);
  // A smaller tenancy of other types reuses the block from its front.
  pool.begin(ScratchPool::bytes<std::uint32_t>(3) +
             ScratchPool::bytes<std::uint8_t>(5));
  const std::span<std::uint32_t> a = pool.make<std::uint32_t>(3);
  const std::span<std::uint8_t> b = pool.make<std::uint8_t>(5);
  EXPECT_EQ(pool.data(), data);
  EXPECT_EQ(pool.capacity(), capacity);
  EXPECT_EQ(static_cast<const void*>(a.data()), data);
  EXPECT_EQ(static_cast<const void*>(b.data()),
            data + ScratchPool::bytes<std::uint32_t>(3));
  // A later array may not outgrow the block: that would move the first.
  EXPECT_THROW(pool.resize(b, capacity), Error);
}

TEST(ScratchPool, FirstArrayGrowsKeepingItsValues) {
  ScratchPool pool;
  std::span<std::uint64_t> ids = pool.make<std::uint64_t>(3);
  std::ranges::copy(std::vector<std::uint64_t>{4, 5, 6}, ids.begin());
  ids = pool.resize(ids, 1000);  // past the block: moves
  EXPECT_GE(pool.capacity(), 8000u);
  EXPECT_EQ(static_cast<const void*>(ids.data()), pool.data());
  EXPECT_EQ(ids[0], 4u);
  EXPECT_EQ(ids[2], 6u);
  const std::byte* const data = pool.data();
  ids = pool.resize(ids, 2);  // shrinking keeps the block and the values
  EXPECT_EQ(pool.data(), data);
  EXPECT_EQ(ids[1], 5u);
  // Only the tenancy's newest array can be resized.
  const std::span<std::uint32_t> later = pool.make<std::uint32_t>(4);
  EXPECT_THROW(pool.resize(ids, 3), Error);
  EXPECT_EQ(pool.resize(later, 0).size(), 0u);
}

}  // namespace
}  // namespace hyperpath
