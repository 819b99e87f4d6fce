// ScratchPool: one block of raw storage, kept across runs, that a run's
// short-lived arrays take in turn (the simulator's StepScratch holds one
// per thread).  Arrays are created in it with standard object creation —
// default-initialisation in place, memcpy when the block moves — and are
// only ever read as the type they were made as.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>

#include "base/error.hpp"

namespace hyperpath {

/// Storage that a run's short-lived arrays take in turn.  begin() ends the
/// arrays made so far and makes room for `bytes` more; make() and resize()
/// lay them out one after another.  The block is only replaced by a larger
/// one, so a run no larger than an earlier one allocates nothing.
class ScratchPool {
 public:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  /// An array's share of the room (arrays start on kAlign boundaries).
  template <typename T>
  static constexpr std::size_t bytes(std::size_t count) {
    return (count * sizeof(T) + kAlign - 1) / kAlign * kAlign;
  }

  void begin(std::size_t bytes = 0);

  /// A new array of `count` default-initialised T.
  template <typename T>
  std::span<T> make(std::size_t count) {
    return resize(std::span<T>{}, count);
  }

  /// Resizes `last`, the newest array, to `count` objects, keeping its
  /// values; new ones are default-initialised.  Only the first array since
  /// begin() may outgrow the block: it moves to a block of twice the room,
  /// so only the returned span is valid afterwards.
  template <typename T>
  std::span<T> resize(std::span<T> last, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> && alignof(T) <= kAlign);
    const std::size_t offset = used_ - bytes<T>(last.size());
    HP_CHECK(last.empty() || static_cast<void*>(last.data()) ==
                                 storage_.get() + offset,
             "ScratchPool::resize needs the tenancy's newest array");
    const std::size_t need = offset + bytes<T>(count);
    if (need > capacity_) grow(offset, bytes<T>(last.size()), need);
    used_ = need;
    if (count == 0) return {};
    auto* const first = static_cast<T*>(
        static_cast<void*>(storage_.get() + offset));
    std::uninitialized_default_construct(first + std::min(count, last.size()),
                                         first + count);
    return {std::launder(first), count};
  }

  const std::byte* data() const { return storage_.get(); }
  std::size_t capacity() const { return capacity_; }

 private:
  /// Moves the first array's `keep` bytes to a block of 2·`need` bytes.
  void grow(std::size_t offset, std::size_t keep, std::size_t need);

  std::unique_ptr<std::byte[]> storage_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
};

}  // namespace hyperpath
