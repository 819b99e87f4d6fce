// Deterministic pseudo-random number generation.
//
// Every randomized component (random permutation workloads, fault
// injection, and the Pósa rotations of the Hamiltonian-decomposition search
// that generates the decomposition tables) takes an explicit 64-bit seed so that tests and benchmarks are exactly
// reproducible.  We implement xoshiro256** seeded via splitmix64 rather than
// using std::mt19937 so that the stream is identical across standard-library
// implementations.
#pragma once

#include <cstdint>
#include <vector>

namespace hyperpath {

/// xoshiro256** with splitmix64 seeding.  Satisfies
/// std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()();

  /// Uniform in [0, bound) via Lemire rejection; bound must be >= 1.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi);

  /// True with probability p (0 <= p <= 1).
  bool chance(double p);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<std::uint32_t> permutation(std::uint32_t n);

 private:
  std::uint64_t s_[4];
};

}  // namespace hyperpath
