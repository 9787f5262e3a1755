#pragma once

#include <cstdint>
#include <vector>

namespace lfbs {

/// Deterministic, seedable random number generator (xoshiro256**).
///
/// Every source of randomness in the library — payload bits, channel
/// coefficients, comparator jitter, AWGN — flows through an Rng so that
/// experiments are exactly reproducible from a seed. The generator is a
/// value type: copy it to fork an independent stream, or use split().
class Rng {
 public:
  /// Seeds the four 64-bit words of state via splitmix64, so that even
  /// adjacent seeds produce uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (cached second deviate).
  double gaussian();

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Random bit vector of the given length.
  std::vector<bool> bits(std::size_t n);

  /// Derive an independent child generator. Deterministic: the same parent
  /// state always yields the same child.
  Rng split();

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_u64(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4]{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// The seed of the `index`-th stream derived from `seed`: splitmix64 of
/// seed + golden·(index + 1), so even adjacent indices get uncorrelated
/// streams. The windowed decoder seeds each window this way, and a decode
/// pass each stream group.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace lfbs
