#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/check.h"

namespace lfbs {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  LFBS_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ull - (~0ull % n + 1) % n;
  std::uint64_t v = next_u64();
  while (v > limit) v = next_u64();
  return v % n;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  LFBS_CHECK(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  return lo + static_cast<std::int64_t>(uniform_u64(span));
}

double Rng::gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::gaussian(double mean, double stddev) {
  return mean + stddev * gaussian();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<bool> Rng::bits(std::size_t n) {
  std::vector<bool> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = bernoulli(0.5);
  return out;
}

Rng Rng::split() { return Rng(next_u64()); }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * index;
  return splitmix64(x);
}

}  // namespace lfbs
