#include "dsp/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace lfbs::dsp {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double sum = 0.0;
  for (double x : xs) sum += (x - m) * (x - m);
  return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

Complex mean(std::span<const Complex> xs) {
  if (xs.empty()) return {};
  Complex sum{};
  for (const Complex& x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

namespace {

/// Finite doubles as unsigned keys in the same order: the IEEE bits with
/// the sign bit flipped, and for negative values every other bit too.
std::uint64_t order_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto negative =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >> 63);
  return bits ^ (negative | (std::uint64_t{1} << 63));
}

/// Below this size selection runs over the whole input: at 1,024 values
/// (NoiseTracker's block) the bucket passes cost more than they save.
constexpr std::size_t kBucketSelectMin = 8192;
/// Values per pool task in the bucket passes. Fixed, so the work split
/// depends only on the input; every split selects the same values.
constexpr std::size_t kChunk = 4096;
/// Buckets are 1/64 of a binade wide (the key's top 6 mantissa bits), and
/// 2^13 of them end at a chunk's largest key, so they span 128 binades;
/// keys further below share the chunk's bucket 0. The bucket holding the
/// median or the MAD of |dS| keeps under 1% of it.
constexpr int kBucketShift = 52 - 6;
constexpr std::uint64_t kBuckets = std::uint64_t{1} << 13;

/// The absolute bucket (key >> kBucketShift) at or below which a histogram
/// whose top bucket is `top` folds keys into its bucket 0.
std::uint64_t bucket_base(std::uint64_t top) {
  return std::max(top, kBuckets - 1) - (kBuckets - 1);
}

/// Order statistics lo and lo + 1 (lo itself when lo is the last) of
/// value(x) over xs, equal to a full sort's. Small inputs select in a copy.
/// Large ones narrow to the bucket of keys that holds order statistic lo,
/// with no copy of the input, in two rounds of passes per fixed chunk on
/// the pool:
///  1. each chunk finds its largest key, then counts its keys per bucket
///     of a histogram that ends at that key's bucket (a count fits 16
///     bits);
///  2. the caller walks down from the top bucket, summing the chunks'
///     counts, to the bucket that holds lo, and lo's rank inside it. Every
///     bucket at or below `fold`, the lowest bucket of the histogram ending
///     at the top, is some chunk's bucket 0, so those are walked as one;
///  3. each chunk copies its values in that bucket to its own offset in
///     one small buffer.
/// nth_element at lo's rank inside the bucket gives the lo-th order
/// statistic; the rest of the bucket holds only values >= it, so its
/// minimum is the (lo+1)-th, unless lo is the bucket's last rank, when it
/// is the least value above the bucket, found by one more round.
template <typename Value>
std::pair<double, double> select_pair(std::span<const double> xs,
                                      std::size_t lo, Value value) {
  const std::size_t n = xs.size();
  if (n < kBucketSelectMin) {
    std::vector<double> part(n);
    std::transform(xs.begin(), xs.end(), part.begin(), value);
    const auto nth = part.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(part.begin(), nth, part.end());
    return {*nth, lo + 1 < n ? *std::min_element(nth + 1, part.end()) : *nth};
  }

  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  const auto chunk_of = [&](std::size_t c) {
    return xs.subspan(c * kChunk, std::min(kChunk, n - c * kChunk));
  };
  const auto bucket = [&](double x) {
    return order_key(value(x)) >> kBucketShift;
  };
  std::vector<std::uint64_t> tops(chunks);  // each chunk's top bucket
  const auto counts =
      std::make_unique_for_overwrite<std::uint16_t[]>(chunks * kBuckets);
  parallel_for(chunks, [&](std::size_t c) {
    std::uint64_t top = 0;
    for (const double x : chunk_of(c)) top = std::max(top, bucket(x));
    tops[c] = top;
    const std::uint64_t base = bucket_base(top);
    std::uint16_t* count = &counts[c * kBuckets];
    std::fill(count, count + kBuckets, std::uint16_t{0});
    for (const double x : chunk_of(c)) {
      const std::uint64_t b = bucket(x);
      ++count[b > base ? b - base : 0];
    }
  });

  const std::uint64_t top = *std::max_element(tops.begin(), tops.end());
  const std::uint64_t fold = bucket_base(top);
  // Chunk c's count in bucket b, or at or below `fold` for b == fold.
  const auto chunk_count = [&](std::size_t c, std::uint64_t b) {
    const std::uint16_t* count = &counts[c * kBuckets];
    const std::uint64_t base = bucket_base(tops[c]);
    if (b > fold) return b <= tops[c] ? std::size_t{count[b - base]} : 0;
    const std::uint64_t last = std::min(fold - base, kBuckets - 1);
    return std::accumulate(count, count + last + 1, std::size_t{0});
  };
  std::uint64_t target = top;
  std::size_t below = n;  // values in buckets <= target
  std::size_t in_target = 0;
  for (;; --target) {
    in_target = 0;
    for (std::size_t c = 0; c < chunks; ++c) in_target += chunk_count(c, target);
    if (target == fold || below - in_target <= lo) break;
    below -= in_target;
  }
  const std::size_t rank = lo - (below - in_target);

  std::vector<std::size_t> offsets(chunks + 1, 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    offsets[c + 1] = offsets[c] + chunk_count(c, target);
  }
  // The gathered buckets [first, target]: the target, or all up to fold.
  const std::uint64_t first = target == fold ? 0 : target;
  std::vector<double> part(in_target);
  parallel_for(chunks, [&](std::size_t c) {
    double* out = part.data() + offsets[c];
    for (const double x : chunk_of(c)) {
      if (bucket(x) - first <= target - first) *out++ = value(x);
    }
  });

  const auto nth = part.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(part.begin(), nth, part.end());
  if (rank + 1 < part.size()) {
    return {*nth, *std::min_element(nth + 1, part.end())};
  }
  if (lo + 1 == n) return {*nth, *nth};
  std::vector<double> least(chunks);
  parallel_for(chunks, [&](std::size_t c) {
    double m = std::numeric_limits<double>::infinity();
    for (const double x : chunk_of(c)) {
      if (bucket(x) > target) m = std::min(m, value(x));
    }
    least[c] = m;
  });
  return {*nth, *std::min_element(least.begin(), least.end())};
}

/// The interpolated p-th percentile of value(x) over xs.
template <typename Value>
double select_percentile(std::span<const double> xs, double p, Value value) {
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto [a, next] = select_pair(xs, lo, value);
  return a * (1.0 - frac) + next * frac;
}

}  // namespace

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

MedianMad median_mad(std::span<const double> xs) {
  LFBS_CHECK(!xs.empty());
  const double med = select_percentile(xs, 50.0, [](double x) { return x; });
  return {med, select_percentile(xs, 50.0, [med](double x) {
            return std::abs(x - med);
          })};
}

double percentile(std::span<const double> xs, double p) {
  LFBS_CHECK(!xs.empty());
  LFBS_CHECK(p >= 0.0 && p <= 100.0);
  return select_percentile(xs, p, [](double x) { return x; });
}

double min(std::span<const double> xs) {
  LFBS_CHECK(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  LFBS_CHECK(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double rms(std::span<const Complex> xs) { return std::sqrt(mean_power(xs)); }

double mean_power(std::span<const Complex> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const Complex& x : xs) sum += std::norm(x);
  return sum / static_cast<double>(xs.size());
}

std::vector<std::size_t> histogram(std::span<const double> xs, double lo,
                                   double hi, std::size_t bins) {
  LFBS_CHECK(bins > 0);
  LFBS_CHECK(hi > lo);
  std::vector<std::size_t> counts(bins, 0);
  const double scale = static_cast<double>(bins) / (hi - lo);
  for (double x : xs) {
    auto idx = static_cast<std::int64_t>((x - lo) * scale);
    idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(bins) - 1);
    ++counts[static_cast<std::size_t>(idx)];
  }
  return counts;
}

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace lfbs::dsp
