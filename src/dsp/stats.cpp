#include "dsp/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"

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
/// Buckets are 1/64 of a binade wide (the key's top 6 mantissa bits), and
/// 2^13 of them (64 KB of counts) end at the largest key, so they span 128
/// binades; keys further below share bucket 0. The bucket holding the
/// median or the MAD of |dS| keeps under 1% of it.
constexpr int kBucketShift = 52 - 6;
constexpr std::size_t kBuckets = std::size_t{1} << 13;

/// The interpolated p-th percentile by selection, reordering `xs`. Large
/// inputs first narrow to the bucket of keys that holds order statistic
/// lo: one pass finds the largest key, one counts the keys per bucket, one
/// partitions that bucket to the front. nth_element at lo's rank inside the
/// bucket gives the lo-th order statistic; the rest of the bucket holds
/// only values >= it, so its minimum is the (lo+1)-th, unless lo is the
/// bucket's last rank, when it is the smallest key above the bucket. These
/// are the two values a full sort puts at lo and lo + 1.
double select_percentile(std::span<double> xs, double p) {
  const std::size_t n = xs.size();
  const double pos = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  std::span<double> part = xs;  // holds order statistic lo at `rank`
  std::size_t rank = lo;
  if (n >= kBucketSelectMin) {
    std::uint64_t top = 0;
    for (const double x : xs) top = std::max(top, order_key(x));
    const std::uint64_t base =
        std::max<std::uint64_t>(top >> kBucketShift, kBuckets - 1) -
        (kBuckets - 1);
    const auto bucket = [base](double x) {
      const std::uint64_t k = order_key(x) >> kBucketShift;
      return k > base ? static_cast<std::size_t>(k - base) : std::size_t{0};
    };
    std::vector<std::size_t> counts(kBuckets, 0);
    for (const double x : xs) ++counts[bucket(x)];
    std::size_t b = 0;
    while (counts[b] <= rank) rank -= counts[b++];
    const auto end = std::partition(xs.begin(), xs.end(),
                                    [&](double x) { return bucket(x) == b; });
    part = {xs.begin(), end};
  }
  const auto nth = part.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(part.begin(), nth, part.end());
  const double a = *nth;
  double next = a;
  if (rank + 1 < part.size()) {
    next = *std::min_element(nth + 1, part.end());
  } else if (lo + 1 < n) {
    const std::uint64_t key = order_key(a);
    next = std::numeric_limits<double>::infinity();
    for (const double x : xs.subspan(part.size())) {
      if (order_key(x) > key) next = std::min(next, x);
    }
  }
  return a * (1.0 - frac) + next * frac;
}

}  // namespace

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

MedianMad median_mad(std::span<const double> xs) {
  LFBS_CHECK(!xs.empty());
  // One scratch buffer: the median's selection, then the deviations from it.
  std::vector<double> scratch(xs.begin(), xs.end());
  const double med = select_percentile(scratch, 50.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    scratch[i] = std::abs(xs[i] - med);
  }
  return {med, select_percentile(scratch, 50.0)};
}

double percentile(std::span<const double> xs, double p) {
  LFBS_CHECK(!xs.empty());
  LFBS_CHECK(p >= 0.0 && p <= 100.0);
  std::vector<double> scratch(xs.begin(), xs.end());
  return select_percentile(scratch, p);
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
