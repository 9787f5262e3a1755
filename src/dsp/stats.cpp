#include "dsp/stats.h"

#include <algorithm>
#include <cmath>

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

/// The interpolated p-th percentile by selection, reordering `xs`. After
/// nth_element at lo, the rest of the span holds only values >= the lo-th
/// order statistic, so its minimum is the (lo+1)-th: the two values a full
/// sort puts at lo and lo + 1.
double select_percentile(std::span<double> xs, double p) {
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), nth, xs.end());
  const double a = *nth;
  const double b =
      lo + 1 < xs.size() ? *std::min_element(nth + 1, xs.end()) : a;
  return a * (1.0 - frac) + b * frac;
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
