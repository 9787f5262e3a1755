#pragma once

#include <span>
#include <vector>

#include "common/units.h"

namespace lfbs::dsp {

/// Arithmetic mean. Returns 0 for an empty span.
double mean(std::span<const double> xs);

/// Population variance (divides by N). Returns 0 for fewer than 2 samples.
double variance(std::span<const double> xs);

double stddev(std::span<const double> xs);

/// Complex mean. Returns 0 for an empty span.
Complex mean(std::span<const Complex> xs);

/// Median (percentile 50). Requires a non-empty span of finite values.
double median(std::span<const double> xs);

/// Median and median absolute deviation of a non-empty span of finite
/// values, both by selection in one scratch copy. The MAD is unscaled:
/// multiply by kMadToSigma for a robust Gaussian sigma.
struct MedianMad {
  double median = 0.0;
  double mad = 0.0;
};
MedianMad median_mad(std::span<const double> xs);

/// MAD-to-sigma factor for Gaussian data: 1 / Phi^-1(3/4).
inline constexpr double kMadToSigma = 1.4826;

/// Linear-interpolated percentile, p in [0, 100]. Selects the two order
/// statistics it interpolates from a copy, in linear time, and equals the
/// full sort's result: inputs of 8,192 values or more first narrow to the
/// one bucket of an order-preserving key histogram that holds them, then
/// nth_element and min_element run inside it. Requires non-empty input of
/// finite values: ordering NaN keys is undefined.
double percentile(std::span<const double> xs, double p);

/// min and max of a non-empty span.
double min(std::span<const double> xs);
double max(std::span<const double> xs);

/// Root mean square of complex samples (sqrt of mean power).
double rms(std::span<const Complex> xs);

/// Mean power |x|^2 of complex samples.
double mean_power(std::span<const Complex> xs);

/// Fixed-width histogram over [lo, hi) with `bins` buckets. Out-of-range
/// samples are clamped into the first/last bucket.
std::vector<std::size_t> histogram(std::span<const double> xs, double lo,
                                   double hi, std::size_t bins);

/// Streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Population variance; 0 with fewer than 2 samples.
  double variance() const;
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace lfbs::dsp
