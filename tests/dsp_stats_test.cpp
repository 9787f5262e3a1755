// Tests for src/dsp statistics, filters, and peak detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "dsp/filters.h"
#include "dsp/peaks.h"
#include "dsp/resample.h"
#include "dsp/stats.h"

namespace lfbs::dsp {
namespace {

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(variance(xs), 2.0);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(2.0));
}

TEST(Stats, EmptyAndDegenerate) {
  EXPECT_DOUBLE_EQ(mean(std::span<const double>{}), 0.0);
  const std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
}

TEST(Stats, ComplexMean) {
  const std::vector<Complex> xs = {{1, 1}, {3, -1}};
  const Complex m = mean(std::span<const Complex>(xs));
  EXPECT_DOUBLE_EQ(m.real(), 2.0);
  EXPECT_DOUBLE_EQ(m.imag(), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{1, 2, 3, 4}), 2.5);
}

TEST(Stats, Percentiles) {
  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) xs.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 50.0);
  EXPECT_NEAR(percentile(xs, 25.0), 25.0, 1e-9);
}

/// The full-sort percentile that selection replaced.
double sorted_percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

// percentile and median_mad select their order statistics instead of
// sorting; the results must equal the sort's bit for bit, on both size
// parities, with and without heavy ties, on both sides of the size where
// selection first narrows to one bucket of keys (an epoch's 37,500 |dS|
// values, a stream window's 100,000), and on key layouts that stress the
// buckets: values over 60 binades, values all in one bucket, and negative
// values mixed with both zeros.
TEST(Stats, SelectionEqualsFullSort) {
  Rng rng(1601);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 12; ++n) sizes.push_back(n);
  for (std::size_t n : {99u, 100u, 1023u, 1024u, 4999u, 5000u, 8191u, 8192u,
                        37500u, 100000u}) {
    sizes.push_back(n);
  }
  for (int i = 0; i < 30; ++i) sizes.push_back(1 + rng.uniform_u64(20000));
  for (const std::size_t n : sizes) {
    for (int kind = 0; kind < 6; ++kind) {
      std::vector<double> xs(n);
      for (double& x : xs) {
        switch (kind) {
          case 0: x = rng.gaussian(0.0, 1.0); break;
          case 1: x = std::abs(rng.gaussian(0.0, 1.0)); break;  // like |dS|
          case 2: x = 0.25 * static_cast<double>(rng.uniform_u64(5)); break;
          case 3:  // 60 binades
            x = std::ldexp(rng.uniform(1.0, 2.0),
                           static_cast<int>(rng.uniform_u64(61)) - 30);
            break;
          case 4: x = 1.0 + rng.uniform(0.0, 1e-3); break;  // one bucket
          default:
            switch (rng.uniform_u64(4)) {
              case 0: x = -0.0; break;
              case 1: x = 0.0; break;
              case 2: x = -std::abs(rng.gaussian(0.0, 1.0)); break;
              default: x = rng.gaussian(0.0, 1e-3);
            }
        }
      }
      const std::vector<double> ps = {0.0,  5.0,  50.0, 95.0, 100.0,
                                      rng.uniform(0.0, 100.0),
                                      rng.uniform(0.0, 100.0)};
      for (const double p : ps) {
        EXPECT_EQ(percentile(xs, p), sorted_percentile(xs, p))
            << "n " << n << " kind " << kind << " p " << p;
      }
      const double med = sorted_percentile(xs, 50.0);
      std::vector<double> dev(n);
      for (std::size_t i = 0; i < n; ++i) dev[i] = std::abs(xs[i] - med);
      const MedianMad mm = median_mad(xs);
      EXPECT_EQ(mm.median, med) << "n " << n << " kind " << kind;
      EXPECT_EQ(mm.mad, sorted_percentile(dev, 50.0))
          << "n " << n << " kind " << kind;
      EXPECT_EQ(median(xs), med);
    }
  }
}

TEST(Stats, MinMax) {
  const std::vector<double> xs = {3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min(xs), -1.0);
  EXPECT_DOUBLE_EQ(max(xs), 7.0);
}

TEST(Stats, RmsAndPower) {
  const std::vector<Complex> xs = {{3, 4}, {3, 4}};  // |x| = 5
  EXPECT_DOUBLE_EQ(mean_power(xs), 25.0);
  EXPECT_DOUBLE_EQ(rms(xs), 5.0);
}

TEST(Stats, HistogramBucketsAndClamping) {
  const std::vector<double> xs = {-10.0, 0.1, 0.4, 0.6, 0.9, 99.0};
  const auto h = histogram(xs, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 3u);  // -10 clamped into first bucket
  EXPECT_EQ(h[1], 3u);  // 99 clamped into last bucket
}

TEST(Stats, RunningStatsMatchesBatch) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
}

TEST(Filters, MovingAverageFlatSignal) {
  const std::vector<double> xs(50, 3.0);
  const auto out = moving_average(xs, 7);
  for (double v : out) EXPECT_NEAR(v, 3.0, 1e-12);
}

TEST(Filters, MovingAverageSmoothsStep) {
  std::vector<double> xs(20, 0.0);
  for (std::size_t i = 10; i < 20; ++i) xs[i] = 1.0;
  const auto out = moving_average(xs, 5);
  EXPECT_LT(out[9], 1.0);
  EXPECT_GT(out[9], 0.0);
  EXPECT_NEAR(out[0], 0.0, 1e-12);
  EXPECT_NEAR(out[19], 1.0, 1e-12);
}

TEST(Filters, RemoveDcZeroesMean) {
  std::vector<Complex> xs = {{1, 2}, {3, 2}, {5, 2}};
  const auto out = remove_dc(xs);
  Complex sum{};
  for (const auto& x : out) sum += x;
  EXPECT_NEAR(std::abs(sum), 0.0, 1e-12);
}

TEST(Filters, Diff) {
  const std::vector<double> xs = {1, 4, 9, 16};
  const auto d = diff(xs);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  EXPECT_DOUBLE_EQ(d[2], 7.0);
}

TEST(Filters, OnePoleConverges) {
  OnePole lp(0.5);
  double y = 0.0;
  for (int i = 0; i < 32; ++i) y = lp.step(10.0);
  EXPECT_NEAR(y, 10.0, 1e-4);
}

TEST(Filters, OnePolePrimesOnFirstSample) {
  OnePole lp(0.1);
  EXPECT_DOUBLE_EQ(lp.step(5.0), 5.0);
}

TEST(Peaks, FindsIsolatedPeaks) {
  std::vector<double> xs(30, 0.0);
  xs[5] = 2.0;
  xs[20] = 3.0;
  const auto peaks = find_peaks(xs, {.min_value = 1.0, .min_distance = 3});
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0].index, 20u);  // sorted by value
  EXPECT_EQ(peaks[1].index, 5u);
}

TEST(Peaks, MinDistanceSuppressesNeighbours) {
  std::vector<double> xs(30, 0.0);
  xs[10] = 3.0;
  xs[12] = 2.5;
  const auto peaks = find_peaks(xs, {.min_value = 1.0, .min_distance = 5});
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 10u);
}

// Peaks 3 apart, all equal, with min_distance 4: each conflicts with its
// neighbours, and the earlier index must win every time, whatever order
// the sort leaves equal values in.
TEST(Peaks, EqualPeaksEarlierIndexWins) {
  std::vector<double> xs(300, 0.0);
  for (std::size_t i = 1; i < xs.size(); i += 3) xs[i] = 1.0;
  const auto peaks = find_peaks(xs, {.min_value = 0.5, .min_distance = 4});
  ASSERT_EQ(peaks.size(), 50u);
  for (std::size_t k = 0; k < peaks.size(); ++k) {
    EXPECT_EQ(peaks[k].index, 1 + 6 * k);
  }
}

TEST(Peaks, PlateauReportsOnce) {
  std::vector<double> xs(20, 0.0);
  xs[8] = xs[9] = xs[10] = 2.0;  // flat top
  const auto peaks = find_peaks(xs, {.min_value = 1.0, .min_distance = 1});
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 8u);
}

TEST(Peaks, ThresholdFiltersNoise) {
  std::vector<double> xs = {0.1, 0.5, 0.1, 0.9, 0.1};
  const auto peaks = find_peaks(xs, {.min_value = 0.8, .min_distance = 1});
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 3u);
}

/// The pairwise accept loop find_peaks replaced: candidates in descending
/// value (a stable sort keeps equal values in index order), each checked
/// against every peak accepted so far.
std::vector<Peak> pairwise_peaks(const std::vector<double>& xs,
                                 const PeakOptions& opts) {
  std::vector<Peak> candidates;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double prev = i > 0 ? xs[i - 1] : -1e300;
    const double next = i + 1 < xs.size() ? xs[i + 1] : -1e300;
    if (xs[i] >= opts.min_value && xs[i] > prev && xs[i] >= next) {
      candidates.push_back({i, xs[i]});
    }
  }
  std::stable_sort(
      candidates.begin(), candidates.end(),
      [](const Peak& a, const Peak& b) { return a.value > b.value; });
  std::vector<Peak> accepted;
  for (const Peak& c : candidates) {
    const bool too_close =
        std::any_of(accepted.begin(), accepted.end(), [&](const Peak& a) {
          const std::size_t d =
              a.index > c.index ? a.index - c.index : c.index - a.index;
          return d < opts.min_distance;
        });
    if (!too_close) accepted.push_back(c);
  }
  return accepted;
}

TEST(Peaks, MatchesPairwiseReference) {
  // Trials 200 and up span several of detection's 4,096-sample chunks, and
  // are also picked piece by piece. Most multiples of 4,096 get a peak
  // min_distance + 1 samples before them, min_distance samples of 0 and a
  // peak on them, so pieces are cut next to peaks; a floor of 0 leaves no
  // sample below it, so the whole series is one piece.
  constexpr std::size_t kChunk = 4096;
  Rng rng(1801);
  std::size_t multi_piece = 0, one_piece = 0, near_cuts = 0;
  for (int trial = 0; trial < 220; ++trial) {
    const bool long_series = trial >= 200;
    const std::size_t n = trial < 3 ? static_cast<std::size_t>(trial)
                          : long_series ? 8192 + rng.uniform_u64(24000)
                                        : rng.uniform_u64(5001);
    const int kind = trial % 4;
    std::vector<double> xs(n);
    for (double& x : xs) {
      switch (kind) {
        case 0: x = std::abs(rng.gaussian(0.0, 1.0)); break;  // noise
        case 1: x = 0.5 * static_cast<double>(rng.uniform_u64(4)); break;
        default: x = rng.uniform(0.0, 1.0);
      }
    }
    if (kind >= 2) {  // planted plateaus and exact ties among them
      for (int k = 0; k < 40 && n > 0; ++k) {
        const std::size_t at = rng.uniform_u64(n);
        const std::size_t width = 1 + rng.uniform_u64(4);
        const double top = kind == 2 ? 3.0 : 2.0 + rng.uniform(0.0, 1.0);
        for (std::size_t i = at; i < std::min(n, at + width); ++i) xs[i] = top;
      }
    }
    const PeakOptions opts{
        .min_value = trial % 5 == 0 ? 0.0 : rng.uniform(0.0, 1.5),
        .min_distance = 1 + rng.uniform_u64(12)};
    if (long_series) {
      for (std::size_t b = kChunk; b < n; b += kChunk) {
        if (rng.bernoulli(0.25)) continue;  // no run here: the cut moves on
        xs[b - opts.min_distance - 1] = 2.5 + rng.uniform(0.0, 1.0);
        for (std::size_t i = b - opts.min_distance; i < b; ++i) xs[i] = 0.0;
        xs[b] = 2.5 + rng.uniform(0.0, 1.0);
      }
    }
    const auto got = find_peaks(xs, opts);
    const auto want = pairwise_peaks(xs, opts);
    ASSERT_EQ(got.size(), want.size())
        << "trial " << trial << " n " << n << " d " << opts.min_distance;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].index, want[k].index) << "trial " << trial;
      EXPECT_EQ(got[k].value, want[k].value) << "trial " << trial;
    }

    // Piece by piece, the same peaks.
    const std::vector<std::size_t> bounds = peak_pieces(xs, opts, kChunk);
    ASSERT_FALSE(bounds.empty());
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), n);
    std::vector<std::size_t> pieced;
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      ASSERT_LT(bounds[k], bounds[k + 1]) << "trial " << trial;
      const auto piece = std::span<const double>(xs).subspan(
          bounds[k], bounds[k + 1] - bounds[k]);
      for (const Peak& p : find_peaks(piece, opts)) {
        const std::size_t at = bounds[k] + p.index;
        pieced.push_back(at);
        for (const std::size_t cut : {bounds[k], bounds[k + 1]}) {
          const std::size_t d = cut > at ? cut - at : at - cut;
          if (cut > 0 && cut < n && d <= opts.min_distance + 1) ++near_cuts;
        }
      }
    }
    std::vector<std::size_t> whole;
    for (const Peak& p : want) whole.push_back(p.index);
    std::sort(pieced.begin(), pieced.end());
    std::sort(whole.begin(), whole.end());
    EXPECT_EQ(pieced, whole) << "trial " << trial << " n " << n;
    if (long_series && bounds.size() > 2) ++multi_piece;
    if (long_series && bounds.size() == 2) ++one_piece;
  }
  EXPECT_GT(multi_piece, 10u);
  EXPECT_GT(one_piece, 0u);
  EXPECT_GT(near_cuts, 50u);
}

TEST(Resample, IdentityWhenRatesEqual) {
  std::vector<Complex> xs = {{1, 0}, {2, 0}, {3, 0}};
  const auto out = resample_linear(xs, 1e6, 1e6);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(std::abs(out[i] - xs[i]), 0.0, 1e-12);
  }
}

TEST(Resample, DownsampleByTwoKeepsEverySecond) {
  std::vector<Complex> xs;
  for (int i = 0; i < 10; ++i) xs.push_back({static_cast<double>(i), 0.0});
  const auto out = resample_linear(xs, 2e6, 1e6);
  ASSERT_GE(out.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(out[i].real(), 2.0 * static_cast<double>(i), 1e-12);
  }
}

TEST(Resample, UpsampleInterpolatesLinearly) {
  const std::vector<Complex> xs = {{0, 0}, {1, 1}};
  const auto out = resample_linear(xs, 1e6, 4e6);
  ASSERT_GE(out.size(), 4u);
  EXPECT_NEAR(out[1].real(), 0.25, 1e-12);
  EXPECT_NEAR(out[2].imag(), 0.5, 1e-12);
}

TEST(Resample, PreservesToneShape) {
  // A slow tone resampled down and back keeps its values.
  std::vector<Complex> xs;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back({std::sin(2 * M_PI * i / 200.0), 0.0});
  }
  const auto down = resample_linear(xs, 10e6, 5e6);
  const auto back = resample_linear(down, 5e6, 10e6);
  double worst = 0.0;
  for (std::size_t i = 0; i < std::min(xs.size(), back.size()); ++i) {
    worst = std::max(worst, std::abs(back[i] - xs[i]));
  }
  EXPECT_LT(worst, 0.01);
}

TEST(Resample, EmptyInput) {
  EXPECT_TRUE(resample_linear({}, 1e6, 2e6).empty());
}

}  // namespace
}  // namespace lfbs::dsp
