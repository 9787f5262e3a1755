// Tests for src/signal: buffers, waveform synthesis, edge detection, the
// noise tracker, and IQ capture I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <fstream>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "dsp/peaks.h"
#include "dsp/stats.h"
#include "signal/edge_detector.h"
#include "signal/noise_tracker.h"
#include "signal/iq_io.h"
#include "signal/sample_buffer.h"
#include "signal/waveform.h"

namespace lfbs::signal {
namespace {

TEST(SampleBuffer, TimeIndexMapping) {
  SampleBuffer buf(1e6, 1000);
  EXPECT_DOUBLE_EQ(buf.duration(), 1e-3);
  EXPECT_EQ(buf.index_of(500e-6), 500);
  EXPECT_DOUBLE_EQ(buf.time_of(250), 250e-6);
  EXPECT_EQ(buf.index_of(-1.0), 0);           // clamped
  EXPECT_EQ(buf.index_of(10.0), 999);         // clamped
}

TEST(SampleBuffer, AccumulateAddsElementwise) {
  SampleBuffer a(1e6, 4), b(1e6, 4);
  a[0] = {1, 1};
  b[0] = {2, -1};
  a.accumulate(b);
  EXPECT_EQ(a[0], (Complex{3, 0}));
}

TEST(SampleBuffer, WindowedMeans) {
  std::vector<Complex> xs(10);
  for (int i = 0; i < 10; ++i) xs[i] = {static_cast<double>(i), 0.0};
  // Mean of [2, 5) = (2+3+4)/3 = 3.
  EXPECT_NEAR(windowed_mean_before(xs, 5, 3).real(), 3.0, 1e-12);
  // Mean of [5, 8) = 6.
  EXPECT_NEAR(windowed_mean_after(xs, 5, 3).real(), 6.0, 1e-12);
  // Clamped at the buffer edge.
  std::size_t count = 0;
  windowed_mean_before(xs, 1, 5, &count);
  EXPECT_EQ(count, 1u);
}

TEST(StateTimeline, LevelsBetweenTransitions) {
  StateTimeline tl(0.0);
  tl.add(1e-3, 1.0);
  tl.add(2e-3, 0.0);
  EXPECT_DOUBLE_EQ(tl.level_at(0.5e-3), 0.0);
  EXPECT_DOUBLE_EQ(tl.level_at(1.5e-3), 1.0);
  EXPECT_DOUBLE_EQ(tl.level_at(2.5e-3), 0.0);
}

TEST(StateTimeline, CoalescesNoOpTransitions) {
  StateTimeline tl(0.0);
  tl.add(1e-3, 0.0);  // no-op
  EXPECT_TRUE(tl.empty());
  tl.add(2e-3, 1.0);
  tl.add(3e-3, 1.0);  // no-op
  EXPECT_EQ(tl.transitions().size(), 1u);
}

TEST(StateTimeline, RenderStepAndRamp) {
  StateTimeline tl(0.0);
  tl.add(50e-6, 1.0);
  const auto levels = tl.render(1e6, 100, 4e-6);  // 4-sample ramp
  EXPECT_DOUBLE_EQ(levels[40], 0.0);
  EXPECT_DOUBLE_EQ(levels[60], 1.0);
  // Mid-ramp sample is strictly between the levels.
  EXPECT_GT(levels[50], 0.2);
  EXPECT_LT(levels[50], 0.8);
}

TEST(StateTimeline, RenderZeroRiseTimeIsSharp) {
  StateTimeline tl(0.0);
  tl.add(50e-6, 1.0);
  const auto levels = tl.render(1e6, 100, 0.0);
  EXPECT_DOUBLE_EQ(levels[49], 0.0);
  EXPECT_DOUBLE_EQ(levels[51], 1.0);
}

TEST(NrzTimeline, EncodesBitsAndReturnsToIdle) {
  const std::vector<bool> bits = {true, true, false, true};
  const StateTimeline tl = nrz_timeline(bits, 1e-3, 1e-4);
  EXPECT_DOUBLE_EQ(tl.level_at(1.05e-3), 1.0);   // bit 0
  EXPECT_DOUBLE_EQ(tl.level_at(1.15e-3), 1.0);   // bit 1 (no edge)
  EXPECT_DOUBLE_EQ(tl.level_at(1.25e-3), 0.0);   // bit 2
  EXPECT_DOUBLE_EQ(tl.level_at(1.35e-3), 1.0);   // bit 3
  EXPECT_DOUBLE_EQ(tl.level_at(1.45e-3), 0.0);   // idle after the frame
}

class EdgeDetectorTest : public ::testing::Test {
 protected:
  /// A buffer with steps of the given complex amplitude at the positions.
  SampleBuffer make_buffer(const std::vector<SampleIndex>& positions,
                           Complex amplitude, double noise, Rng& rng) {
    SampleBuffer buf(1e6, 2000);
    double level = 0.0;
    std::size_t next = 0;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (next < positions.size() &&
          static_cast<SampleIndex>(i) >= positions[next]) {
        level = level > 0.5 ? 0.0 : 1.0;
        ++next;
      }
      buf[i] = amplitude * level +
               Complex{rng.gaussian(0.0, noise), rng.gaussian(0.0, noise)};
    }
    return buf;
  }
};

TEST_F(EdgeDetectorTest, FindsAllEdgesAtPositions) {
  Rng rng(1);
  const std::vector<SampleIndex> positions = {200, 500, 800, 1400};
  const auto buf = make_buffer(positions, {0.1, 0.05}, 1e-4, rng);
  const EdgeDetector det({.window = 6, .guard = 2});
  const auto edges = det.detect(buf);
  ASSERT_EQ(edges.size(), positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    EXPECT_NEAR(edges[i].position, static_cast<double>(positions[i]), 3.0);
  }
}

TEST_F(EdgeDetectorTest, DifferentialSignAlternates) {
  Rng rng(2);
  const auto buf = make_buffer({300, 700}, {0.1, 0.0}, 1e-4, rng);
  const EdgeDetector det({.window = 6, .guard = 2});
  const auto edges = det.detect(buf);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_GT(edges[0].differential.real(), 0.05);   // rising
  EXPECT_LT(edges[1].differential.real(), -0.05);  // falling
}

TEST_F(EdgeDetectorTest, NoEdgesInPureNoise) {
  Rng rng(3);
  SampleBuffer buf(1e6, 2000);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = {rng.gaussian(0.0, 1e-3), rng.gaussian(0.0, 1e-3)};
  }
  EdgeDetectorConfig cfg{.window = 6, .guard = 2};
  cfg.min_strength = 1e-3;
  const EdgeDetector det(cfg);
  EXPECT_LE(det.detect(buf).size(), 2u);  // a couple of flukes at most
}

TEST_F(EdgeDetectorTest, DifferentialCancelsStaticBackground) {
  Rng rng(4);
  auto buf = make_buffer({600}, {0.1, -0.02}, 1e-4, rng);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] += Complex{3.0, 1.0};
  const EdgeDetector det({.window = 6, .guard = 2});
  const auto edges = det.detect(buf);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_NEAR(edges[0].differential.real(), 0.1, 0.01);
  EXPECT_NEAR(edges[0].differential.imag(), -0.02, 0.01);
}

TEST_F(EdgeDetectorTest, MinSeparationMergesClosePair) {
  Rng rng(5);
  const auto buf = make_buffer({400, 402}, {0.1, 0.0}, 1e-4, rng);
  EdgeDetectorConfig cfg{.window = 4, .guard = 1};
  cfg.min_separation = 8;
  const EdgeDetector det(cfg);
  EXPECT_EQ(det.detect(buf).size(), 1u);
}

TEST_F(EdgeDetectorTest, AdaptiveThresholdMatchesGlobalOnStationaryNoise) {
  // On a stationary channel the blockwise tracker and the global estimate
  // must agree: same edges, same order, same positions (the PR's
  // bit-identity invariant starts here).
  Rng rng(11);
  const std::vector<SampleIndex> positions = {200, 500, 800, 1400};
  const auto buf = make_buffer(positions, {0.1, 0.05}, 1e-4, rng);
  EdgeDetectorConfig cfg{.window = 6, .guard = 2};
  const auto global = EdgeDetector(cfg).detect(buf);
  cfg.adaptive_threshold = true;
  cfg.noise.block = 256;
  const auto adaptive = EdgeDetector(cfg).detect(buf);
  ASSERT_EQ(adaptive.size(), global.size());
  for (std::size_t i = 0; i < global.size(); ++i) {
    EXPECT_NEAR(adaptive[i].position, global[i].position, 0.5);
    EXPECT_NEAR(adaptive[i].strength, global[i].strength, 1e-9);
  }
}

// Buffers too short for any sample to have both full windows, and just
// long enough for one, two or three: |dS| switches between the clipped
// border formula and the interior one at every such length, with a clean
// unit step at every position. When some sample has full windows on both
// sides of the step, the step is found; every edge lies in the buffer
// and no mean difference of 0/1 levels exceeds 1.
TEST(EdgeDetector, ShortBuffers) {
  EdgeDetectorConfig cfg;
  // Threshold at the median alone: a short clean buffer has no noise floor.
  cfg.threshold_sigma = 0.0;
  const EdgeDetector det(cfg);
  const auto g = static_cast<SampleIndex>(cfg.guard);
  const auto w = static_cast<SampleIndex>(cfg.window);
  for (SampleIndex n = 1; n <= 2 * (g + w) + 2; ++n) {
    for (SampleIndex step = 0; step <= n; ++step) {
      SampleBuffer buf(1e6, static_cast<std::size_t>(n));
      for (SampleIndex i = step; i < n; ++i) {
        buf[static_cast<std::size_t>(i)] = {1.0, 0.0};
      }
      const auto edges = det.detect(buf);
      bool found = false;
      for (std::size_t k = 0; k < edges.size(); ++k) {
        EXPECT_GE(edges[k].position, 0.0);
        EXPECT_LE(edges[k].position, static_cast<double>(n - 1));
        EXPECT_LE(edges[k].strength, 1.0 + 1e-12);
        if (k > 0) {
          EXPECT_LE(edges[k - 1].position, edges[k].position);
        }
        found = found || std::abs(edges[k].position -
                                  static_cast<double>(step)) <=
                             static_cast<double>(g) + 1.0;
      }
      // Some interior sample i (g + w <= i <= n - g - w) straddles the
      // step: i - g <= step <= i + g.
      const bool visible = step > 0 && step < n &&
                           std::max(g + w, step - g) <=
                               std::min(n - g - w, step + g);
      if (visible) {
        EXPECT_TRUE(found) << "n " << n << " step " << step;
      }
    }
  }
}

// Every Edge::position equals a reference built from the two-window
// formula: at every sample, the before and after windows' sums read from
// one prefix sum, clipped to the buffer and each divided by its own length;
// then the global median/MAD threshold, peak picking and the parabolic
// refinement. A large DC offset makes the prefix values large, and steps
// sit within guard + window of both ends, where the windows clip.
TEST(EdgeDetector, PositionsMatchTwoWindowReference) {
  const auto reference = [](const SampleBuffer& buf,
                            const EdgeDetectorConfig& cfg) {
    const auto n = static_cast<SampleIndex>(buf.size());
    std::vector<Complex> prefix(buf.size() + 1);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      prefix[i + 1] = prefix[i] + buf[i];
    }
    const auto at = [&](SampleIndex i) {
      return prefix[static_cast<std::size_t>(i)];
    };
    const auto w = static_cast<SampleIndex>(cfg.window);
    const auto g = static_cast<SampleIndex>(cfg.guard);
    std::vector<double> d(buf.size(), 0.0);
    for (SampleIndex i = 0; i < n; ++i) {
      const SampleIndex bl = std::clamp<SampleIndex>(i - g - w, 0, n);
      const SampleIndex bh = std::clamp<SampleIndex>(i - g, 0, n);
      const SampleIndex al = std::clamp<SampleIndex>(i + g, 0, n);
      const SampleIndex ah = std::clamp<SampleIndex>(i + g + w, 0, n);
      if (bh <= bl || ah <= al) continue;
      d[static_cast<std::size_t>(i)] =
          magnitude((at(ah) - at(al)) / static_cast<double>(ah - al) -
                    (at(bh) - at(bl)) / static_cast<double>(bh - bl));
    }
    const dsp::MedianMad robust = dsp::median_mad(d);
    const NoiseEstimate noise{robust.median, dsp::kMadToSigma * robust.mad};
    const dsp::PeakOptions opts{
        .min_value = noise.threshold(cfg.threshold_sigma, cfg.min_strength),
        .min_distance = cfg.min_separation};
    std::vector<double> positions;
    for (const dsp::Peak& p : dsp::find_peaks(d, opts)) {
      double refined = static_cast<double>(p.index);
      if (p.index > 0 && p.index + 1 < d.size()) {
        const double dm = d[p.index - 1];
        const double dp = d[p.index + 1];
        const double denom = dm - 2.0 * d[p.index] + dp;
        if (denom < -1e-18) {
          const double shift = 0.5 * (dm - dp) / denom;
          if (std::abs(shift) <= 1.0) refined += shift;
        }
      }
      positions.push_back(refined);
    }
    std::sort(positions.begin(), positions.end());
    return positions;
  };
  const EdgeDetectorConfig configs[] = {
      {},
      {.window = 3, .guard = 1, .min_separation = 5},
      {.window = 6, .guard = 2},
  };
  Rng rng(31);
  std::size_t total = 0, near_ends = 0;
  for (const EdgeDetectorConfig& cfg : configs) {
    const auto reach = static_cast<SampleIndex>(cfg.guard + cfg.window);
    for (int trial = 0; trial < 20; ++trial) {
      const auto n = static_cast<SampleIndex>(rng.uniform_int(120, 600));
      // Steps at one to guard + window samples from each end, and inside.
      std::vector<SampleIndex> steps = {rng.uniform_int(1, reach),
                                        n - rng.uniform_int(1, reach)};
      for (SampleIndex s = 40; s + 40 < n; s += rng.uniform_int(30, 80)) {
        steps.push_back(s);
      }
      std::sort(steps.begin(), steps.end());
      const Complex dc{rng.uniform(-3e4, 3e4), rng.uniform(-3e4, 3e4)};
      SampleBuffer buf(1e6, static_cast<std::size_t>(n));
      Complex level{};
      std::size_t next = 0;
      for (SampleIndex i = 0; i < n; ++i) {
        while (next < steps.size() && steps[next] <= i) {
          level += std::polar(rng.uniform(0.05, 0.2), rng.uniform(0.0, 6.28));
          ++next;
        }
        buf[static_cast<std::size_t>(i)] =
            dc + level +
            Complex{rng.gaussian(0.0, 1e-3), rng.gaussian(0.0, 1e-3)};
      }
      const std::vector<double> expected = reference(buf, cfg);
      const std::vector<Edge> edges = EdgeDetector(cfg).detect(buf);
      ASSERT_EQ(edges.size(), expected.size()) << "n " << n;
      for (std::size_t k = 0; k < edges.size(); ++k) {
        EXPECT_EQ(edges[k].position, expected[k]) << "n " << n << " k " << k;
        const double p = edges[k].position;
        if (p < static_cast<double>(reach) ||
            p > static_cast<double>(n - reach - 1)) {
          ++near_ends;
        }
      }
      total += edges.size();
    }
  }
  EXPECT_GT(total, 300u);
  EXPECT_GT(near_ends, 40u);
}

TEST(NoiseTracker, ConstantSeriesFloorsThreshold) {
  // A constant |dS| series has zero MAD, so the sigma term vanishes and
  // the threshold must fall back to the absolute floor.
  std::vector<double> series(4096, 0.25);
  const auto estimates =
      NoiseTracker::track_series(series, {.block = 512, .history = 4});
  ASSERT_EQ(estimates.size(), series.size() / 512);
  for (const auto& e : estimates) {
    EXPECT_DOUBLE_EQ(e.floor, 0.25);
    EXPECT_DOUBLE_EQ(e.spread, 0.0);
    EXPECT_DOUBLE_EQ(e.threshold(6.0, 0.4), 0.4);
  }
}

TEST(NoiseTracker, FollowsStepChangeInNoiseLevel) {
  // Quiet first half, 10x louder second half: the causal rolling estimate
  // must rise after the step, and the early estimate must not be dragged
  // up by the loud tail it has not seen yet.
  Rng rng(21);
  std::vector<double> series;
  for (int i = 0; i < 4096; ++i) {
    series.push_back(std::abs(rng.gaussian(0.0, 1e-3)));
  }
  for (int i = 0; i < 4096; ++i) {
    series.push_back(std::abs(rng.gaussian(0.0, 1e-2)));
  }
  const auto estimates =
      NoiseTracker::track_series(series, {.block = 512, .history = 4});
  ASSERT_EQ(estimates.size(), 16u);
  EXPECT_LT(estimates[3].floor, 3e-3);   // still in the quiet half
  EXPECT_GT(estimates[15].floor, 3e-3);  // history fully in the loud half
  EXPECT_GT(estimates[15].floor, 3.0 * estimates[3].floor);
}

TEST(NoiseTracker, IncrementalPushMatchesTrackSeries) {
  Rng rng(22);
  std::vector<double> series;
  for (int i = 0; i < 2048; ++i) {
    series.push_back(std::abs(rng.gaussian(0.0, 5e-3)));
  }
  const NoiseTrackerConfig cfg{.block = 256, .history = 4};
  NoiseTracker tracker(cfg);
  tracker.push(series);
  const auto rolling = tracker.estimate();
  const auto blockwise = NoiseTracker::track_series(series, cfg);
  ASSERT_FALSE(blockwise.empty());
  EXPECT_DOUBLE_EQ(rolling.floor, blockwise.back().floor);
  EXPECT_DOUBLE_EQ(rolling.spread, blockwise.back().spread);
}

TEST(EdgeConfidence, MonotoneAndCalibrated) {
  // Monotone in SNR, and calibrated so a 6-sigma detection (~15.6 dB) is
  // confidently above the erasure region while a marginal 2.5-sigma one
  // (~8 dB) is well inside it.
  double prev = 0.0;
  for (double snr = -10.0; snr <= 40.0; snr += 1.0) {
    const double c = edge_confidence(snr);
    EXPECT_GT(c, 0.0);
    EXPECT_LT(c, 1.0);
    EXPECT_GT(c, prev);
    prev = c;
  }
  EXPECT_GT(edge_confidence(15.6), 0.8);
  EXPECT_LT(edge_confidence(8.0), 0.35);
}

TEST(IqIo, RoundTripPreservesSamples) {
  Rng rng(7);
  SampleBuffer buf(12.5e6, 5000);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = {rng.gaussian(), rng.gaussian()};
  }
  const std::string path = ::testing::TempDir() + "roundtrip.lfbsiq";
  save_iq(buf, path);
  const SampleBuffer loaded = load_iq(path);
  ASSERT_EQ(loaded.size(), buf.size());
  EXPECT_DOUBLE_EQ(loaded.sample_rate(), buf.sample_rate());
  for (std::size_t i = 0; i < buf.size(); i += 137) {
    // float32 payload: ~7 significant digits.
    EXPECT_NEAR(loaded[i].real(), buf[i].real(), 1e-6 + 1e-6 * std::abs(buf[i]));
    EXPECT_NEAR(loaded[i].imag(), buf[i].imag(), 1e-6 + 1e-6 * std::abs(buf[i]));
  }
}

TEST(IqIo, EmptyBufferRoundTrip) {
  SampleBuffer buf(1e6, std::size_t{0});
  const std::string path = ::testing::TempDir() + "empty.lfbsiq";
  save_iq(buf, path);
  const SampleBuffer loaded = load_iq(path);
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_DOUBLE_EQ(loaded.sample_rate(), 1e6);
}

TEST(IqIo, RejectsMissingFile) {
  EXPECT_THROW(load_iq("/nonexistent/nope.lfbsiq"), CheckError);
}

TEST(IqIo, RejectsGarbageHeader) {
  const std::string path = ::testing::TempDir() + "garbage.lfbsiq";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not an IQ capture at all";
  }
  EXPECT_THROW(load_iq(path), CheckError);
}

// ---------------------------------------------------------------------------
// Malformed-capture hardening: every defect class maps to a typed
// IqFormatError (still a CheckError, so old catch sites hold), and the
// streaming IqReader fails soft on truncation where load_iq fails strict.

namespace {

/// Writes a raw LFBSIQ1 file: header as given, then `samples` float pairs.
void write_capture(const std::string& path, const char magic[8], double fs,
                   std::uint64_t declared, std::size_t samples) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(magic, 8);
  out.write(reinterpret_cast<const char*>(&fs), sizeof fs);
  out.write(reinterpret_cast<const char*>(&declared), sizeof declared);
  for (std::size_t i = 0; i < samples; ++i) {
    const float iq[2] = {static_cast<float>(i), -static_cast<float>(i)};
    out.write(reinterpret_cast<const char*>(iq), sizeof iq);
  }
}

}  // namespace

TEST(IqIo, BadMagicReportsTypedError) {
  const std::string path = ::testing::TempDir() + "badmagic.lfbsiq";
  const char magic[8] = {'N', 'O', 'T', 'L', 'F', 'B', 'S', '\0'};
  write_capture(path, magic, 1e6, 4, 4);
  try {
    load_iq(path);
    FAIL() << "expected IqFormatError";
  } catch (const IqFormatError& e) {
    EXPECT_EQ(e.code(), IqError::kBadMagic);
  }
  EXPECT_THROW(IqReader reader(path), IqFormatError);
}

TEST(IqIo, TruncatedHeaderReportsTypedError) {
  const std::string path = ::testing::TempDir() + "shortheader.lfbsiq";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(kIqMagic, 8);
    const float half_a_rate = 1.0f;  // 4 of the 16 header bytes
    out.write(reinterpret_cast<const char*>(&half_a_rate),
              sizeof half_a_rate);
  }
  try {
    load_iq(path);
    FAIL() << "expected IqFormatError";
  } catch (const IqFormatError& e) {
    EXPECT_EQ(e.code(), IqError::kBadHeader);
  }
}

TEST(IqIo, NonFiniteOrZeroSampleRateIsRejected) {
  const std::string path = ::testing::TempDir() + "badrate.lfbsiq";
  for (const double fs : {0.0, -5e6, std::nan(""),
                          std::numeric_limits<double>::infinity()}) {
    write_capture(path, kIqMagic, fs, 2, 2);
    try {
      load_iq(path);
      FAIL() << "expected IqFormatError for fs=" << fs;
    } catch (const IqFormatError& e) {
      EXPECT_EQ(e.code(), IqError::kBadHeader);
    }
  }
}

TEST(IqIo, MissingFileReportsOpenFailed) {
  try {
    load_iq("/nonexistent/nope.lfbsiq");
    FAIL() << "expected IqFormatError";
  } catch (const IqFormatError& e) {
    EXPECT_EQ(e.code(), IqError::kOpenFailed);
  }
}

TEST(IqIo, TruncatedPayloadStrictLoadThrowsReaderClamps) {
  // Header declares 100 samples; only 60 exist (an interrupted recording).
  const std::string path = ::testing::TempDir() + "truncated.lfbsiq";
  write_capture(path, kIqMagic, 2e6, 100, 60);

  // Whole-file load is strict: the capture is damaged, say so.
  try {
    load_iq(path);
    FAIL() << "expected IqFormatError";
  } catch (const IqFormatError& e) {
    EXPECT_EQ(e.code(), IqError::kTruncated);
  }

  // The streaming reader fails soft: decode what exists, report the rest.
  IqReader reader(path);
  EXPECT_TRUE(reader.truncated());
  EXPECT_EQ(reader.declared(), 100u);
  EXPECT_EQ(reader.total(), 60u);
  std::vector<Complex> streamed;
  while (reader.read(17, streamed) > 0) {
  }
  ASSERT_EQ(streamed.size(), 60u);
  EXPECT_FLOAT_EQ(static_cast<float>(streamed[59].real()), 59.0f);
}

TEST(IqIo, GarbledHugeCountCannotTriggerHugeAllocation) {
  // A corrupted header declaring ~10^18 samples must be rejected from the
  // actual file size alone — before any payload allocation happens.
  const std::string path = ::testing::TempDir() + "hugecount.lfbsiq";
  write_capture(path, kIqMagic, 1e6, std::uint64_t{1} << 60, 8);
  try {
    load_iq(path);
    FAIL() << "expected IqFormatError";
  } catch (const IqFormatError& e) {
    EXPECT_EQ(e.code(), IqError::kTruncated);
  }
  IqReader reader(path);
  EXPECT_TRUE(reader.truncated());
  EXPECT_EQ(reader.total(), 8u);  // clamped to what the file holds
}

}  // namespace
}  // namespace lfbs::signal
