#include "signal/edge_detector.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "dsp/peaks.h"
#include "dsp/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lfbs::signal {

namespace {

/// Samples per pool task. Chunk bounds come from sample indices alone, so
/// the edges depend only on the buffer, never on how many threads ran.
constexpr std::size_t kChunk = 4096;

/// |dS| of samples [begin, end) into out[begin, end): at each sample i,
/// magnitude(EdgeDetector::differential_at(xs, i, window, guard)), both
/// windows summed directly from their own samples, so a value depends only
/// on the samples within guard + window of i; 0 where a window clipped to
/// the buffer is empty. One value per sample, so it takes lfbs::magnitude,
/// not std::abs.
void differential_magnitude(std::span<const Complex> xs,
                            const EdgeDetectorConfig& config,
                            std::size_t begin, std::size_t end,
                            std::span<double> out) {
  const auto n = static_cast<SampleIndex>(xs.size());
  const auto w = static_cast<SampleIndex>(config.window);
  const auto g = static_cast<SampleIndex>(config.guard);
  const auto b = static_cast<SampleIndex>(begin);
  const auto e = static_cast<SampleIndex>(end);
  // The interior [lo, hi) of this chunk: both windows hold exactly w
  // samples. Outside it the windows clip to the buffer.
  const SampleIndex lo = std::clamp(g + w, b, e);
  const SampleIndex hi = std::clamp(n - g - w + 1, lo, e);
  for (const auto& [from, to] : {std::pair{b, lo}, std::pair{hi, e}}) {
    for (SampleIndex i = from; i < to; ++i) {
      out[static_cast<std::size_t>(i)] =
          i <= g || i + g >= n
              ? 0.0
              : magnitude(EdgeDetector::differential_at(xs, i, config.window,
                                                        config.guard));
    }
  }
  if (lo == hi) return;

  // The full-window mean M[s] of samples [s, s + w) is sample s + g + w's
  // before-mean and sample s - g's after-mean, the same sum and division
  // either way, so each is computed once for the two.
  const SampleIndex first = lo - g - w;
  std::vector<Complex> mean(static_cast<std::size_t>(hi + g - first));
  for (std::size_t s = 0; s < mean.size(); ++s) {
    const std::span<const Complex> window =
        xs.subspan(static_cast<std::size_t>(first) + s, config.window);
    Complex sum{};
    for (const Complex& x : window) sum += x;
    mean[s] = sum / static_cast<double>(w);
  }
  for (SampleIndex i = lo; i < hi; ++i) {
    out[static_cast<std::size_t>(i)] =
        magnitude(mean[static_cast<std::size_t>(i + g - first)] -
                  mean[static_cast<std::size_t>(i - g - w - first)]);
  }
}

}  // namespace

double edge_confidence(double snr_db) {
  // Logistic centred at 11 dB with a 3 dB scale: 6-sigma detections
  // (~15.6 dB) map to ~0.82, the 2.5-sigma degraded-mode floor (~8 dB)
  // to ~0.27.
  return 1.0 / (1.0 + std::exp(-(snr_db - 11.0) / 3.0));
}

EdgeDetector::EdgeDetector(EdgeDetectorConfig config)
    : config_(std::move(config)) {
  LFBS_CHECK(config_.window >= 1);
  LFBS_CHECK(config_.min_separation >= 1);
}

std::vector<Edge> EdgeDetector::detect(const SampleBuffer& buffer) const {
  LFBS_OBS_SPAN(span, "detect", "signal");
  span.attr("samples", static_cast<double>(buffer.size()));
  static obs::Counter& runs = obs::metrics().counter("signal.detect_runs");
  static obs::Counter& detected =
      obs::metrics().counter("signal.edges_detected");
  runs.add();
  const std::span<const Complex> xs = buffer.span();
  const std::size_t n = xs.size();
  if (n == 0) return {};
  std::vector<double> d(n);
  parallel_for((n + kChunk - 1) / kChunk, [&](std::size_t c) {
    differential_magnitude(xs, config_, c * kChunk,
                           std::min(n, (c + 1) * kChunk), d);
  });

  // Robust threshold: edges are temporally sparse, so the median of |dS|
  // tracks the noise floor even with many tags transmitting. The global
  // estimate is always computed — it is the detection threshold in the
  // default (seed) mode and the fallback SNR reference in adaptive mode.
  const dsp::MedianMad robust = dsp::median_mad(d);
  NoiseEstimate global;
  global.floor = robust.median;
  global.spread = dsp::kMadToSigma * robust.mad;
  const double threshold =
      global.threshold(config_.threshold_sigma, config_.min_strength);

  // Adaptive mode: blockwise rolling estimates. Peak-pick at the laxest
  // blockwise threshold, then re-gate each peak against its own block so a
  // quiet stretch keeps a low threshold while a noisy one stays strict.
  std::vector<NoiseEstimate> blocks;
  double pick_threshold = threshold;
  if (config_.adaptive_threshold) {
    blocks = NoiseTracker::track_series(d, config_.noise);
    for (const NoiseEstimate& est : blocks) {
      pick_threshold = std::min(
          pick_threshold,
          est.threshold(config_.threshold_sigma, config_.min_strength));
    }
  }
  const auto local_estimate = [&](std::size_t index) -> const NoiseEstimate& {
    if (blocks.empty()) return global;
    const std::size_t block = std::max<std::size_t>(config_.noise.block, 8);
    return blocks[std::min(index / block, blocks.size() - 1)];
  };

  // Peaks and their refinement, one piece at a time: pieces split only at
  // a run of sub-threshold samples, so their peaks are find_peaks' over
  // the whole series, and in position order once each piece is sorted.
  dsp::PeakOptions opts;
  opts.min_value = pick_threshold;
  opts.min_distance = config_.min_separation;
  const std::vector<std::size_t> bounds = dsp::peak_pieces(d, opts, kChunk);
  std::vector<std::vector<Edge>> pieces(bounds.size() - 1);
  parallel_for(pieces.size(), [&](std::size_t k) {
    const std::size_t offset = bounds[k];
    std::vector<Edge>& edges = pieces[k];
    for (const dsp::Peak& peak : dsp::find_peaks(
             std::span<const double>(d).subspan(offset, bounds[k + 1] - offset),
             opts)) {
      const std::size_t index = offset + peak.index;
      const NoiseEstimate& est = local_estimate(index);
      if (config_.adaptive_threshold &&
          d[index] <
              est.threshold(config_.threshold_sigma, config_.min_strength)) {
        continue;
      }
      Edge e;
      // Parabolic sub-sample refinement of the |dS| peak.
      double refined = static_cast<double>(index);
      if (index > 0 && index + 1 < n) {
        const double dm = d[index - 1];
        const double d0 = d[index];
        const double dp = d[index + 1];
        const double denom = dm - 2.0 * d0 + dp;
        if (denom < -1e-18) {
          const double shift = 0.5 * (dm - dp) / denom;
          if (std::abs(shift) <= 1.0) refined += shift;
        }
      }
      e.position = refined;
      e.differential = differential_at(
          xs, static_cast<SampleIndex>(std::llround(refined)), config_.window,
          config_.guard);
      e.strength = std::abs(e.differential);
      e.snr_db = est.snr_db(e.strength);
      e.confidence = edge_confidence(e.snr_db);
      edges.push_back(e);
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.position < b.position;
    });
  });
  std::vector<Edge> edges;
  for (const std::vector<Edge>& piece : pieces) {
    edges.insert(edges.end(), piece.begin(), piece.end());
  }
  detected.add(edges.size());
  span.attr("edges", static_cast<double>(edges.size()));
  return edges;
}

Complex EdgeDetector::differential_at(std::span<const Complex> samples,
                                      SampleIndex position, std::size_t window,
                                      std::size_t guard) {
  const auto g = static_cast<SampleIndex>(guard);
  const Complex before =
      windowed_mean_before(samples, position - g, window);
  const Complex after = windowed_mean_after(samples, position + g, window);
  return after - before;
}

}  // namespace lfbs::signal
