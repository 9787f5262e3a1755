#include "signal/edge_detector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "dsp/peaks.h"
#include "dsp/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lfbs::signal {

namespace {

/// Differential magnitude series |S(t+) - S(t-)| for every sample.
std::vector<double> differential_magnitude(std::span<const Complex> xs,
                                           const EdgeDetectorConfig& config) {
  const auto n = static_cast<SampleIndex>(xs.size());
  std::vector<double> out(xs.size(), 0.0);
  if (n == 0) return out;

  // Prefix sums for O(1) windowed means.
  std::vector<Complex> prefix(xs.size() + 1);
  for (std::size_t i = 0; i < xs.size(); ++i) prefix[i + 1] = prefix[i] + xs[i];
  const auto sum = [&](SampleIndex lo, SampleIndex hi) {  // [lo, hi)
    lo = std::clamp<SampleIndex>(lo, 0, n);
    hi = std::clamp<SampleIndex>(hi, 0, n);
    if (hi <= lo) return Complex{};
    return prefix[static_cast<std::size_t>(hi)] -
           prefix[static_cast<std::size_t>(lo)];
  };

  const auto w = static_cast<SampleIndex>(config.window);
  const auto g = static_cast<SampleIndex>(config.guard);
  for (SampleIndex i = 0; i < n; ++i) {
    const SampleIndex before_lo = i - g - w;
    const SampleIndex before_hi = i - g;
    const SampleIndex after_lo = i + g;
    const SampleIndex after_hi = i + g + w;
    const auto nb = static_cast<double>(
        std::clamp<SampleIndex>(before_hi, 0, n) -
        std::clamp<SampleIndex>(before_lo, 0, n));
    const auto na = static_cast<double>(
        std::clamp<SampleIndex>(after_hi, 0, n) -
        std::clamp<SampleIndex>(after_lo, 0, n));
    if (nb < 1.0 || na < 1.0) continue;  // too close to the buffer edge
    const Complex before = sum(before_lo, before_hi) / nb;
    const Complex after = sum(after_lo, after_hi) / na;
    out[static_cast<std::size_t>(i)] = std::abs(after - before);
  }
  return out;
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
  const std::vector<double> d = differential_magnitude(buffer.span(), config_);
  if (d.empty()) return {};

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

  dsp::PeakOptions opts;
  opts.min_value = pick_threshold;
  opts.min_distance = config_.min_separation;
  std::vector<dsp::Peak> peaks = dsp::find_peaks(d, opts);

  std::vector<Edge> edges;
  edges.reserve(peaks.size());
  for (const dsp::Peak& p : peaks) {
    const NoiseEstimate& est = local_estimate(p.index);
    if (config_.adaptive_threshold &&
        d[p.index] <
            est.threshold(config_.threshold_sigma, config_.min_strength)) {
      continue;
    }
    Edge e;
    // Parabolic sub-sample refinement of the |dS| peak.
    double refined = static_cast<double>(p.index);
    if (p.index > 0 && p.index + 1 < d.size()) {
      const double dm = d[p.index - 1];
      const double d0 = d[p.index];
      const double dp = d[p.index + 1];
      const double denom = dm - 2.0 * d0 + dp;
      if (denom < -1e-18) {
        const double shift = 0.5 * (dm - dp) / denom;
        if (std::abs(shift) <= 1.0) refined += shift;
      }
    }
    e.position = refined;
    e.differential =
        differential_at(buffer.span(), static_cast<SampleIndex>(std::llround(refined)),
                        config_.window, config_.guard);
    e.strength = std::abs(e.differential);
    e.snr_db = est.snr_db(e.strength);
    e.confidence = edge_confidence(e.snr_db);
    edges.push_back(e);
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.position < b.position; });
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
