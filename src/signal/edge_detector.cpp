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

/// |after - before| of the two windowed means, from their sums and sample
/// counts: the |dS| formula of the border samples, whose windows clip. One
/// value per sample, so it takes lfbs::magnitude, not std::abs.
double step_magnitude(Complex before_sum, double nb, Complex after_sum,
                      double na) {
  return magnitude(after_sum / na - before_sum / nb);
}

/// Differential magnitude series |S(t+) - S(t-)| for every sample.
std::vector<double> differential_magnitude(std::span<const Complex> xs,
                                           const EdgeDetectorConfig& config) {
  const auto n = static_cast<SampleIndex>(xs.size());
  std::vector<double> out(xs.size(), 0.0);
  if (n == 0) return out;

  // Prefix sums for O(1) windowed means.
  std::vector<Complex> prefix(xs.size() + 1);
  for (std::size_t i = 0; i < xs.size(); ++i) prefix[i + 1] = prefix[i] + xs[i];
  const auto at = [&](SampleIndex i) {
    return prefix[static_cast<std::size_t>(i)];
  };

  const auto w = static_cast<SampleIndex>(config.window);
  const auto g = static_cast<SampleIndex>(config.guard);
  // Border samples: windows clipped to the buffer, skipped when empty.
  const auto border = [&](SampleIndex i) {
    const SampleIndex before_lo = std::clamp<SampleIndex>(i - g - w, 0, n);
    const SampleIndex before_hi = std::clamp<SampleIndex>(i - g, 0, n);
    const SampleIndex after_lo = std::clamp<SampleIndex>(i + g, 0, n);
    const SampleIndex after_hi = std::clamp<SampleIndex>(i + g + w, 0, n);
    if (before_hi <= before_lo || after_hi <= after_lo) return;
    out[static_cast<std::size_t>(i)] = step_magnitude(
        at(before_hi) - at(before_lo),
        static_cast<double>(before_hi - before_lo),
        at(after_hi) - at(after_lo), static_cast<double>(after_hi - after_lo));
  };
  // Interior samples [mid_lo, mid_hi): both windows hold exactly w samples.
  const SampleIndex mid_lo = std::min(g + w, n);
  const SampleIndex mid_hi = std::max(mid_lo, n - g - w + 1);
  for (SampleIndex i = 0; i < mid_lo; ++i) border(i);
  for (SampleIndex i = mid_hi; i < n; ++i) border(i);

  // The full-window mean M[s] of samples [s, s + w) is sample s + g + w's
  // before-mean and sample s - g's after-mean, the same expression on the
  // same operands either way, so each is divided once. M[s] overwrites
  // prefix[s]: prefix[s + w] is read before anything overwrites it.
  std::vector<Complex>& mean = prefix;
  const auto full = static_cast<double>(w);
  for (SampleIndex s = 0; s + w <= n; ++s) {
    mean[static_cast<std::size_t>(s)] = (at(s + w) - at(s)) / full;
  }
  for (SampleIndex i = mid_lo; i < mid_hi; ++i) {
    out[static_cast<std::size_t>(i)] =
        magnitude(mean[static_cast<std::size_t>(i + g)] -
                  mean[static_cast<std::size_t>(i - g - w)]);
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
