#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

#include "dsp/stats.h"

namespace lfbs::signal {

/// Rolling robust noise-floor estimator.
///
/// Edge detection thresholds against the noise level of the differential
/// magnitude series |dS|. The seed pipeline estimated that level once, over
/// the whole capture — fine for a stationary channel, blind to fading: a
/// person walking through the link (channel/dynamics.h) moves the floor by
/// several dB within an epoch, so a single global estimate either drowns
/// weak edges (threshold too high in the fade) or floods the detector with
/// noise peaks (too low outside it).
///
/// The tracker instead estimates per block: median + MAD of each block of
/// |dS| values, combined over a trailing history of blocks by taking the
/// median of the block medians (and MADs). Median-of-medians keeps a burst
/// of real edges inside one block from dragging the floor up, while the
/// bounded history lets the estimate follow second-scale fading.
struct NoiseTrackerConfig {
  /// Samples per estimation block.
  std::size_t block = 1024;
  /// Trailing blocks combined into one estimate.
  std::size_t history = 8;
};

/// One noise estimate: the floor (median of |dS|) and a robust sigma.
struct NoiseEstimate {
  double floor = 0.0;   ///< median differential magnitude
  double spread = 0.0;  ///< robust sigma: dsp::kMadToSigma x MAD

  /// Detection threshold at the given sigma multiple, floored.
  double threshold(double sigma_multiple, double min_strength) const;
  /// Strength of an edge in sigma units, in dB: 20 log10(strength/spread).
  /// Clamped to [-40, 80] so degenerate spreads stay finite.
  double snr_db(double strength) const;
};

class NoiseTracker {
 public:
  explicit NoiseTracker(NoiseTrackerConfig config = {});

  const NoiseTrackerConfig& config() const { return config_; }

  /// Feeds magnitude samples; closes blocks as they fill.
  void push(std::span<const double> magnitudes);

  /// Flushes a partially-filled trailing block into the history.
  void flush();

  /// Rolling estimate over the trailing history. Zero until a block has
  /// closed.
  NoiseEstimate estimate() const;

  /// Causal blockwise estimates over a whole series: out[b] is the rolling
  /// estimate after block b (samples [b*block, (b+1)*block)) closed, so it
  /// can threshold that block without looking ahead. A trailing partial
  /// block gets its own estimate. Empty input returns one zero estimate.
  static std::vector<NoiseEstimate> track_series(
      std::span<const double> series, const NoiseTrackerConfig& config);

 private:
  void close_block();

  NoiseTrackerConfig config_;
  std::vector<double> pending_;
  std::deque<dsp::MedianMad> blocks_;  ///< per closed block
};

}  // namespace lfbs::signal
