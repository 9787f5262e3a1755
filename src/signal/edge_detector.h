#pragma once

#include <vector>

#include "common/units.h"
#include "signal/noise_tracker.h"
#include "signal/sample_buffer.h"

namespace lfbs::signal {

/// A detected signal edge: a localized step in the received IQ vector caused
/// by one (or more, when colliding) tags toggling their antennas.
struct Edge {
  /// Sub-sample position of the step centre (parabolic interpolation of the
  /// |dS| peak; sub-sample accuracy keeps the stream-grouping tolerance —
  /// and with it the effective collision radius — near the physical edge
  /// width).
  double position = 0.0;
  Complex differential;  ///< S(t+) - S(t-), Eq (3) of the paper
  double strength = 0.0; ///< |differential|
  /// Edge strength over the local noise spread, in dB (soft detection
  /// statistic; an edge exactly at a 6-sigma threshold sits near 15.6 dB).
  double snr_db = 0.0;
  /// Soft decision in (0, 1): logistic squash of snr_db. Downstream stages
  /// treat low-confidence edges as erasures instead of hard observations.
  double confidence = 1.0;
};

/// Maps an edge SNR (dB over the noise spread) to a confidence in (0, 1).
/// Centered so a 6-sigma detection (~15.6 dB) lands comfortably above 0.5
/// and a marginal 2.5-sigma one (~8 dB) falls well below it.
double edge_confidence(double snr_db);

/// Configuration for differential edge detection (§3.1).
struct EdgeDetectorConfig {
  /// Averaging window length, in samples, on each side of the candidate.
  std::size_t window = 8;
  /// Samples skipped around the candidate so the ramp itself is excluded.
  std::size_t guard = 2;
  /// Detection threshold as a multiple of the robust noise level (median +
  /// k·MAD of the differential magnitude series).
  double threshold_sigma = 6.0;
  /// Absolute threshold floor; steps weaker than this are never edges.
  double min_strength = 1e-4;
  /// Minimum distance between two reported edges, in samples. Edges closer
  /// than this merge into one (that is what a "collision" looks like). Must
  /// exceed the |dS| plateau width (about 2*guard + ramp samples).
  std::size_t min_separation = 6;
  /// When true, the threshold tracks the noise floor blockwise (rolling
  /// median+MAD, NoiseTracker) instead of one global estimate, so a fade
  /// early in the capture does not set the threshold for the whole epoch.
  /// Off by default: the global estimate is the seed behaviour and the two
  /// are identical on stationary channels.
  bool adaptive_threshold = false;
  /// Block/history geometry for the adaptive tracker.
  NoiseTrackerConfig noise{};
};

/// Detects antenna-toggle edges in a received buffer by scanning the
/// magnitude of the windowed IQ differential and peak-picking it.
///
/// The differential (rather than the amplitude) is what makes detection
/// robust when many other tags are mid-transmission: subtracting the
/// before/after windowed means cancels every tag that is *not* toggling at
/// this instant (§3.1).
class EdgeDetector {
 public:
  explicit EdgeDetector(EdgeDetectorConfig config = {});

  const EdgeDetectorConfig& config() const { return config_; }

  /// Returns edges sorted by position, each carrying snr_db/confidence
  /// measured against the (global or blockwise) noise estimate.
  std::vector<Edge> detect(const SampleBuffer& buffer) const;

  /// Re-measures the IQ differential at a known boundary position with a
  /// caller-chosen window (used by the decoder once stream timing is known,
  /// so windows can stretch to just short of the neighbouring stream's
  /// edges — the "average over points between edges" of §3.1).
  static Complex differential_at(std::span<const Complex> samples,
                                 SampleIndex position, std::size_t window,
                                 std::size_t guard);

 private:
  EdgeDetectorConfig config_;
};

}  // namespace lfbs::signal
