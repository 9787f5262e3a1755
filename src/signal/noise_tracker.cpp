#include "signal/noise_tracker.h"

#include <algorithm>
#include <cmath>

#include "dsp/stats.h"

namespace lfbs::signal {

double NoiseEstimate::threshold(double sigma_multiple,
                                double min_strength) const {
  return std::max(floor + sigma_multiple * spread, min_strength);
}

double NoiseEstimate::snr_db(double strength) const {
  const double sigma = std::max(spread, 1e-12);
  const double ratio = std::max(strength, 1e-12) / sigma;
  return std::clamp(20.0 * std::log10(ratio), -40.0, 80.0);
}

NoiseTracker::NoiseTracker(NoiseTrackerConfig config) : config_(config) {
  config_.block = std::max<std::size_t>(config_.block, 8);
  config_.history = std::max<std::size_t>(config_.history, 1);
  pending_.reserve(config_.block);
}

void NoiseTracker::push(std::span<const double> magnitudes) {
  for (double m : magnitudes) {
    pending_.push_back(m);
    if (pending_.size() >= config_.block) close_block();
  }
}

void NoiseTracker::flush() {
  if (!pending_.empty()) close_block();
}

void NoiseTracker::close_block() {
  blocks_.push_back(dsp::median_mad(pending_));
  pending_.clear();
  while (blocks_.size() > config_.history) blocks_.pop_front();
}

NoiseEstimate NoiseTracker::estimate() const {
  if (blocks_.empty()) return {};
  std::vector<double> meds, mads;
  meds.reserve(blocks_.size());
  mads.reserve(blocks_.size());
  for (const dsp::MedianMad& block : blocks_) {
    meds.push_back(block.median);
    mads.push_back(block.mad);
  }
  // Median of the unscaled block MADs, then scaled: scaling each block
  // first would round differently.
  NoiseEstimate est;
  est.floor = dsp::median(meds);
  est.spread = dsp::kMadToSigma * dsp::median(mads);
  return est;
}

std::vector<NoiseEstimate> NoiseTracker::track_series(
    std::span<const double> series, const NoiseTrackerConfig& config) {
  NoiseTracker tracker(config);
  const std::size_t block = tracker.config().block;
  std::vector<NoiseEstimate> out;
  if (series.empty()) {
    out.push_back({});
    return out;
  }
  out.reserve(series.size() / block + 1);
  for (std::size_t begin = 0; begin < series.size(); begin += block) {
    const std::size_t len = std::min(block, series.size() - begin);
    tracker.push(series.subspan(begin, len));
    tracker.flush();  // partial trailing block still contributes
    out.push_back(tracker.estimate());
  }
  return out;
}

}  // namespace lfbs::signal
