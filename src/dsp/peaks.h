#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace lfbs::dsp {

/// A detected local maximum in a 1-D series.
struct Peak {
  std::size_t index = 0;
  double value = 0.0;
};

/// Options for find_peaks.
struct PeakOptions {
  /// Absolute floor a sample must exceed to be a peak candidate.
  double min_value = 0.0;
  /// Minimum spacing between two reported peaks, in samples. When two
  /// candidates are closer than this, the larger one wins; of two equal
  /// ones, the earlier index.
  std::size_t min_distance = 1;
};

/// Finds local maxima of `xs` subject to the options, sorted by descending
/// value, equal values by ascending index. A plateau reports its first
/// index. Candidates are accepted greedily in that order, each checked
/// only against the samples within min_distance of it: O(n + C log C +
/// C x min_distance) for C candidates, with a scratch byte per sample.
std::vector<Peak> find_peaks(std::span<const double> xs,
                             const PeakOptions& opts);

}  // namespace lfbs::dsp
