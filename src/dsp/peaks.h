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

/// Cuts xs into pieces that find_peaks can pick one at a time: bounds
/// 0 = b_0 < b_1 < ... < b_k = xs.size() of the pieces [b_i, b_(i+1)).
/// Each cut is the first index j at or after a multiple of `chunk` whose
/// min_distance samples before it are all below min_value; where no such j
/// comes before the next multiple, the piece runs on past it. So every
/// candidate lies more than min_distance - 1 samples from the other
/// pieces' candidates, and next to each cut is a sample below the floor,
/// as off the edge is: find_peaks over each piece, indices offset by b_i,
/// gives find_peaks over xs, in piece order instead of value order. The
/// cuts depend only on xs, the options and `chunk`.
std::vector<std::size_t> peak_pieces(std::span<const double> xs,
                                     const PeakOptions& opts,
                                     std::size_t chunk);

}  // namespace lfbs::dsp
