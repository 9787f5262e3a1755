#include "dsp/peaks.h"

#include <algorithm>
#include <cstdint>

namespace lfbs::dsp {

std::vector<Peak> find_peaks(std::span<const double> xs,
                             const PeakOptions& opts) {
  constexpr double kOffEdge = -1e300;  // off the edge counts as -inf
  const std::size_t n = xs.size();
  std::vector<Peak> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = xs[i];
    if (v < opts.min_value) continue;
    const double prev = i > 0 ? xs[i - 1] : kOffEdge;
    const double next = i + 1 < n ? xs[i + 1] : kOffEdge;
    // Strictly greater than the previous sample makes the first index of a
    // plateau the candidate; >= the next allows flat-topped peaks.
    if (v > prev && v >= next) candidates.push_back({i, v});
  }
  // Equal values: the earlier index wins, as a plateau reports its first.
  std::sort(candidates.begin(), candidates.end(),
            [](const Peak& a, const Peak& b) {
              return a.value != b.value ? a.value > b.value
                                        : a.index < b.index;
            });

  // A candidate is too close when an accepted peak lies within
  // min_distance - 1 samples of it. One byte per sample marks the accepted
  // indices, so the test reads only that neighbourhood instead of every
  // accepted peak.
  const std::size_t reach = std::max<std::size_t>(opts.min_distance, 1) - 1;
  std::vector<std::uint8_t> taken(n, 0);
  std::vector<Peak> accepted;
  for (const Peak& c : candidates) {
    const std::size_t lo = c.index - std::min(c.index, reach);
    const std::size_t hi = c.index + std::min(n - 1 - c.index, reach);
    const auto first = taken.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto last = taken.begin() + static_cast<std::ptrdiff_t>(hi) + 1;
    if (std::find(first, last, std::uint8_t{1}) != last) continue;
    taken[c.index] = 1;
    accepted.push_back(c);
  }
  return accepted;
}

}  // namespace lfbs::dsp
