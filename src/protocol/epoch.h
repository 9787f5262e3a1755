#pragma once

#include <vector>

#include "common/units.h"

namespace lfbs::protocol {

/// The set of bitrates tags may use: the paper requires every rate to be a
/// multiple of the base rate, and the evaluation uses rates that also divide
/// the max rate so that all streams fold to a single offset at the max-rate
/// period (this is what the stream detector exploits).
struct RatePlan {
  std::vector<BitRate> rates;

  /// The standard plan from the paper's evaluation (§5.1):
  /// {0.5, 1, 2, 5, 10, 50, 100} kbps.
  static RatePlan paper_rates();

  /// True when `rate` is within a relative 1e-6 of one of the valid rates.
  bool is_valid(BitRate rate) const;

  BitRate max() const;
  BitRate min() const;
};

}  // namespace lfbs::protocol
