#include "protocol/epoch.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lfbs::protocol {

RatePlan RatePlan::paper_rates() {
  return RatePlan{{0.5 * kKbps, 1.0 * kKbps, 2.0 * kKbps, 5.0 * kKbps,
                   10.0 * kKbps, 50.0 * kKbps, 100.0 * kKbps}};
}

bool RatePlan::is_valid(BitRate rate) const {
  constexpr double kTolerance = 1e-6;
  return std::any_of(rates.begin(), rates.end(), [&](BitRate r) {
    return std::abs(r - rate) <= kTolerance * r;
  });
}

BitRate RatePlan::max() const {
  LFBS_CHECK(!rates.empty());
  return *std::max_element(rates.begin(), rates.end());
}

BitRate RatePlan::min() const {
  LFBS_CHECK(!rates.empty());
  return *std::min_element(rates.begin(), rates.end());
}

}  // namespace lfbs::protocol
