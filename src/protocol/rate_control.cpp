#include "protocol/rate_control.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace lfbs::protocol {

RateController::RateController(RatePlan plan, BitRate initial_max)
    : plan_(std::move(plan)), current_max_(initial_max) {
  LFBS_CHECK(!plan_.rates.empty());
  LFBS_CHECK(plan_.is_valid(initial_max));
  std::sort(plan_.rates.begin(), plan_.rates.end());
}

std::size_t RateController::level() const {
  const auto it =
      std::find_if(plan_.rates.begin(), plan_.rates.end(),
                   [&](BitRate r) { return r >= current_max_ * (1 - 1e-9); });
  LFBS_CHECK(it != plan_.rates.end());
  return static_cast<std::size_t>(it - plan_.rates.begin());
}

std::optional<BitRate> RateController::on_epoch(std::size_t frames_attempted,
                                                std::size_t frames_failed) {
  if (frames_attempted == 0) return std::nullopt;
  const double loss = static_cast<double>(frames_failed) /
                      static_cast<double>(frames_attempted);
  const std::size_t at = level();

  if (loss > kLowerThreshold && at > 0) {
    clean_epochs_ = 0;
    current_max_ = plan_.rates[at - 1];
    return current_max_;
  }
  if (loss < kRaiseThreshold) {
    ++clean_epochs_;
    if (clean_epochs_ >= kRaisePatience && at + 1 < plan_.rates.size()) {
      clean_epochs_ = 0;
      current_max_ = plan_.rates[at + 1];
      return current_max_;
    }
  } else {
    clean_epochs_ = 0;
  }
  return std::nullopt;
}

}  // namespace lfbs::protocol
