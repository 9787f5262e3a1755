#pragma once

#include <cstddef>
#include <optional>

#include "common/units.h"
#include "protocol/epoch.h"

namespace lfbs::protocol {

/// Reader-side broadcast rate control (§3.6): after an epoch the reader may
/// broadcast a command lowering the network's maximum bitrate to thin out
/// edge collisions, or raise it back when the channel is clean. Only tags
/// that implement the (optional) receive path obey; slow harvesting tags
/// ignore the command, which is safe because their edges are sparse.
class RateController {
 public:
  /// Lower the max rate when more than this fraction of frames failed.
  static constexpr double kLowerThreshold = 0.25;
  /// Raise it again when fewer than this fraction failed.
  static constexpr double kRaiseThreshold = 0.02;
  /// Epochs of clean decoding required before raising.
  static constexpr std::size_t kRaisePatience = 3;

  RateController(RatePlan plan, BitRate initial_max);

  BitRate current_max() const { return current_max_; }

  /// Feed one epoch's outcome; returns the new max-rate command to
  /// broadcast, or nullopt when nothing changes.
  std::optional<BitRate> on_epoch(std::size_t frames_attempted,
                                  std::size_t frames_failed);

 private:
  /// Index of the current max in the sorted plan.
  std::size_t level() const;

  RatePlan plan_;
  BitRate current_max_;
  std::size_t clean_epochs_ = 0;
};

}  // namespace lfbs::protocol
