#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/units.h"
#include "runtime/frame_bus.h"

namespace lfbs::control {

/// Fleet-wide per-tag state, folded from the decoded-frame stream. The
/// tracker is the control plane's sensor: it turns the firehose of
/// published FrameEvents into the per-tag goodput / confidence /
/// collision picture the SchedulingPolicy plans against.
struct TagState {
  std::uint64_t key = 0;        ///< stable tag key (see FleetTracker)
  BitRate rate = 0.0;           ///< latest observed rate
  std::uint64_t last_epoch = 0; ///< last closed epoch the tag was seen in
  std::size_t epochs_seen = 0;
  std::uint64_t frames_total = 0;
  std::uint64_t frames_valid = 0;
  std::uint64_t frames_collided = 0;
  double confidence = 0.0;      ///< EWMA of per-epoch mean decode confidence
  double success = 0.0;         ///< EWMA of per-epoch valid/attempted ratio
  double goodput_bps = 0.0;     ///< EWMA of decoded payload bits per second
  double collision_pressure = 0.0;  ///< EWMA of per-epoch collided fraction
};

/// One closed epoch's view of the fleet, ready for scheduling.
struct FleetSnapshot {
  std::uint64_t epoch = 0;      ///< last closed epoch index
  std::vector<TagState> tags;   ///< sorted by key (deterministic order)
  double collision_pressure = 0.0;   ///< fleet collided fraction, last epoch
  double aggregate_goodput_bps = 0.0;  ///< decoded payload bits/s, last epoch
};

/// Folds frame observations into per-tag state across epochs.
///
/// One feed: observe_frame() on every FrameEvent the gateway's runtime
/// publishes (its frame-bus tap). Tags are keyed by stitched stream
/// index + 1, which is stable within one decode run — the gateway's
/// planning horizon.
///
/// end_epoch() closes the open epoch: per-epoch accumulators roll into
/// the EWMA state and tags unseen for kForgetAfter epochs are dropped.
/// Tracked-but-absent tags have their success/goodput decayed toward
/// zero — in a fleet where every tag transmits every epoch, absence is
/// decode failure, and the scheduler must see it.
///
/// The smoothing is fixed: the gateway closes one epoch per run, where
/// every tag is fresh and none is absent, so neither constant can change
/// a plan until epochs tick on frames.
///
/// All entry points are thread-safe; observe_frame() is deliberately
/// cheap (one uncontended lock, one map find) because it sits on the
/// gateway's publish path, which the bench regression gate caps.
class FleetTracker {
 public:
  /// EWMA weight of the newest epoch in the smoothed per-tag signals
  /// (success ratio, confidence, goodput, collision pressure).
  static constexpr double kAlpha = 0.35;
  /// Epochs a tag may go unseen before it is forgotten (left range).
  static constexpr std::uint64_t kForgetAfter = 16;

  void observe_frame(const runtime::FrameEvent& event);

  /// Closes the open epoch as index `epoch` lasting `duration` seconds,
  /// the goodput denominator.
  void end_epoch(std::uint64_t epoch, Seconds duration);

  FleetSnapshot snapshot() const;
  std::size_t tags_tracked() const;

 private:
  struct Accum {
    BitRate rate = 0.0;
    std::uint64_t frames = 0;
    std::uint64_t valid = 0;
    std::uint64_t collided = 0;
    double confidence_sum = 0.0;
    std::uint64_t confidence_n = 0;
    std::uint64_t payload_bits = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::uint64_t, Accum> pending_;
  std::map<std::uint64_t, TagState> tags_;
  std::uint64_t epoch_ = 0;
  double fleet_pressure_ = 0.0;
  double fleet_goodput_ = 0.0;
};

}  // namespace lfbs::control
