#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/units.h"
#include "core/lf_decoder.h"
#include "reader/health_ledger.h"
#include "runtime/frame_bus.h"

namespace lfbs::control {

/// Fleet-wide per-tag state, folded from the decoded-frame stream. The
/// tracker is the control plane's sensor: it turns the firehose of
/// FrameEvents (gateway path) or whole DecodeResults (reader-session
/// path) into the per-tag goodput / confidence / collision picture the
/// EpochScheduler plans against.
struct FleetTrackerConfig {
  /// EWMA weight of the newest epoch in the smoothed per-tag signals
  /// (success ratio, confidence, goodput, collision pressure).
  double alpha = 0.35;
  /// Epochs a tag may go unseen before it is forgotten (left range).
  std::uint64_t forget_after = 16;
};

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
  reader::HealthState health = reader::HealthState::kHealthy;
  Complex edge_vector{};        ///< channel anchor (session path only)
};

/// One closed epoch's view of the fleet, ready for scheduling.
struct FleetSnapshot {
  std::uint64_t epoch = 0;      ///< last closed epoch index
  std::vector<TagState> tags;   ///< sorted by key (deterministic order)
  double collision_pressure = 0.0;   ///< fleet collided fraction, last epoch
  double aggregate_goodput_bps = 0.0;  ///< decoded payload bits/s, last epoch
};

/// Folds frame/decode observations into per-tag state across epochs.
///
/// Two feeding disciplines (one per deployment shape, not mixed):
///  - Gateway: observe_frame() on every published FrameEvent. Tags are
///    keyed by stitched stream index, which is stable within one decode
///    run — the gateway's planning horizon.
///  - Reader session: observe_decode() once per epoch with the session's
///    DecodeResult (plus observe_health() to stamp ledger status). Tags
///    are keyed by core::TagIdentity within the ledger's tolerance
///    (reader::kLedgerVectorTolerance), stable across epochs even as
///    decode order shifts.
///
/// end_epoch() closes the open epoch: per-epoch accumulators roll into
/// the EWMA state and tags unseen for forget_after epochs are dropped.
/// Tracked-but-absent tags have their success/goodput decayed toward
/// zero — in a fleet where every tag transmits every epoch, absence is
/// decode failure, and the scheduler must see it.
///
/// All entry points are thread-safe; observe_frame() is deliberately
/// cheap (one uncontended lock, one map find) because it sits on the
/// gateway's publish path, which the bench regression gate caps.
class FleetTracker {
 public:
  explicit FleetTracker(FleetTrackerConfig config = {});

  const FleetTrackerConfig& config() const { return config_; }

  void observe_frame(const runtime::FrameEvent& event);
  void observe_decode(const core::DecodeResult& result);
  void observe_health(const reader::HealthLedger& ledger);

  /// Closes the open epoch as index `epoch` lasting `duration` seconds.
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
    bool has_vector = false;
    Complex edge_vector{};
  };

  /// Finds the tag whose stored edge vector matches, or allocates a key.
  std::uint64_t key_for_vector_locked(Complex edge_vector);

  FleetTrackerConfig config_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Accum> pending_;
  std::map<std::uint64_t, TagState> tags_;
  std::uint64_t epoch_ = 0;
  bool any_epoch_closed_ = false;
  double fleet_pressure_ = 0.0;
  double fleet_goodput_ = 0.0;
  std::uint64_t next_vector_key_ = 1;
};

}  // namespace lfbs::control
