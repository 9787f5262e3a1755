#pragma once

#include <functional>

#include "core/lf_decoder.h"
#include "protocol/epoch.h"
#include "protocol/rate_control.h"
#include "reader/carrier.h"
#include "reader/health_ledger.h"

namespace lfbs::reader {

/// High-level reader loop: carrier epochs → capture → decode → broadcast
/// rate control. This is the object a deployment actually drives; the
/// pieces (LfDecoder, RateController, Carrier) stay usable on their own.
///
/// The air interface is injected: the session asks it to run one epoch at
/// the commanded maximum bitrate and hand back the captured samples. In the
/// simulator that is a Scenario; on hardware it would be a carrier-gated
/// SDR capture.
///
/// The session's rate commands are its own: the loss-ratio trigger
/// (RateController::on_epoch) and the health ledger's step_down(). The
/// fleet control plane (src/control) plans for the gateway and does not
/// drive a session.
struct SessionConfig {
  protocol::EpochConfig epoch{};
  core::DecoderConfig decoder{};
  /// Enable §3.6 broadcast rate control between epochs.
  bool rate_control = true;
  /// Per-stream decode health across epochs; a newly quarantined stream
  /// immediately steps the broadcast rate down one notch (when
  /// rate_control is on) instead of waiting for the loss-ratio trigger.
  HealthLedgerConfig health{};
};

struct SessionStats {
  std::size_t epochs = 0;
  std::size_t frames_valid = 0;
  std::size_t frames_failed = 0;
  std::size_t streams = 0;
  Seconds air_time = 0.0;
  std::size_t rate_commands = 0;
  std::size_t quarantines = 0;       ///< newly quarantined streams, total
  std::size_t health_step_downs = 0; ///< rate step-downs the ledger forced
  std::size_t fallback_recoveries = 0;
  double confidence_sum = 0.0;  ///< sum of per-epoch mean confidences
  std::size_t confidence_epochs = 0;

  /// Mean decode confidence over epochs that produced streams.
  double mean_confidence() const {
    return confidence_epochs > 0
               ? confidence_sum / static_cast<double>(confidence_epochs)
               : 0.0;
  }

  BitRate goodput(std::size_t payload_bits) const {
    return air_time > 0.0 ? static_cast<double>(frames_valid * payload_bits) /
                                air_time
                          : 0.0;
  }
};

class ReaderSession {
 public:
  /// Runs one epoch of `duration` seconds with the network's maximum
  /// bitrate commanded to `max_rate`; returns the captured samples.
  using AirInterface =
      std::function<signal::SampleBuffer(BitRate max_rate, Seconds duration)>;

  /// Decodes one epoch capture. The default (empty) hook decodes serially
  /// with core::LfDecoder on the calling thread; a one-line lambda over
  /// runtime::DecodeRuntime::decode swaps in the concurrent streaming
  /// pipeline without the session (or its callers) changing shape.
  using Decode =
      std::function<core::DecodeResult(const signal::SampleBuffer&)>;

  ReaderSession(SessionConfig config, AirInterface air, Decode decode = {});

  const SessionConfig& config() const { return config_; }
  const SessionStats& stats() const { return stats_; }
  const HealthLedger& health() const { return ledger_; }
  BitRate current_max_rate() const;

  /// Runs one full epoch cycle: capture, decode, account, and (optionally)
  /// issue a broadcast rate command for the *next* epoch.
  core::DecodeResult run_epoch();

 private:
  SessionConfig config_;
  AirInterface air_;
  Decode decode_;
  Carrier carrier_;
  protocol::RateController controller_;
  HealthLedger ledger_;
  SessionStats stats_;
};

}  // namespace lfbs::reader
