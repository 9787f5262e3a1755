#include "reader/session.h"

#include "common/check.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lfbs::reader {

ReaderSession::ReaderSession(SessionConfig config, AirInterface air,
                             Decode decode)
    : config_(config),
      air_(std::move(air)),
      decode_(std::move(decode)),
      carrier_(config.epoch.duration, config.epoch.gap),
      controller_(config.decoder.rate_plan, config.epoch.max_rate),
      ledger_(config.health) {
  LFBS_CHECK_MSG(static_cast<bool>(air_), "an air interface is required");
  LFBS_CHECK_MSG(config_.decoder.rate_plan.is_valid(config_.epoch.max_rate),
                 "epoch max rate must be in the decoder's rate plan");
}

BitRate ReaderSession::current_max_rate() const {
  return controller_.current_max();
}

core::DecodeResult ReaderSession::run_epoch() {
  LFBS_OBS_SPAN(span, "epoch", "reader");
  static obs::Counter& epochs = obs::metrics().counter("reader.epochs");
  static obs::Counter& rate_commands =
      obs::metrics().counter("reader.rate_commands");
  static obs::Counter& step_downs =
      obs::metrics().counter("reader.health_step_downs");
  epochs.add();
  const BitRate epoch_rate = controller_.current_max();
  span.attr("max_rate", epoch_rate);
  const signal::SampleBuffer buffer =
      air_(controller_.current_max(), config_.epoch.duration);
  core::DecodeResult result =
      decode_ ? decode_(buffer) : core::LfDecoder(config_.decoder).decode(buffer);

  ++stats_.epochs;
  stats_.air_time += carrier_.cycle();
  stats_.streams += result.streams.size();
  const std::size_t attempted = result.frames_attempted();
  const std::size_t failed = result.frames_failed();
  stats_.frames_valid += attempted - failed;
  stats_.frames_failed += failed;
  stats_.fallback_recoveries += result.diagnostics.fallback_recoveries;

  const EpochHealth health = ledger_.observe(result);
  stats_.quarantines += health.newly_quarantined;
  if (!result.streams.empty()) {
    stats_.confidence_sum += health.mean_confidence;
    ++stats_.confidence_epochs;
  }
  // A chronically failing stream is stronger evidence than one epoch's
  // loss ratio: drop the broadcast rate immediately rather than letting
  // the controller re-discover it over several epochs.
  if (health.newly_quarantined > 0 && config_.rate_control &&
      controller_.step_down().has_value()) {
    ++stats_.rate_commands;
    ++stats_.health_step_downs;
    rate_commands.add();
    step_downs.add();
    if (obs::EventLog* log = obs::event_log()) {
      log->emit("rate",
                {obs::Field::str("cause", "health_step_down"),
                 obs::Field::num("from_rate", epoch_rate),
                 obs::Field::num("to_rate", controller_.current_max())});
    }
  }

  if (config_.rate_control) {
    if (controller_.on_epoch(attempted, failed).has_value()) {
      ++stats_.rate_commands;
      rate_commands.add();
      if (obs::EventLog* log = obs::event_log()) {
        log->emit("rate",
                  {obs::Field::str("cause", "loss_ratio"),
                   obs::Field::num("from_rate", epoch_rate),
                   obs::Field::num("to_rate", controller_.current_max())});
      }
    }
  }
  return result;
}

}  // namespace lfbs::reader
