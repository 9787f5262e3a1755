#pragma once

#include <vector>

#include "channel/channel_model.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/lf_decoder.h"
#include "protocol/frame.h"
#include "reader/receiver.h"
#include "tag/tag.h"

namespace lfbs::sim {

/// A deployment: tags placed around a reader, with channel coefficients and
/// comparator energies derived from the placements. This is the shared
/// substrate of the evaluation benches (paper setup: sixteen tags roughly
/// two metres from the reader, §5.1).
struct ScenarioConfig {
  std::size_t num_tags = 16;
  /// Per-tag bitrates; if shorter than num_tags the last entry repeats.
  std::vector<BitRate> rates = {100.0 * kKbps};
  SampleRate sample_rate = 25.0 * kMsps;
  double noise_power = 1e-5;
  Seconds epoch_duration = 1.5e-3;
  protocol::FrameConfig frame{};
  /// Placement spread around the nominal 2 m reader distance.
  double mean_distance_m = 2.0;
  double distance_spread_m = 0.5;
  /// Relative incoming-energy spread across placements (drives the
  /// comparator start-time randomness of Fig 4).
  double energy_spread = 0.3;
  /// Tag crystal tolerance in ppm. The default matches the paper's 150 ppm
  /// crystal; long-epoch experiments (very slow tags) use batch-matched
  /// parts so that faster tags do not drift across slower tags' lattices
  /// within one epoch.
  double clock_drift_ppm = 150.0;
  /// Scale applied to all channel amplitudes so the nominal 2 m tag has a
  /// conveniently-sized coefficient against the default noise power.
  double amplitude_scale = 0.5;
};

/// Outcome of one epoch of concurrent laissez-faire transfer.
struct EpochOutcome {
  core::DecodeResult decode;
  std::vector<std::vector<bool>> sent_payloads;  ///< all frames, all tags
  std::size_t payloads_recovered = 0;  ///< sent payloads found CRC-clean
  std::size_t bits_sent = 0;
  std::size_t bits_recovered = 0;      ///< payload bits of recovered frames
  Seconds duration = 0.0;
};

class Scenario {
 public:
  Scenario(ScenarioConfig config, Rng& rng);

  const ScenarioConfig& config() const { return config_; }
  std::size_t num_tags() const { return tags_.size(); }
  BitRate rate_of(std::size_t tag) const;
  Complex coefficient(std::size_t tag) const;

  /// Directly sets tag i's rate (fleet control-plane experiments: the
  /// scheduler assigns per-tag rates rather than one broadcast maximum).
  /// The rate must come from the decoder's rate plan.
  void set_tag_rate(std::size_t tag, BitRate rate);

  /// Runs one epoch where every tag streams `frames_per_tag` random
  /// payload frames (or as many as fit the epoch).
  EpochOutcome run_epoch(const core::DecoderConfig& decoder_config, Rng& rng,
                         std::size_t frames_per_tag = 1);

  /// Runs one epoch where tag i transmits the given payloads.
  EpochOutcome run_epoch_with_payloads(
      const core::DecoderConfig& decoder_config,
      const std::vector<std::vector<std::vector<bool>>>& payloads_per_tag,
      Rng& rng);

  /// Puts the given payloads on the air and returns the raw epoch capture
  /// without decoding — what runtime::ScenarioSource streams, or what
  /// signal::save_iq records. Tags whose rate exceeds `max_rate` and that
  /// listen to the reader are slowed to it (§3.6 rate commands).
  signal::SampleBuffer capture_epoch(
      const std::vector<std::vector<std::vector<bool>>>& payloads_per_tag,
      Rng& rng, BitRate max_rate = 0.0);

  /// Default decoder configuration matching this scenario (frame layout,
  /// rate plan including every rate in use).
  core::DecoderConfig default_decoder() const;

 private:
  ScenarioConfig config_;
  std::vector<tag::Tag> tags_;
  reader::Receiver receiver_;
};

}  // namespace lfbs::sim
