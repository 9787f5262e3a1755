#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "core/collision_detector.h"
#include "core/decode_confidence.h"
#include "core/error_corrector.h"
#include "core/stream_detector.h"
#include "protocol/epoch.h"
#include "protocol/frame.h"
#include "signal/edge_detector.h"
#include "signal/sample_buffer.h"

namespace lfbs::core {

/// Degraded-mode control. Per-stream DecodeConfidence and the erasure-aware
/// error-correction pass are always on: they do not change the decoded bits
/// of a primary pass (edges that cleared the detection threshold always sit
/// above the erasure cutoff, so erasures only fire in degraded re-decodes).
struct RobustnessConfig {
  /// On CRC failure (or an empty decode), re-decode down the Fig 9 chain —
  /// perturbed k-means seeds → Edge+IQ → Edge → relaxed/adaptive detection —
  /// keeping, per stream, the best CRC-clean result. Never discards a
  /// primary stream; CRC gating prevents fabrication.
  bool fallback = true;
};

/// Configuration of the full LF-Backscatter reader-side decoder.
struct DecoderConfig {
  /// Valid tag bitrates (all multiples of the base rate; the evaluation set
  /// also divides max_rate, which the stream detector exploits).
  protocol::RatePlan rate_plan = protocol::RatePlan::paper_rates();
  BitRate max_rate = 100.0 * kKbps;
  protocol::FrameConfig frame{};

  /// Stage toggles, matching the Fig 9 breakdown:
  ///  - collision_recovery off  → "Edge" (time-domain separation only)
  ///  - collision_recovery on   → "Edge+IQ"
  ///  - error_correction on too → "Edge+IQ+Error"
  bool collision_recovery = true;
  bool error_correction = true;
  /// cancel_interference (extension): subtract CRC-confident streams'
  /// contributions from failed streams at transiently-contaminated
  /// boundaries and re-decode. Only active when both stages above are on.
  bool interference_cancellation = true;

  /// Edge detection; when auto_scale_edge is set the window/guard are
  /// derived from the oversampling ratio at decode time.
  signal::EdgeDetectorConfig edge{};
  bool auto_scale_edge = true;

  /// Stream grouping tolerances (see StreamDetectorConfig).
  double group_tolerance = 3.5;
  /// Groups with closer lattice phases than this merge into one collision
  /// group (see StreamDetectorConfig::merge_radius).
  double merge_radius = 5.0;

  CollisionDetectorConfig collision{};
  ErrorCorrector::Config corrector{};

  /// Seed for k-means restarts; decoding is fully deterministic given the
  /// input buffer and this seed — including the fallback chain, whose
  /// perturbed seeds derive from this one. Stream group g of a pass draws
  /// from its own Rng seeded derive_seed(seed, g) (common/rng.h), so the
  /// result does not depend on the order or the threads the groups decode
  /// on.
  std::uint64_t seed = 0x1f5eedULL;

  /// Degraded-mode fallback (see above).
  RobustnessConfig robustness{};
};

/// One decoded tag stream.
struct DecodedStream {
  double start_sample = 0.0;  ///< position of the stream's anchor edge
  BitRate rate = 0.0;         ///< estimated tag bitrate
  bool collided = false;      ///< recovered from a collision
  std::vector<bool> bits;     ///< raw decoded bits (anchor first)
  std::vector<protocol::ParsedFrame> frames;  ///< framed & CRC-checked
  /// Rising-edge IQ differential of this stream — essentially the tag's
  /// channel coefficient. Stable across an epoch, which is what the
  /// windowed decoder uses to stitch streams across processing windows.
  Complex edge_vector;
  /// Estimated per-stream SNR: edge power over the residual scatter of the
  /// boundary differentials around their assigned states. Deployments use
  /// this for §3.6 rate decisions (weak streams → lower the max rate).
  double snr_db = 0.0;
  /// Soft-decision summary: edge SNR/confidence, Viterbi margins, cluster
  /// separation, erasures, and which fallback rung produced this stream.
  DecodeConfidence confidence{};

  /// Number of CRC-valid frames.
  std::size_t valid_frames() const;
};

struct DecodeDiagnostics {
  std::size_t edges = 0;              ///< edges detected
  std::size_t groups = 0;             ///< stream groups formed
  std::size_t collision_groups = 0;   ///< groups decoded via IQ separation
  std::size_t unresolved_groups = 0;  ///< ≥3-way or failed separations
  std::size_t erasures = 0;           ///< boundaries demoted to erasures
  std::size_t fallback_passes = 0;    ///< degraded-mode re-decodes attempted
  std::size_t fallback_recoveries = 0;  ///< streams improved by a re-decode
};

struct DecodeResult {
  std::vector<DecodedStream> streams;
  DecodeDiagnostics diagnostics;

  /// All CRC-valid payloads across streams.
  std::vector<std::vector<bool>> valid_payloads() const;
  std::size_t frames_attempted() const;
  std::size_t frames_failed() const;
  /// Number of CRC-valid frames across streams.
  std::size_t valid_frames() const;
};

/// The LF-Backscatter decoder, the reader's Fig 9 chain. One pass runs the
/// stage functions of core/decode_stages.h in order: detect_edges →
/// group_streams → extract_slots → decode_group (collision assessment, then
/// the single-stream path or the joint path with the K-tag joint Viterbi)
/// → frame_stream → cancel_interference. extract_slots and decode_group
/// run per group on the process's pool (common/parallel.h), with the same
/// result on any number of threads. decode() adds the degradation ladder
/// when a pass frames nothing. See DESIGN.md §4.
class LfDecoder {
 public:
  explicit LfDecoder(DecoderConfig config);

  const DecoderConfig& config() const { return config_; }

  /// Decodes one capture. Every sample must be finite: edge detection
  /// orders |dS| values and k-means compares inertias, and one NaN poisons
  /// both. load_iq and the runtime's Supervisor zero non-finite samples
  /// (signal::scrub_non_finite); a caller with other sources does the same.
  DecodeResult decode(const signal::SampleBuffer& buffer) const;

 private:
  /// One pass of the stage functions under a (possibly degraded) config.
  DecodeResult decode_pass(const signal::SampleBuffer& buffer,
                           const DecoderConfig& cfg) const;

  DecoderConfig config_;
};

}  // namespace lfbs::core
