#pragma once

// The Fig 9 stages of one LfDecoder pass, over typed intermediates. Private
// to lfbs_core (and its tests and bench_perf_decoder's stage rows): the
// public entry point is LfDecoder.
//
// LfDecoder::decode_pass calls them in this order (DESIGN.md §4):
//
//   detect_edges         SampleBuffer  → Edges
//   group_streams        Edges         → Groups
//   extract_slots        StreamGroup   → BoundarySlots (one per group)
//   decode_group         BoundarySlots → GroupDecode (one per group)
//   frame_stream         PendingStream → DecodedStream
//   cancel_interference  PendingStreams + DecodedStreams → repaired streams
//
// extract_slots and decode_group read only their own group and the pass's
// shared, read-only inputs, so decode_pass runs them for every group on the
// process's pool (common/parallel.h) and folds the GroupDecodes back in
// group order.

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/collision_separator.h"
#include "core/lf_decoder.h"

namespace lfbs::core {

using Edges = std::vector<signal::Edge>;
using Groups = std::vector<StreamGroup>;

/// Sentinel for "no measured edge at this slot" in BoundarySlots::snrs.
inline constexpr double kNoEdgeSnr = -1e9;

/// Boundary slots of one group: mid positions, the span of the group's own
/// measured edges, and the extracted IQ differential per boundary.
struct BoundarySlots {
  std::vector<double> positions;
  std::vector<Complex> diffs;
  /// Per-slot soft decision: the (weakest) detected edge's confidence, or
  /// 1.0 where no edge was detected ("confidently no edge" — the hold
  /// states are as trustworthy as the detection threshold is strict).
  std::vector<double> confidences;
  /// Per-slot edge SNR in dB; kNoEdgeSnr where no edge was detected.
  std::vector<double> snrs;

  /// Mean detected-edge SNR over the lattice [start, start+step, ...].
  double mean_snr(std::size_t start, std::size_t step) const;
  /// Mean per-slot confidence over the lattice.
  double mean_confidence(std::size_t start, std::size_t step) const;
};

/// A decoded stream before framing, kept with enough context for
/// cancel_interference.
struct PendingStream {
  /// Index into the pass's slot store: the groups' own slots in group
  /// order, then the over-merge split halves' slots in group order. Inside
  /// a GroupDecode it is local to the group instead (see there).
  std::size_t slots_ref = 0;
  std::size_t start = 0;       ///< first slot of this stream's bit lattice
  std::size_t step = 1;        ///< slots per bit
  std::vector<bool> bits;
  Complex edge_vector;         ///< rising-edge IQ differential
  double snr_db = 0.0;         ///< edge power over boundary residual power
  bool collided = false;
  double start_sample = 0.0;
  BitRate rate = 0.0;
  // Soft-decision aggregates feeding DecodeConfidence.
  double edge_snr_db = 0.0;       ///< mean detected-edge SNR on the lattice
  double edge_confidence = 1.0;   ///< mean per-slot confidence
  double path_margin = 0.0;       ///< mean Viterbi margin (0 if stage off)
  double cluster_separation = 0.0;
  std::size_t erasures = 0;
};

/// What every stage of one pass reads: the buffer and config of the pass,
/// the settings derived from them, and the stage objects built from those.
struct PassContext {
  PassContext(const signal::SampleBuffer& buffer, const DecoderConfig& cfg);

  const signal::SampleBuffer& buffer;
  const DecoderConfig& cfg;
  double spb;  ///< samples per bit at the maximum rate
  /// Grouping tolerances are physical times (edge ramp ~0.12 us, position
  /// noise), not sample counts: the configured values are defined at the
  /// paper's 25 Msps and scale with the ADC rate by this factor (1 unless
  /// auto_scale_edge), so decoding works identically at 2.5 and 25 Msps.
  double fs_scale;
  double group_tolerance;  ///< scaled grouping tolerance, in samples
  signal::EdgeDetector edge_detector;
  StreamDetector stream_detector;
  CollisionDetector collision_detector;
  CollisionSeparator separator;
  ErrorCorrector corrector;
};

/// Edge detection (§3.1) over the pass's buffer.
Edges detect_edges(const PassContext& ctx);

/// Stream grouping (§3.2): edges on one lattice form a group; tags whose
/// offsets (nearly) coincide form one collision group.
Groups group_streams(const PassContext& ctx, const Edges& edges);

/// Boundary differential extraction: re-measures the IQ step at each of
/// the group's lattice slots with averaging windows stretched to just
/// short of the other groups' edges.
BoundarySlots extract_slots(const PassContext& ctx, const Edges& edges,
                            const StreamGroup& group);

/// What decode_group decodes from one group.
struct GroupDecode {
  /// The decoded streams. Their slots_ref is local to the group: 0 names
  /// the group's own slots, 1 + h the h-th entry of split_slots.
  std::vector<PendingStream> streams;
  /// The over-merge split halves' slots; empty unless the group split.
  std::vector<BoundarySlots> split_slots;
  /// Counts for DecodeDiagnostics' fields of the same names.
  std::size_t collision_groups = 0;
  std::size_t unresolved_groups = 0;
};

/// Decodes one group from its boundary slots: collision assessment (§3.3),
/// then either the single-stream path or the joint path shared by two- and
/// three-tag collisions (§3.4, §3.5), with the over-merge residual split as
/// a fallback. Every k-means restart draws from one Rng seeded `seed`; a
/// single-stream group's bits come from the assessment's own k=3 fit. The
/// result depends only on these arguments, never on other groups' decodes.
GroupDecode decode_group(const PassContext& ctx, const Edges& edges,
                         const StreamGroup& group, const BoundarySlots& slots,
                         std::uint64_t seed);

/// Framing: trims the idle tail and parses frames, falling back to a CRC
/// resynchronising scan when that recovers more.
DecodedStream frame_stream(const DecoderConfig& cfg, const PendingStream& ps);

/// Transient-interference cancellation (extension): subtracts CRC-valid
/// streams' edge contributions from the boundaries of CRC-failed single
/// streams and re-decodes them, keeping a re-decode that frames more.
/// `streams[i]` is frame_stream of `pending[i]`. Runs only with collision
/// recovery, error correction and interference cancellation all on.
void cancel_interference(const PassContext& ctx,
                         const std::vector<PendingStream>& pending,
                         const std::vector<BoundarySlots>& slot_store,
                         std::vector<DecodedStream>& streams);

/// Folds one fallback rung's CRC-valid streams into `result` (the ladder of
/// LfDecoder::decode). A candidate that overlaps a primary stream in time
/// and matches its TagIdentity replaces it when it frames more; one that
/// overlaps streams but matches none is dropped; one that overlaps nothing
/// is added when its rigid parse has a CRC-valid frame.
void merge_fallback(DecodeResult& result, DecodeResult alt,
                    FallbackStage stage, SampleRate fs,
                    const protocol::FrameConfig& frame);

/// Drops trailing frames that are entirely zero — the decoded level after a
/// tag goes idle — so they don't count as CRC failures.
void trim_trailing_zeros(std::vector<bool>& bits, std::size_t frame_bits);

}  // namespace lfbs::core
