#include "core/lf_decoder.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/decode_stages.h"
#include "core/tag_identity.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lfbs::core {

namespace {

/// Edge-vector tolerance of the ladder's tag-identity match, relative to
/// the primary stream's vector.
constexpr double kLadderVectorTolerance = 0.5;

/// The relaxed-detection rungs never drop threshold_sigma below this.
constexpr double kRelaxedFloorSigma = 2.5;

/// Fallback fires only when a pass recovered *nothing* CRC-valid — the
/// "stream silently vanished" failure the ladder exists for. Partial CRC
/// failures are left alone: re-decoding a mostly-healthy capture with
/// degraded settings trades known-good structure (window seams, collision
/// assignments) for noise. Chronic partial failure is for the reader's §3.6
/// rate control (protocol::RateController) and the control plane's
/// per-tag tracking to act on, not the demodulator.
bool needs_fallback(const DecodeResult& r) { return r.valid_frames() == 0; }

}  // namespace

std::size_t DecodedStream::valid_frames() const {
  return static_cast<std::size_t>(
      std::count_if(frames.begin(), frames.end(),
                    [](const protocol::ParsedFrame& f) { return f.valid(); }));
}

std::vector<std::vector<bool>> DecodeResult::valid_payloads() const {
  std::vector<std::vector<bool>> out;
  for (const DecodedStream& s : streams) {
    for (const protocol::ParsedFrame& f : s.frames) {
      if (f.valid()) out.push_back(f.payload);
    }
  }
  return out;
}

std::size_t DecodeResult::frames_attempted() const {
  std::size_t n = 0;
  for (const DecodedStream& s : streams) n += s.frames.size();
  return n;
}

std::size_t DecodeResult::frames_failed() const {
  return frames_attempted() - valid_frames();
}

std::size_t DecodeResult::valid_frames() const {
  std::size_t n = 0;
  for (const DecodedStream& s : streams) n += s.valid_frames();
  return n;
}

LfDecoder::LfDecoder(DecoderConfig config) : config_(std::move(config)) {
  LFBS_CHECK(config_.max_rate > 0.0);
  LFBS_CHECK(!config_.rate_plan.rates.empty());
}

DecodeResult LfDecoder::decode_pass(const signal::SampleBuffer& buffer,
                                    const DecoderConfig& cfg) const {
  LFBS_OBS_SPAN(span, "decode_pass", "core");
  span.attr("samples", static_cast<double>(buffer.size()));
  static obs::Counter& passes = obs::metrics().counter("core.decode_passes");
  passes.add();
  DecodeResult result;
  if (buffer.empty()) return result;
  const PassContext ctx(buffer, cfg);

  const Edges edges = detect_edges(ctx);
  result.diagnostics.edges = edges.size();
  if (edges.empty()) return result;

  const Groups groups = group_streams(ctx, edges);
  result.diagnostics.groups = groups.size();

  // Each group decodes from its own slots and seed alone, so the groups fan
  // out to the process's pool; the fold below puts slot indices, streams
  // and counts back in group order, whatever ran where.
  std::vector<BoundarySlots> slot_store(groups.size());
  std::vector<GroupDecode> decoded(groups.size());
  parallel_for(groups.size(), [&](std::size_t gi) {
    slot_store[gi] = extract_slots(ctx, edges, groups[gi]);
    LFBS_OBS_SPAN(group_span, "decode_group", "core");
    decoded[gi] = decode_group(ctx, edges, groups[gi], slot_store[gi],
                               derive_seed(cfg.seed, gi));
  });

  std::vector<PendingStream> pending;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    GroupDecode& group = decoded[gi];
    const std::size_t first_split = slot_store.size();
    for (PendingStream& ps : group.streams) {
      ps.slots_ref = ps.slots_ref == 0 ? gi : first_split + ps.slots_ref - 1;
      pending.push_back(std::move(ps));
    }
    for (BoundarySlots& slots : group.split_slots) {
      slot_store.push_back(std::move(slots));
    }
    result.diagnostics.collision_groups += group.collision_groups;
    result.diagnostics.unresolved_groups += group.unresolved_groups;
  }

  result.streams.reserve(pending.size());
  for (const PendingStream& ps : pending) {
    result.streams.push_back(frame_stream(cfg, ps));
  }

  cancel_interference(ctx, pending, slot_store, result.streams);

  for (const DecodedStream& s : result.streams) {
    result.diagnostics.erasures += s.confidence.erasures;
  }
  return result;
}

void merge_fallback(DecodeResult& result, DecodeResult alt,
                    FallbackStage stage, SampleRate fs,
                    const protocol::FrameConfig& frame) {
  static obs::Counter& recoveries =
      obs::metrics().counter("core.fallback_recoveries");
  // Match fallback streams to primary ones by sample-extent overlap: a
  // degraded re-detect of the same tag can shift the anchor by several bit
  // periods, so anchor proximity alone would mistake it for a new stream
  // and publish the tag twice.
  const auto extent = [fs](const DecodedStream& s) {
    const double len =
        s.rate > 0.0 ? static_cast<double>(s.bits.size()) * fs / s.rate : 0.0;
    return std::pair<double, double>(s.start_sample, s.start_sample + len);
  };
  for (DecodedStream& cand : alt.streams) {
    if (cand.valid_frames() == 0) continue;  // CRC gate
    cand.confidence.stage = stage;
    const auto [clo, chi] = extent(cand);
    DecodedStream* match = nullptr;
    bool overlapped = false;
    double best_overlap = 0.0;
    for (DecodedStream& have : result.streams) {
      const auto [hlo, hhi] = extent(have);
      const double shorter = std::min(chi - clo, hhi - hlo);
      if (shorter <= 0.0) continue;
      const double overlap =
          (std::min(chi, hhi) - std::max(clo, hlo)) / shorter;
      if (overlap <= 0.5) continue;
      overlapped = true;
      // Co-transmitting tags overlap in time too; the tag identity (the
      // polarity-tolerant edge vector) tells them apart, as in the window
      // stitcher.
      if (TagIdentity::compare(cand.edge_vector, have.edge_vector).distance >
          kLadderVectorTolerance) {
        continue;
      }
      if (overlap > best_overlap) {
        best_overlap = overlap;
        match = &have;
      }
    }
    if (match == nullptr && overlapped) {
      // Overlaps live streams but matches none of their channel vectors:
      // most likely a re-decode of their unseparated mixture. Publishing
      // it would duplicate or fabricate — drop it.
      continue;
    }
    if (match == nullptr) {
      // A stream the primary pass never saw (e.g. edges below the nominal
      // threshold) — recovered outright if a CRC-valid frame appears in
      // the rigid anchor-aligned parse. scan_frames tries every bit offset,
      // which on a noise-only "stream" is thousands of CRC-collision
      // lottery tickets; the rigid parse only has L/frame_bits.
      const auto rigid = protocol::parse_stream(cand.bits, frame);
      if (std::none_of(rigid.begin(), rigid.end(),
                       [](const protocol::ParsedFrame& f) {
                         return f.valid();
                       })) {
        continue;
      }
      result.streams.push_back(std::move(cand));
    } else if (cand.valid_frames() > match->valid_frames()) {
      *match = std::move(cand);
    } else {
      continue;
    }
    ++result.diagnostics.fallback_recoveries;
    recoveries.add();
  }
}

DecodeResult LfDecoder::decode(const signal::SampleBuffer& buffer) const {
  DecodeResult result = decode_pass(buffer, config_);
  if (!config_.robustness.fallback) return result;
  if (buffer.empty() || !needs_fallback(result)) return result;

  // The Fig 9 degradation ladder, cheapest first. Later rungs deliberately
  // shed machinery (error correction, IQ separation) or relax detection —
  // each result is only trusted where the CRC agrees.
  struct Rung {
    FallbackStage stage;
    DecoderConfig cfg;
  };
  std::vector<Rung> ladder;
  {
    DecoderConfig c = config_;
    c.seed = config_.seed ^ 0xa5a5f00d5eedULL;  // perturbed k-means restarts
    ladder.push_back({FallbackStage::kReseeded, std::move(c)});
  }
  {
    DecoderConfig c = config_;
    c.error_correction = false;
    ladder.push_back({FallbackStage::kNoErrorCorrection, std::move(c)});
  }
  {
    DecoderConfig c = config_;
    c.collision_recovery = false;
    c.error_correction = false;
    ladder.push_back({FallbackStage::kEdgeOnly, std::move(c)});
  }
  for (const double scale : {0.65, 0.45}) {
    // Weak-edge re-detection: a fading channel pushes edges under the
    // nominal threshold, and the whole stream silently vanishes. Re-detect
    // with a lowered, adaptive (blockwise) threshold; the full chain then
    // runs on whatever appears, and the CRC arbitrates.
    DecoderConfig c = config_;
    c.edge.adaptive_threshold = true;
    c.edge.threshold_sigma =
        std::max(kRelaxedFloorSigma, config_.edge.threshold_sigma * scale);
    ladder.push_back({FallbackStage::kRelaxedDetection, std::move(c)});
  }

  static obs::Counter& fb_passes =
      obs::metrics().counter("core.fallback_passes");
  for (const Rung& rung : ladder) {
    if (!needs_fallback(result)) break;
    LFBS_OBS_SPAN(rung_span, "fallback_pass", "core");
    rung_span.attr("stage", static_cast<double>(rung.stage));
    DecodeResult alt = decode_pass(buffer, rung.cfg);
    ++result.diagnostics.fallback_passes;
    fb_passes.add();
    merge_fallback(result, std::move(alt), rung.stage, buffer.sample_rate(),
                   config_.frame);
  }
  std::sort(result.streams.begin(), result.streams.end(),
            [](const DecodedStream& a, const DecodedStream& b) {
              return a.start_sample < b.start_sample;
            });
  return result;
}

}  // namespace lfbs::core
