#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/lf_decoder.h"
#include "net/wire.h"

namespace lfbs::net::federation {

/// One window's decode order, coordinator → worker (kShardAssign). The
/// window's samples follow as kIqChunk messages (always f64, so the worker
/// decodes the coordinator's exact bit patterns), `sample_count` of them in
/// total, with window-local first_sample offsets.
///
/// The assign repeats the decode parameters the gateway exposes — window
/// geometry, frame layout, base seed — per window: a few dozen bytes
/// against megabytes of IQ, and it makes workers stateless across
/// assignments. Decoder knobs beyond these (stage toggles, edge config,
/// ...) must be left at their defaults on both sides; the gateway does not
/// expose them, and the bit-identity contract covers exactly the
/// configuration the assign can describe. The stitch runs on the
/// coordinator, so nothing of it travels.
struct ShardAssign {
  std::uint64_t window_index = 0;
  /// Whole-capture fallback (capture ≤ 1.5 windows): decode with the plain
  /// LfDecoder — fallback ladder enabled, base seed unmixed — exactly like
  /// WindowedDecoder::decode's short-capture path.
  bool short_capture = false;
  std::uint64_t sample_count = 0;  ///< samples following as kIqChunk
  double sample_rate = 0.0;
  double window_seconds = 0.0;     ///< WindowedDecoderConfig::window
  std::uint64_t seed = 0;          ///< base decoder seed (pre window mix)
  std::uint32_t payload_bits = 0;  ///< protocol::FrameConfig::payload_bits
  std::uint8_t crc_kind = 0;       ///< protocol::CrcKind
};

/// One window's decode, worker → coordinator (kShardFrame). Serializes the
/// full per-window DecodeResult — streams with bits, frames, edge vectors,
/// confidence, plus the diagnostics counters — because the coordinator's
/// WindowStitcher (and, for short captures, the pass-through path) needs
/// every field the in-process worker pool would have handed it. Stream
/// order within the window is preserved: the stitcher's thread matching is
/// order-sensitive.
struct ShardResult {
  std::uint64_t window_index = 0;
  bool short_capture = false;
  core::DecodeResult result;
};

void encode_shard_assign(const ShardAssign& assign,
                         std::vector<std::uint8_t>& out);
ShardAssign decode_shard_assign(std::span<const std::uint8_t> body);

void encode_shard_result(const ShardResult& result,
                         std::vector<std::uint8_t>& out);
ShardResult decode_shard_result(std::span<const std::uint8_t> body);

}  // namespace lfbs::net::federation
