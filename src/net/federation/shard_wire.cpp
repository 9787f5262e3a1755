#include "net/federation/shard_wire.h"

#include "net/wire_io.h"

namespace lfbs::net::federation {

using namespace wire_io;

void encode_shard_assign(const ShardAssign& assign,
                         std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kShardAssign);
  put_u64(out, assign.window_index);
  put_u8(out, assign.short_capture ? 1 : 0);
  put_u64(out, assign.sample_count);
  put_f64(out, assign.sample_rate);
  put_f64(out, assign.window_seconds);
  put_u64(out, assign.seed);
  put_u32(out, assign.payload_bits);
  put_u8(out, assign.crc_kind);
  end_message(out, at);
}

ShardAssign decode_shard_assign(std::span<const std::uint8_t> body) {
  Cursor c(body);
  ShardAssign assign;
  assign.window_index = c.get_u64();
  assign.short_capture = (c.get_u8() & 1) != 0;
  assign.sample_count = c.get_u64();
  assign.sample_rate = c.get_f64();
  assign.window_seconds = c.get_f64();
  assign.seed = c.get_u64();
  assign.payload_bits = c.get_u32();
  assign.crc_kind = c.get_u8();
  if (assign.crc_kind > static_cast<std::uint8_t>(protocol::CrcKind::kCrc16)) {
    throw WireFormatError(WireError::kMalformed, "unknown CRC kind");
  }
  if (assign.sample_rate <= 0.0 || assign.window_seconds <= 0.0) {
    throw WireFormatError(WireError::kMalformed,
                          "shard assign without a positive rate/window");
  }
  return assign;
}

namespace {

void put_confidence(std::vector<std::uint8_t>& out,
                    const core::DecodeConfidence& c) {
  put_f64(out, c.edge_snr_db);
  put_f64(out, c.edge_confidence);
  put_f64(out, c.path_margin);
  put_f64(out, c.cluster_separation);
  put_u64(out, c.erasures);
  put_u8(out, static_cast<std::uint8_t>(c.stage));
}

core::DecodeConfidence get_confidence(Cursor& c) {
  core::DecodeConfidence conf;
  conf.edge_snr_db = c.get_f64();
  conf.edge_confidence = c.get_f64();
  conf.path_margin = c.get_f64();
  conf.cluster_separation = c.get_f64();
  conf.erasures = static_cast<std::size_t>(c.get_u64());
  const std::uint8_t stage = c.get_u8();
  if (stage >
      static_cast<std::uint8_t>(core::FallbackStage::kRelaxedDetection)) {
    throw WireFormatError(WireError::kMalformed, "unknown fallback stage");
  }
  conf.stage = static_cast<core::FallbackStage>(stage);
  return conf;
}

}  // namespace

void encode_shard_result(const ShardResult& result,
                         std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kShardFrame);
  put_u64(out, result.window_index);
  put_u8(out, result.short_capture ? 1 : 0);
  const auto& d = result.result.diagnostics;
  put_u64(out, d.edges);
  put_u64(out, d.groups);
  put_u64(out, d.collision_groups);
  put_u64(out, d.unresolved_groups);
  put_u64(out, d.erasures);
  put_u64(out, d.fallback_passes);
  put_u64(out, d.fallback_recoveries);
  put_u32(out, static_cast<std::uint32_t>(result.result.streams.size()));
  for (const auto& stream : result.result.streams) {
    put_f64(out, stream.start_sample);
    put_f64(out, stream.rate);
    put_u8(out, stream.collided ? 1 : 0);
    put_f64(out, stream.edge_vector.real());
    put_f64(out, stream.edge_vector.imag());
    put_f64(out, stream.snr_db);
    put_confidence(out, stream.confidence);
    put_packed_bits(out, stream.bits);
    put_u32(out, static_cast<std::uint32_t>(stream.frames.size()));
    for (const auto& frame : stream.frames) {
      std::uint8_t flags = 0;
      if (frame.anchor_ok) flags |= 1;
      if (frame.crc_ok) flags |= 2;
      put_u8(out, flags);
      put_packed_bits(out, frame.payload);
    }
  }
  end_message(out, at);
}

ShardResult decode_shard_result(std::span<const std::uint8_t> body) {
  Cursor c(body);
  ShardResult result;
  result.window_index = c.get_u64();
  result.short_capture = (c.get_u8() & 1) != 0;
  auto& d = result.result.diagnostics;
  d.edges = static_cast<std::size_t>(c.get_u64());
  d.groups = static_cast<std::size_t>(c.get_u64());
  d.collision_groups = static_cast<std::size_t>(c.get_u64());
  d.unresolved_groups = static_cast<std::size_t>(c.get_u64());
  d.erasures = static_cast<std::size_t>(c.get_u64());
  d.fallback_passes = static_cast<std::size_t>(c.get_u64());
  d.fallback_recoveries = static_cast<std::size_t>(c.get_u64());
  const std::uint32_t stream_count = c.get_u32();
  result.result.streams.reserve(stream_count);
  for (std::uint32_t i = 0; i < stream_count; ++i) {
    core::DecodedStream stream;
    stream.start_sample = c.get_f64();
    stream.rate = c.get_f64();
    stream.collided = (c.get_u8() & 1) != 0;
    const double re = c.get_f64();
    const double im = c.get_f64();
    stream.edge_vector = Complex(re, im);
    stream.snr_db = c.get_f64();
    stream.confidence = get_confidence(c);
    stream.bits = c.get_packed_bits();
    const std::uint32_t frame_count = c.get_u32();
    stream.frames.reserve(frame_count);
    for (std::uint32_t f = 0; f < frame_count; ++f) {
      protocol::ParsedFrame frame;
      const std::uint8_t flags = c.get_u8();
      frame.anchor_ok = (flags & 1) != 0;
      frame.crc_ok = (flags & 2) != 0;
      frame.payload = c.get_packed_bits();
      stream.frames.push_back(std::move(frame));
    }
    result.result.streams.push_back(std::move(stream));
  }
  return result;
}

}  // namespace lfbs::net::federation
