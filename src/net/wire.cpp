#include "net/wire.h"

#include <cstring>

#include "net/wire_io.h"

namespace lfbs::net {

// The append/read primitives (put_*, Cursor, message framing) live in
// wire_io.h so the federation shard codec shares them byte-for-byte.
using namespace wire_io;

const char* to_string(WireError code) {
  switch (code) {
    case WireError::kBadMagic:
      return "bad magic";
    case WireError::kBadVersion:
      return "incompatible version";
    case WireError::kTruncated:
      return "truncated";
    case WireError::kOversized:
      return "oversized";
    case WireError::kUnknownType:
      return "unknown message type";
    case WireError::kMalformed:
      return "malformed";
  }
  return "?";
}

const char* to_string(ByeReason reason) {
  switch (reason) {
    case ByeReason::kEndOfStream:
      return "end-of-stream";
    case ByeReason::kEvicted:
      return "evicted";
    case ByeReason::kProtocolError:
      return "protocol-error";
    case ByeReason::kShuttingDown:
      return "shutting-down";
    case ByeReason::kAdmissionDenied:
      return "admission-denied";
  }
  return "?";
}

const char* to_string(ClientClass cls) {
  switch (cls) {
    case ClientClass::kBestEffort:
      return "best-effort";
    case ClientClass::kPriority:
      return "priority";
  }
  return "?";
}

bool SubscribeFilter::accepts(const runtime::FrameEvent& event) const {
  if (event.confidence < min_confidence) return false;
  if (min_rate > 0.0 && event.rate < min_rate) return false;
  if (max_rate > 0.0 && event.rate > max_rate) return false;
  if (crc_valid_only && !event.frame.crc_ok) return false;
  return true;
}

WireStats to_wire_stats(const runtime::RuntimeStats& stats) {
  WireStats out;
  out.health = static_cast<std::uint8_t>(stats.health);
  out.stopped_early = stats.stopped_early;
  out.wall_seconds = stats.wall_seconds;
  out.samples_in = stats.samples_in;
  out.windows_decoded = stats.windows_decoded;
  out.frames_published = stats.frames_published;
  out.streams = stats.streams;
  out.faults_total = stats.faults.total();
  out.mean_confidence = stats.mean_confidence;
  return out;
}

void encode_hello(const Hello& hello, std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kHello);
  out.insert(out.end(), kWireMagic, kWireMagic + sizeof(kWireMagic));
  put_u16(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(hello.role));
  put_f64(out, hello.sample_rate);
  put_string(out, hello.name);
  put_u8(out, static_cast<std::uint8_t>(hello.client_class));
  end_message(out, at);
}

Hello decode_hello(std::span<const std::uint8_t> body) {
  Cursor c(body);
  const auto magic = c.take(sizeof(kWireMagic));
  if (std::memcmp(magic.data(), kWireMagic, sizeof(kWireMagic)) != 0) {
    throw WireFormatError(WireError::kBadMagic,
                          "hello does not carry the LFBW1 magic");
  }
  const std::uint16_t version = c.get_u16();
  if (version != kWireVersion) {
    throw WireFormatError(WireError::kBadVersion,
                          "peer speaks LFBW version " +
                              std::to_string(version) + ", want " +
                              std::to_string(kWireVersion));
  }
  Hello hello;
  const std::uint8_t role = c.get_u8();
  if (role > static_cast<std::uint8_t>(PeerRole::kShardWorker)) {
    throw WireFormatError(WireError::kMalformed, "unknown peer role");
  }
  hello.role = static_cast<PeerRole>(role);
  hello.sample_rate = c.get_f64();
  hello.name = c.get_string();
  const std::uint8_t cls = c.get_u8();
  if (cls > static_cast<std::uint8_t>(ClientClass::kPriority)) {
    throw WireFormatError(WireError::kMalformed, "unknown client class");
  }
  hello.client_class = static_cast<ClientClass>(cls);
  return hello;
}

Hello expect_hello(const Message& message, PeerRole role) {
  if (message.type != MsgType::kHello) {
    throw WireFormatError(WireError::kMalformed, "expected hello first");
  }
  Hello hello = decode_hello(message.body);
  if (hello.role != role) {
    throw WireFormatError(
        WireError::kMalformed,
        "hello from peer role " +
            std::to_string(static_cast<int>(hello.role)) +
            ", this endpoint requires role " +
            std::to_string(static_cast<int>(role)));
  }
  return hello;
}

void encode_subscribe(const SubscribeFilter& filter,
                      std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kSubscribe);
  put_f64(out, filter.min_confidence);
  put_f64(out, filter.min_rate);
  put_f64(out, filter.max_rate);
  put_u8(out, filter.crc_valid_only ? 1 : 0);
  put_u8(out, filter.replay_recent ? 1 : 0);
  end_message(out, at);
}

SubscribeFilter decode_subscribe(std::span<const std::uint8_t> body) {
  Cursor c(body);
  SubscribeFilter filter;
  filter.min_confidence = c.get_f64();
  filter.min_rate = c.get_f64();
  filter.max_rate = c.get_f64();
  filter.crc_valid_only = (c.get_u8() & 1) != 0;
  filter.replay_recent = (c.get_u8() & 1) != 0;
  return filter;
}

void encode_ack(const Ack& ack, std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kAck);
  put_u8(out, ack.status);
  put_string(out, ack.text);
  end_message(out, at);
}

Ack decode_ack(std::span<const std::uint8_t> body) {
  Cursor c(body);
  Ack ack;
  ack.status = c.get_u8();
  ack.text = c.get_string();
  return ack;
}

void encode_frame(const runtime::FrameEvent& event,
                  std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kFrame);
  put_u64(out, event.stream_index);
  put_f64(out, event.stream_start);
  put_f64(out, event.rate);
  put_f64(out, event.confidence);
  put_u8(out, static_cast<std::uint8_t>(event.fallback_stage));
  std::uint8_t flags = 0;
  if (event.collided) flags |= 1;
  if (event.frame.crc_ok) flags |= 2;
  if (event.frame.anchor_ok) flags |= 4;
  put_u8(out, flags);
  put_u64(out, event.epoch_index);
  put_u64(out, event.window_index);
  put_u64(out, event.frame_index);
  put_u64(out, event.origin);
  put_u8(out, event.hops);
  put_packed_bits(out, event.frame.payload);
  end_message(out, at);
}

runtime::FrameEvent decode_frame(std::span<const std::uint8_t> body) {
  Cursor c(body);
  runtime::FrameEvent event;
  event.stream_index = static_cast<std::size_t>(c.get_u64());
  event.stream_start = c.get_f64();
  event.rate = c.get_f64();
  event.confidence = c.get_f64();
  const std::uint8_t stage = c.get_u8();
  if (stage >
      static_cast<std::uint8_t>(core::FallbackStage::kRelaxedDetection)) {
    throw WireFormatError(WireError::kMalformed, "unknown fallback stage");
  }
  event.fallback_stage = static_cast<core::FallbackStage>(stage);
  const std::uint8_t flags = c.get_u8();
  event.collided = (flags & 1) != 0;
  event.frame.crc_ok = (flags & 2) != 0;
  event.frame.anchor_ok = (flags & 4) != 0;
  event.epoch_index = c.get_u64();
  event.window_index = c.get_u64();
  event.frame_index = c.get_u64();
  event.origin = c.get_u64();
  event.hops = c.get_u8();
  event.frame.payload = c.get_packed_bits();
  return event;
}

void encode_stats(const WireStats& stats, std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kStats);
  put_u8(out, stats.health);
  put_u8(out, stats.stopped_early ? 1 : 0);
  put_f64(out, stats.wall_seconds);
  put_u64(out, stats.samples_in);
  put_u64(out, stats.windows_decoded);
  put_u64(out, stats.frames_published);
  put_u64(out, stats.streams);
  put_u64(out, stats.faults_total);
  put_f64(out, stats.mean_confidence);
  end_message(out, at);
}

WireStats decode_stats(std::span<const std::uint8_t> body) {
  Cursor c(body);
  WireStats stats;
  stats.health = c.get_u8();
  if (stats.health > static_cast<std::uint8_t>(runtime::HealthState::kFailed)) {
    throw WireFormatError(WireError::kMalformed, "unknown health state");
  }
  stats.stopped_early = (c.get_u8() & 1) != 0;
  stats.wall_seconds = c.get_f64();
  stats.samples_in = c.get_u64();
  stats.windows_decoded = c.get_u64();
  stats.frames_published = c.get_u64();
  stats.streams = c.get_u64();
  stats.faults_total = c.get_u64();
  stats.mean_confidence = c.get_f64();
  return stats;
}

void encode_iq_chunk(const runtime::SampleChunk& chunk, bool f64,
                     std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kIqChunk);
  put_u64(out, chunk.first_sample);
  put_u8(out, f64 ? 1 : 0);
  put_u32(out, static_cast<std::uint32_t>(chunk.samples.size()));
  for (const Complex& s : chunk.samples) {
    if (f64) {
      put_f64(out, s.real());
      put_f64(out, s.imag());
    } else {
      put_f32(out, static_cast<float>(s.real()));
      put_f32(out, static_cast<float>(s.imag()));
    }
  }
  end_message(out, at);
}

runtime::SampleChunk decode_iq_chunk(std::span<const std::uint8_t> body) {
  Cursor c(body);
  runtime::SampleChunk chunk;
  chunk.first_sample = c.get_u64();
  const std::uint8_t format = c.get_u8();
  if (format > 1) {
    throw WireFormatError(WireError::kMalformed, "unknown IQ sample format");
  }
  const std::uint32_t count = c.get_u32();
  // Validate the declared count against what the body actually holds
  // before allocating — a garbled count cannot trigger a huge allocation.
  const std::size_t per_sample = format == 1 ? 16 : 8;
  if (c.remaining() != count * per_sample) {
    throw WireFormatError(WireError::kTruncated,
                          "IQ chunk body does not match declared count");
  }
  chunk.samples.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (format == 1) {
      const double re = c.get_f64();
      const double im = c.get_f64();
      chunk.samples.emplace_back(re, im);
    } else {
      const float re = c.get_f32();
      const float im = c.get_f32();
      chunk.samples.emplace_back(re, im);
    }
  }
  return chunk;
}

void encode_iq_end(const IqEnd& end, std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kIqEnd);
  put_u64(out, end.total_samples);
  put_u8(out, end.truncated ? 1 : 0);
  end_message(out, at);
}

IqEnd decode_iq_end(std::span<const std::uint8_t> body) {
  Cursor c(body);
  IqEnd end;
  end.total_samples = c.get_u64();
  end.truncated = (c.get_u8() & 1) != 0;
  return end;
}

void encode_bye(const Bye& bye, std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kBye);
  put_u8(out, static_cast<std::uint8_t>(bye.reason));
  put_string(out, bye.text);
  put_f64(out, bye.retry_after);
  end_message(out, at);
}

Bye decode_bye(std::span<const std::uint8_t> body) {
  Cursor c(body);
  Bye bye;
  const std::uint8_t reason = c.get_u8();
  if (reason > static_cast<std::uint8_t>(ByeReason::kAdmissionDenied)) {
    throw WireFormatError(WireError::kMalformed, "unknown bye reason");
  }
  bye.reason = static_cast<ByeReason>(reason);
  bye.text = c.get_string();
  bye.retry_after = c.get_f64();
  return bye;
}

void encode_relay_hello(const RelayHello& hello,
                        std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kRelayHello);
  put_u64(out, hello.gateway_id);
  put_u8(out, hello.hop_limit);
  put_string(out, hello.name);
  end_message(out, at);
}

RelayHello decode_relay_hello(std::span<const std::uint8_t> body) {
  Cursor c(body);
  RelayHello hello;
  hello.gateway_id = c.get_u64();
  if (hello.gateway_id == 0) {
    throw WireFormatError(WireError::kMalformed,
                          "relay hello with gateway id 0");
  }
  hello.hop_limit = c.get_u8();
  hello.name = c.get_string();
  return hello;
}

void encode_control_get(std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kControlGet);
  end_message(out, at);
}

void encode_control_set(const ControlSet& set,
                        std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kControlSet);
  std::uint8_t mask = 0;
  if (set.set_frozen) mask |= 1u << 0;
  if (set.frozen) mask |= 1u << 1;
  if (set.set_target_goodput) mask |= 1u << 2;
  if (set.set_min_confidence) mask |= 1u << 3;
  if (set.set_max_rate) mask |= 1u << 4;
  put_u8(out, mask);
  put_f64(out, set.target_goodput);
  put_f64(out, set.min_confidence);
  put_f64(out, set.max_rate);
  end_message(out, at);
}

ControlSet decode_control_set(std::span<const std::uint8_t> body) {
  Cursor c(body);
  ControlSet set;
  const std::uint8_t mask = c.get_u8();
  if (mask >= (1u << 5)) {
    throw WireFormatError(WireError::kMalformed,
                          "control set with unknown knob bits");
  }
  set.set_frozen = (mask & (1u << 0)) != 0;
  set.frozen = (mask & (1u << 1)) != 0;
  set.set_target_goodput = (mask & (1u << 2)) != 0;
  set.set_min_confidence = (mask & (1u << 3)) != 0;
  set.set_max_rate = (mask & (1u << 4)) != 0;
  set.target_goodput = c.get_f64();
  set.min_confidence = c.get_f64();
  set.max_rate = c.get_f64();
  return set;
}

void encode_control_plan(const ControlPlanMsg& plan,
                         std::vector<std::uint8_t>& out) {
  const std::size_t at = begin_message(out, MsgType::kControlPlan);
  put_u8(out, static_cast<std::uint8_t>((plan.enabled ? 1 : 0) |
                                        (plan.frozen ? 2 : 0)));
  put_f64(out, plan.target_goodput);
  put_f64(out, plan.min_confidence);
  put_f64(out, plan.max_rate);
  put_u64(out, plan.epoch);
  put_string(out, plan.policy);
  put_f64(out, plan.predicted_goodput);
  put_f64(out, plan.collision_pressure);
  put_u32(out, static_cast<std::uint32_t>(plan.assignments.size()));
  for (const ControlPlanMsg::Assignment& a : plan.assignments) {
    put_u64(out, a.tag);
    put_f64(out, a.rate);
    put_f64(out, a.goodput);
  }
  end_message(out, at);
}

ControlPlanMsg decode_control_plan(std::span<const std::uint8_t> body) {
  Cursor c(body);
  ControlPlanMsg plan;
  const std::uint8_t flags = c.get_u8();
  if (flags >= 4) {
    throw WireFormatError(WireError::kMalformed,
                          "control plan with unknown flag bits");
  }
  plan.enabled = (flags & 1) != 0;
  plan.frozen = (flags & 2) != 0;
  plan.target_goodput = c.get_f64();
  plan.min_confidence = c.get_f64();
  plan.max_rate = c.get_f64();
  plan.epoch = c.get_u64();
  plan.policy = c.get_string();
  plan.predicted_goodput = c.get_f64();
  plan.collision_pressure = c.get_f64();
  const std::uint32_t count = c.get_u32();
  // Each assignment is 24 bytes; validate the count against the body so a
  // garbled prefix cannot trigger a huge allocation.
  if (count > c.remaining() / 24) {
    throw WireFormatError(WireError::kMalformed,
                          "control plan assignment count exceeds body");
  }
  plan.assignments.resize(count);
  for (ControlPlanMsg::Assignment& a : plan.assignments) {
    a.tag = c.get_u64();
    a.rate = c.get_f64();
    a.goodput = c.get_f64();
  }
  return plan;
}

void MessageReader::feed(const std::uint8_t* data, std::size_t n) {
  // Reclaim consumed prefix before growing; keeps the buffer bounded by
  // one partial message plus whatever feed() just delivered.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > kMaxMessageBody) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

std::optional<Message> MessageReader::next() {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 5) return std::nullopt;
  const std::uint8_t* head = buffer_.data() + consumed_;
  const std::uint8_t type = head[0];
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kControlPlan)) {
    throw WireFormatError(WireError::kUnknownType,
                          "unknown message type " + std::to_string(type));
  }
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(head[1 + i]) << (8 * i);
  }
  if (length > kMaxMessageBody) {
    throw WireFormatError(WireError::kOversized,
                          "message body of " + std::to_string(length) +
                              " bytes exceeds the " +
                              std::to_string(kMaxMessageBody) + " bound");
  }
  if (available < 5 + static_cast<std::size_t>(length)) return std::nullopt;
  Message message;
  message.type = static_cast<MsgType>(type);
  message.body.assign(head + 5, head + 5 + length);
  consumed_ += 5 + length;
  return message;
}

}  // namespace lfbs::net
