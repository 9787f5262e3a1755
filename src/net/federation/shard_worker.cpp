#include "net/federation/shard_worker.h"

#include <optional>
#include <vector>

#include "common/check.h"
#include "core/windowed_decoder.h"
#include "net/federation/shard_wire.h"
#include "net/peer.h"
#include "net/wire.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "signal/sample_buffer.h"

namespace lfbs::net::federation {

namespace {

core::WindowedDecoderConfig config_from_assign(const ShardAssign& assign) {
  core::WindowedDecoderConfig wc;
  wc.window = assign.window_seconds;
  wc.decoder.seed = assign.seed;
  wc.decoder.frame.payload_bits = assign.payload_bits;
  wc.decoder.frame.crc = static_cast<protocol::CrcKind>(assign.crc_kind);
  return wc;
}

}  // namespace

ShardWorker::ShardWorker(ShardWorkerConfig config)
    : config_(std::move(config)),
      listener_(config_.bind_address, config_.port) {}

std::size_t ShardWorker::serve() {
  static obs::Counter& windows_counter =
      obs::metrics().counter("federation.worker_windows");

  // Accept exactly one coordinator.
  FdHandle fd;
  while (!stop_.load(std::memory_order_relaxed)) {
    fd = listener_.accept();
    if (fd.valid()) break;
    std::vector<PollItem> items{{listener_.fd(), true, false}};
    poll_fds(items, 100);
  }
  if (!fd.valid()) return 0;
  // Worker → coordinator messages are small (one window's streams), so a
  // blocking send cannot deadlock against the coordinator's much larger IQ
  // sends — the coordinator drains reads while it writes.
  Peer peer{TcpConnection(std::move(fd))};
  bool greeted = false;
  std::size_t windows_decoded = 0;

  // In-flight assignment: decode fires once `received` reaches the
  // assign's declared sample count.
  std::optional<ShardAssign> pending;
  std::vector<Complex> samples;
  std::uint64_t received = 0;

  const auto decode_and_reply = [&] {
    const ShardAssign assign = *pending;
    pending.reset();
    const core::WindowedDecoderConfig wc = config_from_assign(assign);
    signal::SampleBuffer buffer(assign.sample_rate, std::move(samples));
    samples = {};
    received = 0;
    ShardResult result;
    result.window_index = assign.window_index;
    result.short_capture = assign.short_capture;
    result.result = core::WindowedDecoder(wc).decode_job(
        {static_cast<std::size_t>(assign.window_index), assign.short_capture,
         std::move(buffer)});
    std::vector<std::uint8_t> reply;
    encode_shard_result(result, reply);
    peer.send(reply, &stop_);
    ++windows_decoded;
    windows_counter.add();
    if (obs::EventLog* log = obs::event_log()) {
      log->emit("federation",
                {obs::Field::str("action", "shard-decode"),
                 obs::Field::integer(
                     "window",
                     static_cast<std::int64_t>(assign.window_index)),
                 obs::Field::integer(
                     "streams",
                     static_cast<std::int64_t>(result.result.streams.size()))});
    }
  };

  bool done = false;
  while (!done && !stop_.load(std::memory_order_relaxed)) {
    const std::optional<Message> message = peer.receive(100);
    if (!message) {
      if (peer.closed()) break;  // coordinator gone; nothing to reply to
      continue;
    }
    if (!greeted) {
      expect_hello(*message, PeerRole::kShardCoordinator);
      greeted = true;
      std::vector<std::uint8_t> ack;
      encode_ack({0, config_.name}, ack);
      peer.send(ack, &stop_);
      continue;
    }
    switch (message->type) {
      case MsgType::kShardAssign: {
        if (pending.has_value()) {
          throw WireFormatError(WireError::kMalformed,
                                "assign while a window is in flight");
        }
        pending = decode_shard_assign(message->body);
        samples.clear();
        samples.reserve(static_cast<std::size_t>(pending->sample_count));
        received = 0;
        if (pending->sample_count == 0) decode_and_reply();
        break;
      }
      case MsgType::kIqChunk: {
        if (!pending.has_value()) {
          throw WireFormatError(WireError::kMalformed,
                                "IQ chunk without an assignment");
        }
        const runtime::SampleChunk chunk = decode_iq_chunk(message->body);
        // first_sample is the window-local offset; chunks arrive in
        // order, so it must equal what we have.
        if (chunk.first_sample != received) {
          throw WireFormatError(WireError::kMalformed,
                                "out-of-order shard IQ chunk");
        }
        samples.insert(samples.end(), chunk.samples.begin(),
                       chunk.samples.end());
        received += chunk.samples.size();
        if (received > pending->sample_count) {
          throw WireFormatError(WireError::kMalformed,
                                "more samples than the assign declared");
        }
        if (received == pending->sample_count) decode_and_reply();
        break;
      }
      case MsgType::kIqEnd: {
        // Session complete; acknowledge with a clean close.
        std::vector<std::uint8_t> bye;
        encode_bye({ByeReason::kEndOfStream, "shards complete"}, bye);
        peer.send(bye, &stop_);
        done = true;
        break;
      }
      case MsgType::kBye:
        done = true;
        break;
      default:
        throw WireFormatError(WireError::kMalformed,
                              "unexpected message from coordinator");
    }
  }
  return windows_decoded;
}

}  // namespace lfbs::net::federation
