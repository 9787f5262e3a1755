#include "net/iq_ingest.h"

#include <algorithm>
#include <chrono>

#include "obs/events.h"
#include "obs/metrics.h"

namespace lfbs::net {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_after(Seconds timeout) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(timeout));
}

/// Milliseconds left before `deadline`, as a poll timeout (0 once past).
int ms_until(Clock::time_point deadline) {
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
  return static_cast<int>(std::max<std::int64_t>(0, left.count()));
}

/// The longest a wait on the pusher runs before it looks at the stop flag
/// again.
constexpr int kStopPollMs = 50;

}  // namespace

RemoteIqSource::RemoteIqSource(IqIngestConfig config)
    : config_(std::move(config)),
      listener_(config_.bind_address, config_.port) {}

void RemoteIqSource::fail_protocol(const std::string& what) {
  peer_.reset();
  throw runtime::SourceError("remote iq: " + what, /*transient=*/false);
}

bool RemoteIqSource::stop_requested() const {
  return config_.stop_flag != nullptr &&
         config_.stop_flag->load(std::memory_order_relaxed);
}

std::optional<SampleRate> RemoteIqSource::wait_for_pusher() {
  const auto accept_deadline = deadline_after(config_.accept_timeout);
  std::vector<PollItem> items{{listener_.fd(), true, false}};
  FdHandle fd;
  for (;;) {
    if (stop_requested()) return std::nullopt;
    poll_fds(items, std::min(ms_until(accept_deadline), kStopPollMs));
    fd = listener_.accept();
    if (fd.valid()) break;
    if (Clock::now() >= accept_deadline) {
      throw runtime::SourceError("remote iq: no pusher connected within " +
                                     std::to_string(config_.accept_timeout) +
                                     "s",
                                 /*transient=*/false);
    }
  }
  peer_.emplace(TcpConnection(std::move(fd)));
  obs::metrics().counter("net.connects").add();

  // Read until the hello arrives; anything else first is a protocol error.
  const auto deadline = deadline_after(config_.accept_timeout);
  for (;;) {
    if (stop_requested()) {
      peer_.reset();
      return std::nullopt;
    }
    try {
      const int wait_ms = std::min(ms_until(deadline), kStopPollMs);
      if (const auto message = peer_->receive(wait_ms)) {
        const Hello hello = expect_hello(*message, PeerRole::kIqPusher);
        if (!(hello.sample_rate > 0.0)) {
          fail_protocol("pusher declared no sample rate");
        }
        rate_ = hello.sample_rate;
        std::vector<std::uint8_t> ack;
        encode_ack({0, "lfbs-ingest"}, ack);
        peer_->send(ack);
        return rate_;
      }
    } catch (const WireFormatError& error) {
      fail_protocol(error.what());
    }
    if (peer_->closed()) fail_protocol("pusher disconnected during handshake");
    if (Clock::now() >= deadline) fail_protocol("handshake timed out");
  }
}

std::optional<runtime::SampleChunk> RemoteIqSource::next_chunk() {
  if (ended_) return std::nullopt;
  if (!peer_) {
    throw runtime::SourceError("remote iq: no pusher (wait_for_pusher not "
                               "run or handshake failed)",
                               /*transient=*/false);
  }
  const auto deadline = deadline_after(config_.read_timeout);
  for (;;) {
    try {
      const int wait_ms = std::min(ms_until(deadline), kStopPollMs);
      if (const auto message = peer_->receive(wait_ms)) {
        switch (message->type) {
          case MsgType::kIqChunk: {
            runtime::SampleChunk chunk = decode_iq_chunk(message->body);
            // Positions come from outside: a forward jump would have the
            // runtime zero-fill and decode the whole gap.
            if (chunk.first_sample != total_samples_) {
              fail_protocol("chunk at sample " +
                            std::to_string(chunk.first_sample) +
                            ", expected " + std::to_string(total_samples_));
            }
            total_samples_ += chunk.samples.size();
            obs::metrics()
                .counter("net.iq_samples_in")
                .add(chunk.samples.size());
            return chunk;
          }
          case MsgType::kIqEnd: {
            const IqEnd end = decode_iq_end(message->body);
            ended_ = true;
            truncated_ =
                end.truncated || (end.total_samples != 0 &&
                                  end.total_samples != total_samples_);
            peer_.reset();
            return std::nullopt;
          }
          default:
            fail_protocol("unexpected message from pusher");
        }
      }
    } catch (const WireFormatError& error) {
      fail_protocol(error.what());
    }
    if (stop_requested()) return std::nullopt;
    if (peer_->closed()) {
      // EOF with no IqEnd: the capture process died. Retrying cannot help.
      peer_.reset();
      throw runtime::SourceError(
          "remote iq: pusher disconnected mid-stream after " +
              std::to_string(total_samples_) + " samples",
          /*transient=*/false);
    }
    if (Clock::now() >= deadline) {
      // Stalled, not dead: let the supervisor retry with backoff.
      throw runtime::SourceError("remote iq: read stalled for " +
                                     std::to_string(config_.read_timeout) +
                                     "s",
                                 /*transient=*/true);
    }
  }
}

std::uint64_t push_iq(const std::string& host, std::uint16_t port,
                      runtime::SampleSource& source, bool f64,
                      Seconds connect_timeout, const std::string& name) {
  Peer peer(TcpConnection::connect(host, port, connect_timeout), 4096);

  Hello hello;
  hello.role = PeerRole::kIqPusher;
  hello.sample_rate = source.sample_rate();
  hello.name = name;
  std::vector<std::uint8_t> bytes;
  encode_hello(hello, bytes);
  peer.send(bytes);

  // Wait for the ingest side's ack before streaming.
  const auto deadline = deadline_after(connect_timeout);
  for (bool acked = false; !acked;) {
    const auto message = peer.receive(ms_until(deadline));
    if (!message) {
      if (peer.closed()) {
        throw SocketError("iq push: receiver closed during handshake");
      }
      if (Clock::now() >= deadline) {
        throw SocketError("iq push: handshake timed out");
      }
    } else if (message->type == MsgType::kAck) {
      const Ack ack = decode_ack(message->body);
      if (ack.status != 0) {
        throw SocketError("iq push: receiver refused: " + ack.text);
      }
      acked = true;
    } else if (message->type == MsgType::kBye) {
      const Bye bye = decode_bye(message->body);
      throw SocketError(std::string("iq push: receiver said bye: ") +
                        to_string(bye.reason));
    }
  }

  std::uint64_t total = 0;
  try {
    while (auto chunk = source.next_chunk()) {
      bytes.clear();
      encode_iq_chunk(*chunk, f64, bytes);
      peer.send(bytes);
      total += chunk->samples.size();
    }
    bytes.clear();
    encode_iq_end({total, false}, bytes);
    peer.send(bytes);
  } catch (const SocketError& error) {
    // Past the ack the receiver owns part of the stream; surface the death
    // as the typed mid-stream abort so callers can tell it from a failed
    // dial (and count it — dashboards watch this during soaks).
    obs::metrics().counter("net.push_aborts").add();
    if (obs::EventLog* log = obs::event_log()) {
      log->emit("net", {obs::Field::str("action", "push-abort"),
                        obs::Field::integer(
                            "samples", static_cast<std::int64_t>(total))});
    }
    throw PushAborted(std::string("iq push aborted mid-stream after ") +
                      std::to_string(total) + " samples: " + error.what());
  }
  obs::metrics().counter("net.iq_samples_out").add(total);
  return total;
}

}  // namespace lfbs::net
