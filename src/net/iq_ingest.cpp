#include "net/iq_ingest.h"

#include "obs/events.h"
#include "obs/metrics.h"

namespace lfbs::net {

namespace {

/// Blocking full write over a non-blocking connection. Throws SocketError
/// when the peer goes away mid-write.
void write_all(TcpConnection& conn, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const std::ptrdiff_t n =
        conn.write_some(bytes.data() + sent, bytes.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n == -1) {
      std::vector<PollItem> items{{conn.fd(), false, true}};
      poll_fds(items, 100);
    } else {
      throw SocketError("peer closed during write");
    }
  }
}

}  // namespace

RemoteIqSource::RemoteIqSource(IqIngestConfig config)
    : config_(std::move(config)),
      listener_(config_.bind_address, config_.port) {}

void RemoteIqSource::fail_protocol(const std::string& what) {
  conn_.close();
  throw runtime::SourceError("remote iq: " + what, /*transient=*/false);
}

SampleRate RemoteIqSource::wait_for_pusher() {
  const int timeout_ms = static_cast<int>(config_.accept_timeout * 1e3);
  std::vector<PollItem> items{{listener_.fd(), true, false}};
  poll_fds(items, timeout_ms);
  FdHandle fd = listener_.accept();
  if (!fd.valid()) {
    throw runtime::SourceError("remote iq: no pusher connected within " +
                                   std::to_string(config_.accept_timeout) +
                                   "s",
                               /*transient=*/false);
  }
  conn_ = TcpConnection(std::move(fd));
  obs::metrics().counter("net.connects").add();

  // Read until the hello arrives; anything else first is a protocol error.
  for (;;) {
    try {
      if (auto message = reader_.next()) {
        if (message->type != MsgType::kHello) {
          fail_protocol("expected hello first");
        }
        const Hello hello = decode_hello(message->body);
        if (hello.role != PeerRole::kIqPusher) {
          fail_protocol("ingest port requires an iq-pusher peer");
        }
        if (!(hello.sample_rate > 0.0)) {
          fail_protocol("pusher declared no sample rate");
        }
        rate_ = hello.sample_rate;
        std::vector<std::uint8_t> ack;
        encode_ack({0, "lfbs-ingest"}, ack);
        write_all(conn_, ack);
        return rate_;
      }
    } catch (const WireFormatError& error) {
      fail_protocol(error.what());
    }
    std::vector<PollItem> poll{{conn_.fd(), true, false}};
    poll_fds(poll, timeout_ms);
    if (!poll[0].readable && !poll[0].error) {
      fail_protocol("handshake timed out");
    }
    std::uint8_t buf[4096];
    const std::ptrdiff_t n = conn_.read_some(buf, sizeof(buf));
    if (n == 0) fail_protocol("pusher disconnected during handshake");
    if (n > 0) reader_.feed(buf, static_cast<std::size_t>(n));
  }
}

std::optional<runtime::SampleChunk> RemoteIqSource::next_chunk() {
  if (ended_) return std::nullopt;
  if (!conn_.valid()) {
    throw runtime::SourceError("remote iq: no pusher (wait_for_pusher not "
                               "run or handshake failed)",
                               /*transient=*/false);
  }
  for (;;) {
    try {
      while (auto message = reader_.next()) {
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
            conn_.close();
            return std::nullopt;
          }
          default:
            fail_protocol("unexpected message from pusher");
        }
      }
    } catch (const WireFormatError& error) {
      fail_protocol(error.what());
    }
    std::vector<PollItem> items{{conn_.fd(), true, false}};
    poll_fds(items, static_cast<int>(config_.read_timeout * 1e3));
    if (!items[0].readable && !items[0].error) {
      // Stalled, not dead: let the supervisor retry with backoff.
      throw runtime::SourceError("remote iq: read stalled for " +
                                     std::to_string(config_.read_timeout) +
                                     "s",
                                 /*transient=*/true);
    }
    std::uint8_t buf[1 << 16];
    const std::ptrdiff_t n = conn_.read_some(buf, sizeof(buf));
    if (n == 0) {
      // EOF with no IqEnd: the capture process died. Retrying cannot help.
      conn_.close();
      throw runtime::SourceError(
          "remote iq: pusher disconnected mid-stream after " +
              std::to_string(total_samples_) + " samples",
          /*transient=*/false);
    }
    if (n > 0) reader_.feed(buf, static_cast<std::size_t>(n));
  }
}

std::uint64_t push_iq(const std::string& host, std::uint16_t port,
                      runtime::SampleSource& source, bool f64,
                      Seconds connect_timeout, const std::string& name) {
  TcpConnection conn = TcpConnection::connect(host, port, connect_timeout);

  Hello hello;
  hello.role = PeerRole::kIqPusher;
  hello.sample_rate = source.sample_rate();
  hello.name = name;
  std::vector<std::uint8_t> bytes;
  encode_hello(hello, bytes);
  write_all(conn, bytes);

  // Wait for the ingest side's ack before streaming.
  MessageReader reader;
  bool acked = false;
  while (!acked) {
    std::vector<PollItem> items{{conn.fd(), true, false}};
    poll_fds(items, static_cast<int>(connect_timeout * 1e3));
    if (!items[0].readable && !items[0].error) {
      throw SocketError("iq push: handshake timed out");
    }
    std::uint8_t buf[4096];
    const std::ptrdiff_t n = conn.read_some(buf, sizeof(buf));
    if (n == 0) throw SocketError("iq push: receiver closed during handshake");
    if (n < 0) continue;
    reader.feed(buf, static_cast<std::size_t>(n));
    while (auto message = reader.next()) {
      if (message->type == MsgType::kAck) {
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
  }

  std::uint64_t total = 0;
  try {
    while (auto chunk = source.next_chunk()) {
      bytes.clear();
      encode_iq_chunk(*chunk, f64, bytes);
      write_all(conn, bytes);
      total += chunk->samples.size();
    }
    bytes.clear();
    encode_iq_end({total, false}, bytes);
    write_all(conn, bytes);
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
