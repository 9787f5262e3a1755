#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"

namespace lfbs::net {

/// One blocking LFBW1 endpoint: a TcpConnection plus the MessageReader that
/// de-frames it. The frame subscriber, the control probe, both ends of IQ
/// ingest, and both ends of a shard session run their socket I/O through
/// it. FrameServer's event loop (non-blocking, many clients) and
/// ShardPool's send_all (drains every link while one is full) are
/// different algorithms and keep their own loops.
class Peer {
 public:
  /// `read_size` bounds each read. The chaos engine draws its faults per
  /// read call and caps a truncated read within the size asked for, so a
  /// connect-side endpoint keeps the read size its drills replay against.
  explicit Peer(TcpConnection conn, std::size_t read_size = 64 * 1024);

  /// Writes every byte, polling up to 100 ms for room between partial
  /// writes. Throws SocketError when the connection is dead. Returns with
  /// bytes unsent once `*stop` is set.
  void send(const std::vector<std::uint8_t>& bytes,
            const std::atomic<bool>* stop = nullptr);

  /// The next message: one already buffered, else one poll of up to
  /// `timeout_ms` and at most one read. A zero timeout skips the poll: the
  /// read itself reports would-block, and the chaos engine draws on it as
  /// on any read. nullopt when no message completed; closed() then tells
  /// EOF from a quiet or partial read. Throws WireFormatError on a
  /// malformed stream.
  std::optional<Message> receive(int timeout_ms);

  /// The peer hung up (EOF or reset). receive() does no more I/O.
  bool closed() const { return closed_; }

  /// Bytes of a message that has begun arriving but is not yet complete.
  std::size_t buffered() const { return reader_.buffered(); }

  /// The raw connection, for a caller that interleaves its own writes with
  /// receive() (ShardPool's send_all) or closes the link early.
  TcpConnection& connection() { return conn_; }

 private:
  TcpConnection conn_;
  MessageReader reader_;
  std::vector<std::uint8_t> read_buffer_;
  bool closed_ = false;
};

}  // namespace lfbs::net
