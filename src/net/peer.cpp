#include "net/peer.h"

namespace lfbs::net {

Peer::Peer(TcpConnection conn, std::size_t read_size)
    : conn_(std::move(conn)), read_buffer_(read_size) {}

void Peer::send(const std::vector<std::uint8_t>& bytes,
                const std::atomic<bool>* stop) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
    const std::ptrdiff_t n =
        conn_.write_some(bytes.data() + sent, bytes.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n == -1) {
      std::vector<PollItem> items{{conn_.fd(), false, true}};
      poll_fds(items, 100);
    } else {
      throw SocketError("peer closed during write");
    }
  }
}

std::optional<Message> Peer::receive(int timeout_ms) {
  if (auto message = reader_.next()) return message;
  if (closed_) return std::nullopt;
  if (timeout_ms > 0) {
    std::vector<PollItem> items{{conn_.fd(), true, false}};
    poll_fds(items, timeout_ms);
    if (!items[0].readable && !items[0].error) return std::nullopt;
  }
  const std::ptrdiff_t n =
      conn_.read_some(read_buffer_.data(), read_buffer_.size());
  if (n == 0) {
    closed_ = true;
    return std::nullopt;
  }
  if (n < 0) return std::nullopt;
  reader_.feed(read_buffer_.data(), static_cast<std::size_t>(n));
  return reader_.next();
}

}  // namespace lfbs::net
