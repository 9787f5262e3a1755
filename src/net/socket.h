#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.h"

namespace lfbs::net {

/// Thrown on socket-layer failures (bind, connect, setsockopt, poll). I/O
/// on an established connection never throws from here — read_some /
/// write_some report EOF and would-block through their return values so
/// the event loops can treat peer failures as data, not exceptions.
class SocketError : public std::runtime_error {
 public:
  explicit SocketError(const std::string& what) : std::runtime_error(what) {}
};

/// RAII file descriptor. Move-only; closes on destruction.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) : fd_(fd) {}
  ~FdHandle() { reset(); }

  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;
  FdHandle(FdHandle&& other) noexcept : fd_(other.release()) {}
  FdHandle& operator=(FdHandle&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

/// Listening TCP socket (SO_REUSEADDR, non-blocking). Port 0 binds an
/// ephemeral port; port() reports what the kernel picked, which is how the
/// tests and the gateway's --port-file run without port coordination.
class TcpListener {
 public:
  /// `backlog` sizes the kernel's pending-connection queue. The default
  /// suits a handful of steady peers; the frame server raises it so a
  /// burst of dials reaches its typed deny path instead of timing out in
  /// SYN retries.
  TcpListener(const std::string& bind_address, std::uint16_t port,
              int backlog = 16);

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_.get(); }

  /// Non-blocking accept: invalid handle when no connection is pending.
  FdHandle accept();

  /// Stops listening for good: the kernel backlog is gone, so concurrent
  /// dials fail fast (ECONNREFUSED) instead of completing a TCP handshake
  /// no accept() will ever service. port() keeps reporting the old port.
  void close() { fd_.reset(); }

 private:
  FdHandle fd_;
  std::uint16_t port_ = 0;
};

/// One established, non-blocking TCP connection.
class TcpConnection {
 public:
  explicit TcpConnection(FdHandle fd);

  /// Blocking connect with timeout. Throws SocketError on refusal,
  /// resolution failure, or timeout.
  static TcpConnection connect(const std::string& host, std::uint16_t port,
                               Seconds timeout);

  int fd() const { return fd_.get(); }
  bool valid() const { return fd_.valid(); }

  /// Returns bytes read; 0 on EOF; -1 when the read would block.
  std::ptrdiff_t read_some(std::uint8_t* buf, std::size_t n);
  /// Returns bytes written (possibly 0); -1 when the write would block.
  std::ptrdiff_t write_some(const std::uint8_t* buf, std::size_t n);

  /// Caps the kernel send buffer — the tests use a tiny buffer to force
  /// the slow-consumer path deterministically.
  void set_send_buffer(std::size_t bytes);

  void close() { fd_.reset(); }

 private:
  FdHandle fd_;
};

/// Self-pipe used to wake a poll loop from another thread (the stitcher
/// publishing a frame, a caller requesting shutdown). wake() is safe from
/// any thread and never blocks.
class WakePipe {
 public:
  WakePipe();

  int read_fd() const { return read_.get(); }
  void wake();
  /// Drains pending wake bytes (call after poll reports readable).
  void drain();

 private:
  FdHandle read_;
  FdHandle write_;
};

/// One fd's poll registration / result, mirroring struct pollfd without
/// leaking <poll.h> into every header.
struct PollItem {
  int fd = -1;
  bool want_read = false;
  bool want_write = false;
  bool readable = false;  ///< out: data (or EOF/error) pending
  bool writable = false;  ///< out: send buffer has room
  bool error = false;     ///< out: POLLERR/POLLHUP/POLLNVAL
};

/// poll(2) over `items` with a millisecond timeout; fills the out flags.
/// Returns the number of ready items (0 on timeout). EINTR is retried.
int poll_fds(std::vector<PollItem>& items, int timeout_ms);

}  // namespace lfbs::net
