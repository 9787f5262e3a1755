#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "net/socket.h"

namespace lfbs::net::federation {

struct ShardWorkerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; ShardWorker::port() reports the pick.
  std::uint16_t port = 0;
  std::string name = "lfbs-shard-worker";
};

/// One decode worker process of the sharded-decode path (`lfbs_gateway
/// --shard-worker`): accepts a single coordinator connection, then loops
///
///   kShardAssign → kIqChunk × n (the window's samples, f64) → decode →
///   kShardFrame back
///
/// until the coordinator's kIqEnd, and closes with Bye(kEndOfStream).
///
/// The decode is exactly the in-process worker pool's:
/// WindowedDecoder::decode_job under the assign's parameters (the seed is
/// mixed with the window index, so which worker decodes a window cannot
/// change the bits). Workers are stateless between assignments — kill one
/// mid-run and a fresh one can take its place with no handoff.
class ShardWorker {
 public:
  /// Binds and listens immediately (so the port is known before serve()).
  explicit ShardWorker(ShardWorkerConfig config);

  std::uint16_t port() const { return listener_.port(); }

  /// Blocks: waits for one coordinator, serves its session to completion,
  /// returns the number of windows decoded. Throws SocketError /
  /// WireFormatError on a misbehaving peer.
  std::size_t serve();

  /// Makes serve() return at its next poll tick.
  void stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  ShardWorkerConfig config_;
  TcpListener listener_;
  std::atomic<bool> stop_{false};
};

}  // namespace lfbs::net::federation
