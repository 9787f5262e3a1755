#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/windowed_decoder.h"
#include "net/socket.h"
#include "runtime/runtime.h"

namespace lfbs::net::federation {

struct ShardWorkerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// `windowed` and `epoch_index` configure ShardedDecoder's runtime; a
/// ShardPool handed to a DecodeRuntime directly takes both from the
/// runtime's own config.
struct ShardConfig {
  core::WindowedDecoderConfig windowed{};
  std::vector<ShardWorkerEndpoint> workers;
  std::string name = "lfbs-shard-coordinator";
  Seconds connect_timeout = 5.0;
  /// Epoch stamped on published frames, like RuntimeConfig::epoch_index.
  std::uint64_t epoch_index = 0;
  /// Per-link stall deadline: a worker whose *oldest* outstanding window
  /// has been in flight this long is declared dead and failed over. Also
  /// bounds the post-run wait for a worker's Bye. Generous default — a
  /// window decode is milliseconds; 30 s means genuinely wedged.
  Seconds worker_deadline = 30.0;
};

/// The remote WindowExecutor: decodes a DecodeRuntime run's window jobs on
/// a pool of ShardWorker processes over LFBW1. Each job goes round-robin
/// to a worker as kShardAssign plus its samples as f64 kIqChunks; the
/// worker decodes it with WindowedDecoder::decode_job and answers with
/// kShardFrame, which the pool delivers to the runtime's stitcher. Because
/// window seeds are index-mixed and samples cross the wire as f64 bit
/// patterns, the run is bit-identical to the in-process worker threads —
/// and to the serial core::WindowedDecoder — with frames included; the
/// tests enforce it across real processes.
///
/// Failure stance: strict about *results*, resilient about *workers*. A
/// worker that dies, stalls past worker_deadline, or speaks garbage
/// mid-run is dropped and its outstanding windows are re-dispatched to the
/// survivors (failover); the run still completes bit-identically — window
/// seeds are index-mixed, so *which* worker decodes a window cannot change
/// its bits — and its FaultCounters record workers_lost /
/// windows_reassigned. The run fails with SocketError when the pool fails
/// its initial connect (a configuration error, not a fault to ride out) or
/// when zero workers survive.
///
/// Reusable across runs; one run at a time.
class ShardPool final : public runtime::WindowExecutor {
 public:
  explicit ShardPool(ShardConfig config);
  ~ShardPool() override;

  void begin(const runtime::WindowRun& run) override;
  void submit(core::WindowJob job) override;
  void finish() override;
  void cancel() noexcept override;

 private:
  struct Session;

  ShardConfig config_;
  std::unique_ptr<Session> session_;
};

/// Cross-process sharded decode: the DecodeRuntime driver over a
/// ShardPool, configured from one ShardConfig. run() returns — and
/// publishes on bus() — what DecodeRuntime::run does.
class ShardedDecoder {
 public:
  using Result = runtime::RuntimeResult;

  explicit ShardedDecoder(ShardConfig config);

  /// Frames publish here, on the thread that called run().
  runtime::FrameBus& bus() { return runtime_.bus(); }

  /// Blocking: drains `source`, shards, merges, publishes. Throws
  /// SocketError / WireFormatError / CheckError when the pool misbehaves.
  Result run(runtime::SampleSource& source);

 private:
  runtime::DecodeRuntime runtime_;
  ShardPool pool_;
};

}  // namespace lfbs::net::federation
