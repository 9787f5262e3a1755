#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "core/windowed_decoder.h"
#include "runtime/frame_bus.h"
#include "runtime/ring_buffer.h"
#include "runtime/sample_source.h"
#include "runtime/stats.h"
#include "runtime/supervisor.h"
#include "signal/sample_buffer.h"

namespace lfbs::runtime {

/// The streaming decode driver — the one place a chunked sample stream is
/// cut into windows, decoded, stitched and published:
///
///   SampleSource → ingest thread → [chunk ring] → core::WindowSlicer
///     → WindowExecutor → [reorder by window index] → WindowStitcher
///     → publish_frames → FrameBus, RuntimeStats
///
/// An ingest thread reads the source through the Supervisor (transient
/// errors retried with backoff, non-finite samples scrubbed, the stop flag
/// honoured) and feeds a bounded chunk ring that blocks when full, so the
/// pipeline never drops what the source delivered. The thread that
/// called run() — the publishing thread — cuts the stream on the window
/// lattice and hands each job to a WindowExecutor, which decodes it with
/// core::WindowedDecoder::decode_job wherever it likes and delivers the
/// result in any order. The caller picks the executor by the object it
/// passes: run(source) uses an in-process pool of `workers` threads;
/// net::federation::ShardPool decodes on remote ShardWorker processes.
/// The publishing thread folds results back in window order as they
/// arrive and publishes the frames once the last window is in.
///
/// Bit-identity: window decoders draw from Rng streams keyed by window
/// index and the stitch runs in window order, so on a fault-free run the
/// output equals core::WindowedDecoder::decode on the same samples, for
/// every executor and worker count. One exception: when the stitched
/// windows hold no CRC-valid frame, the serial decoder re-decodes the
/// whole capture with the fallback ladder; the driver does not keep the
/// capture, so it returns the stitched result as is.
///
/// Failure: decode faults are contained — a throwing window decode is
/// zero-filled, a lost shard worker's windows move to the survivors, a
/// throwing subscriber is isolated — and the run's health plus per-fault
/// counters come back in RuntimeStats. Only an executor that cannot go on
/// (a shard pool that fails to connect or loses every worker) fails the
/// run: run() then joins every pipeline thread, publishes nothing, and
/// rethrows its error.
struct RuntimeConfig {
  core::WindowedDecoderConfig windowed{};
  /// Window decode threads. 0 is clamped to 1.
  std::size_t workers = 4;
  /// Chunk ring capacity, in chunks. When the decode side falls behind,
  /// the ring blocks the ingest thread, which stops reading the source.
  std::size_t ring_capacity = 64;
  /// Optional external stop flag (e.g. a signal handler's atomic), the one
  /// way to end a run early. When it becomes true the ingest thread stops
  /// reading the source, also between the retries of a failing read; every
  /// chunk already ingested still decodes, stitches, and publishes before
  /// run() returns with stats.stopped_early set. The flag is only read.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Epoch stamped on every published FrameEvent (FrameIdentity's first
  /// coordinate). A gateway decoding successive captures bumps this so
  /// frames from different runs stay distinguishable across the
  /// federation's dedup.
  std::uint64_t epoch_index = 0;
  /// Fault-drill hook for the in-process worker pool, called with the
  /// window index before each window decode: a throwing hook exercises
  /// worker exception containment exactly like a throwing decoder would,
  /// and a sleeping one a slow decode. Unset in production.
  std::function<void(std::size_t window_index)> decode_fault_hook{};
};

struct RuntimeResult {
  core::DecodeResult decode;
  RuntimeStats stats;
};

/// What a WindowExecutor needs from the run it serves. Valid from begin()
/// until finish() or cancel() returns.
struct WindowRun {
  const core::WindowedDecoder& decoder;
  SampleRate sample_rate;
  Supervisor& supervisor;
  /// Per-window latency, summarised into RuntimeStats. Thread-safe.
  LatencyRecorder& latency;
  /// Hands a window's result to the stitcher. Thread-safe; any order.
  std::function<void(std::size_t index, core::DecodeResult)> deliver;
};

/// Where a run's window jobs are decoded. DecodeRuntime::run calls, from
/// its publishing thread, begin() once, submit() per job in index order,
/// then finish() — or cancel() after a failure.
class WindowExecutor {
 public:
  WindowExecutor() = default;
  WindowExecutor(const WindowExecutor&) = delete;
  WindowExecutor& operator=(const WindowExecutor&) = delete;
  virtual ~WindowExecutor() = default;

  /// Opens a run before any sample is read. Throws when the executor
  /// cannot start, which fails the run.
  virtual void begin(const WindowRun& run) = 0;
  /// Decodes `job` now or later and delivers its result exactly once. May
  /// block (backpressure) or throw (the run fails).
  virtual void submit(core::WindowJob job) = 0;
  /// No more jobs: returns once every submitted job is delivered.
  virtual void finish() = 0;
  /// Abandons the run: releases what begin() acquired; outstanding jobs
  /// need not be delivered.
  virtual void cancel() noexcept = 0;
};

class DecodeRuntime {
 public:
  explicit DecodeRuntime(RuntimeConfig config);

  const RuntimeConfig& config() const { return config_; }

  /// Subscribers registered here see every decoded frame of subsequent
  /// run() calls; handlers fire on the thread that called run().
  FrameBus& bus() { return bus_; }

  /// Blocking: drains `source` to end-of-stream through the pipeline,
  /// decoding on `config().workers` threads, and returns the stitched
  /// result. One run at a time per runtime.
  RuntimeResult run(SampleSource& source);

  /// As run(source), decoding on `executor`.
  RuntimeResult run(SampleSource& source, WindowExecutor& executor);

  /// Convenience: streams an in-memory capture through the pipeline.
  RuntimeResult decode(const signal::SampleBuffer& buffer,
                       std::size_t chunk_samples = 1 << 16);

 private:
  RuntimeConfig config_;
  FrameBus bus_;
};

}  // namespace lfbs::runtime
