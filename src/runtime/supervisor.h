#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "common/units.h"
#include "runtime/sample_source.h"
#include "runtime/stats.h"

namespace lfbs::runtime {

/// Source retry policy: a transient SourceError is retried up to
/// kMaxSourceRetries times per read, with an exponential backoff between
/// attempts (initial, doubling, capped). A lost gateway link is the same
/// kind of fault, so net::FrameClientConfig's reconnect defaults are these
/// constants too.
inline constexpr std::size_t kMaxSourceRetries = 3;
inline constexpr Seconds kRetryBackoffInitial = 1e-3;
inline constexpr Seconds kRetryBackoffMax = 50e-3;

/// Per-run supervision: retry-with-backoff around source reads, non-finite
/// sample scrubbing, contained-fault accounting, and the kHealthy →
/// kDegraded → kFailed state machine. All of it is inert on a fault-free
/// run: supervision never changes the decoded output unless a fault
/// actually fires. Stalls are not supervised here: a slow window decode
/// shows in RuntimeStats' window latency, and the stalls that can be acted
/// on are timed out where they happen (net::RemoteIqSource's read_timeout,
/// net::federation::ShardPool's worker_deadline). One Supervisor instance
/// per DecodeRuntime::run; all members are thread-safe.
class Supervisor {
 public:
  /// `stop_flag` (may be null) is RuntimeConfig::stop_flag; only read.
  explicit Supervisor(const std::atomic<bool>* stop_flag);

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Supervised read: retries transient SourceErrors with exponential
  /// backoff up to kMaxSourceRetries; a non-transient error or an
  /// exhausted budget fails the run (health → kFailed). Ends the stream
  /// with std::nullopt at end-of-stream, on such a failure, or on a stop
  /// request — the stop flag is checked before every attempt, retries
  /// included, so a stop never waits out a failing source's retries.
  std::optional<SampleChunk> next_chunk(SampleSource& source);

  /// True once the stream ended on a stop request: next_chunk saw the flag
  /// before a read, or the source ended its stream while it was set.
  bool stopped() const { return stopped_.load(); }

  /// Zeroes non-finite (NaN/Inf) samples in place and counts them, so a
  /// corrupt chunk degrades one window instead of poisoning cluster math.
  void scrub(SampleChunk& chunk);

  // Contained-fault records; each degrades health.
  void record_worker_exception();
  void record_subscriber_exceptions(std::size_t count);
  void record_data_loss();  ///< zero-filled gaps in the sample stream
  /// Streams below the runtime's confidence floor (or decoded only via a
  /// degraded fallback stage). Degrades health when count > 0: the output
  /// is complete but no longer full-trust.
  void record_low_confidence(std::size_t count);
  /// A shard worker lost mid-run with `outstanding` windows, which move to
  /// the survivors.
  void record_worker_lost(std::size_t outstanding);

  HealthState health() const {
    return static_cast<HealthState>(health_.load());
  }
  FaultCounters counters() const;

 private:
  void degrade();
  void fail();
  bool stop_requested() const;

  const std::atomic<bool>* stop_flag_;
  std::atomic<bool> stopped_{false};
  std::atomic<int> health_{static_cast<int>(HealthState::kHealthy)};

  std::atomic<std::size_t> source_transient_errors_{0};
  std::atomic<std::size_t> source_retries_{0};
  std::atomic<std::size_t> source_failures_{0};
  std::atomic<std::size_t> worker_exceptions_{0};
  std::atomic<std::size_t> subscriber_exceptions_{0};
  std::atomic<std::uint64_t> samples_scrubbed_{0};
  std::atomic<std::size_t> low_confidence_streams_{0};
  std::atomic<std::size_t> workers_lost_{0};
  std::atomic<std::size_t> windows_reassigned_{0};
};

}  // namespace lfbs::runtime
