#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/units.h"
#include "runtime/sample_source.h"
#include "runtime/stats.h"

namespace lfbs::runtime {

/// Supervision policy for one DecodeRuntime run. Defaults are production-
/// shaped: a handful of retries with millisecond backoff and watchdog
/// timeouts far above any healthy window decode. The stall watchdog and
/// non-finite sample scrubbing are always on. All of it is inert on a
/// fault-free run — supervision never changes the decoded output unless a
/// fault actually fires.
struct SupervisorConfig {
  /// Retry budget per next_chunk call for transient SourceErrors.
  std::size_t max_source_retries = 3;
  /// Exponential backoff between retries: initial, doubling, capped.
  Seconds retry_backoff_initial = 1e-3;
  Seconds retry_backoff_max = 50e-3;
  /// Watchdog: a source read or a window decode busy longer than its
  /// timeout is counted as a stall and degrades health. The watchdog only
  /// observes — it cannot interrupt a wedged read — but it turns a silent
  /// hang into a counted, visible fault.
  Seconds source_stall_timeout = 10.0;
  Seconds worker_stall_timeout = 10.0;
  /// Fault-drill hook, called with the window index before each window
  /// decode; a throwing hook exercises worker exception containment
  /// exactly like a throwing decoder would. Unset in production.
  std::function<void(std::size_t window_index)> decode_fault_hook;
};

/// Per-run supervision: retry-with-backoff around source reads, a stall
/// watchdog over the source and every worker, contained-fault accounting,
/// and the kHealthy → kDegraded → kFailed state machine. One Supervisor
/// instance per DecodeRuntime::run; all members are thread-safe.
class Supervisor {
 public:
  Supervisor(SupervisorConfig config, std::size_t workers);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Starts the watchdog thread.
  void start();
  /// Stops the watchdog; called automatically by the destructor.
  void stop();

  /// RAII busy-marker for a watchdog slot; slot 0 is the source, slots
  /// 1..workers are the worker threads.
  class ScopedActivity {
   public:
    ScopedActivity(Supervisor& supervisor, std::size_t slot);
    ~ScopedActivity();
    ScopedActivity(const ScopedActivity&) = delete;
    ScopedActivity& operator=(const ScopedActivity&) = delete;

   private:
    Supervisor& supervisor_;
    std::size_t slot_;
  };
  ScopedActivity track_source() { return {*this, 0}; }
  ScopedActivity track_worker(std::size_t worker) {
    return {*this, 1 + worker};
  }

  /// Supervised read: retries transient SourceErrors with exponential
  /// backoff up to the configured budget; a non-transient error or an
  /// exhausted budget fails the run (health → kFailed) and ends the
  /// stream with std::nullopt so the pipeline drains cleanly.
  std::optional<SampleChunk> next_chunk(SampleSource& source);

  /// Zeroes non-finite (NaN/Inf) samples in place and counts them, so a
  /// corrupt chunk degrades one window instead of poisoning cluster math.
  void scrub(SampleChunk& chunk);

  // Contained-fault records; each degrades health.
  void record_worker_exception();
  void record_subscriber_exceptions(std::size_t count);
  void record_data_loss();  ///< dropped chunks / zero-filled gaps
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

  const SupervisorConfig& config() const { return config_; }

 private:
  struct Slot {
    std::atomic<std::int64_t> busy_since_ns{-1};  ///< -1 when idle
    std::atomic<bool> flagged{false};  ///< current stall already counted
  };

  void degrade();
  void fail();
  void watch();
  void check_slot(Slot& slot, Seconds timeout,
                  std::atomic<std::size_t>& counter, std::int64_t now_ns);

  SupervisorConfig config_;
  std::vector<Slot> slots_;  ///< [0] source, [1..] workers
  std::atomic<int> health_{static_cast<int>(HealthState::kHealthy)};

  std::atomic<std::size_t> source_transient_errors_{0};
  std::atomic<std::size_t> source_retries_{0};
  std::atomic<std::size_t> source_failures_{0};
  std::atomic<std::size_t> source_stalls_{0};
  std::atomic<std::size_t> worker_stalls_{0};
  std::atomic<std::size_t> worker_exceptions_{0};
  std::atomic<std::size_t> subscriber_exceptions_{0};
  std::atomic<std::uint64_t> samples_scrubbed_{0};
  std::atomic<std::size_t> low_confidence_streams_{0};
  std::atomic<std::size_t> workers_lost_{0};
  std::atomic<std::size_t> windows_reassigned_{0};

  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool stop_requested_ = false;
  std::thread watchdog_;
};

}  // namespace lfbs::runtime
