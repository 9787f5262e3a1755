#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/units.h"

namespace lfbs::runtime {

/// Aggregate health of a runtime run — the paper's fail-soft philosophy
/// applied to the software pipeline itself. Strictly ordered: health only
/// ever escalates within a run.
///
///   kHealthy:  no fault observed; output is bit-identical to the serial
///              WindowedDecoder path.
///   kDegraded: faults occurred but were contained — retried reads, zero-
///              filled windows and sample gaps, scrubbed samples, isolated
///              subscriber exceptions. The run completed and decoded what
///              survived.
///   kFailed:   the source died unrecoverably (retries exhausted or a
///              non-transient error). The pipeline still drains and
///              returns whatever it decoded before the failure — a failed
///              run ends cleanly, never by crash or deadlock.
enum class HealthState { kHealthy = 0, kDegraded = 1, kFailed = 2 };

const char* to_string(HealthState state);

/// Per-fault counters, all contained faults observed during one run.
struct FaultCounters {
  std::size_t source_transient_errors = 0;  ///< SourceErrors seen (retried)
  std::size_t source_retries = 0;           ///< retry attempts issued
  std::size_t source_failures = 0;  ///< reads abandoned (retries exhausted
                                    ///< or non-transient error)
  std::size_t worker_exceptions = 0;     ///< windows zero-filled after throw
  std::size_t subscriber_exceptions = 0; ///< FrameBus handlers that threw
  std::uint64_t samples_scrubbed = 0;    ///< non-finite samples zeroed
  /// Streams whose decode confidence fell below the runtime's floor, or
  /// that only decoded through a degraded fallback stage. Not a software
  /// fault — the channel went bad — but the run is no longer delivering
  /// full-trust output, so it degrades health like any contained fault.
  std::size_t low_confidence_streams = 0;
  /// Shard workers declared dead mid-run (died, stalled past the worker
  /// deadline, or spoke garbage), and the windows they had outstanding,
  /// which are re-dispatched to the survivors.
  std::size_t workers_lost = 0;
  std::size_t windows_reassigned = 0;

  /// Total contained faults.
  std::size_t total() const {
    return source_transient_errors + source_failures + worker_exceptions +
           subscriber_exceptions + low_confidence_streams + workers_lost +
           static_cast<std::size_t>(samples_scrubbed > 0 ? 1 : 0);
  }

  bool operator==(const FaultCounters&) const = default;
};

/// Snapshot of one runtime run, taken after the pipeline drains.
struct RuntimeStats {
  // Ingest.
  std::size_t chunks_in = 0;        ///< chunks read into the ring
  std::uint64_t samples_in = 0;     ///< real samples decoded
  std::uint64_t samples_gap = 0;    ///< zero-filled samples (source gaps)
  std::size_t ring_high_watermark = 0;  ///< deepest ring occupancy (chunks)

  // Decode.
  std::size_t windows_dispatched = 0;
  std::size_t windows_decoded = 0;
  /// Per-window latency: decode time on worker threads, dispatch to
  /// result on a shard pool. A stalled window decode shows here.
  double window_latency_p50_ms = 0.0;
  double window_latency_p90_ms = 0.0;
  double window_latency_p99_ms = 0.0;
  double window_latency_max_ms = 0.0;

  // Output.
  std::size_t streams = 0;
  std::size_t frames_published = 0;

  // Decode confidence (soft-decision pipeline), over the run's stitched
  // streams; zero when the run decoded none. The decode's own diagnostics
  // (erasures, fallback passes) are in RuntimeResult::decode.
  double mean_confidence = 0.0;
  std::size_t degraded_streams = 0;   ///< streams decoded past kPrimary

  // Supervision.
  HealthState health = HealthState::kHealthy;
  FaultCounters faults;
  /// The run was cut short by RuntimeConfig::stop_flag rather than
  /// draining its source. What was ingested before the stop is fully
  /// decoded and published.
  bool stopped_early = false;

  // Throughput.
  Seconds wall_seconds = 0.0;
  /// Real samples decoded per wall-clock second, in Msps — the number the
  /// paper's 25 Msps feed has to stay under.
  double effective_msps() const {
    return wall_seconds > 0.0
               ? static_cast<double>(samples_in) / wall_seconds / 1e6
               : 0.0;
  }
};

/// Thread-safe recorder of per-window decode latencies; workers append,
/// the final snapshot computes percentiles.
class LatencyRecorder {
 public:
  void record(Seconds seconds);

  /// Fills the four latency fields of `stats`.
  void summarize(RuntimeStats& stats) const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
};

}  // namespace lfbs::runtime
