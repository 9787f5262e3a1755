#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.h"
#include "common/units.h"
#include "runtime/sample_source.h"

namespace lfbs::runtime {

/// Declarative fault schedule for a FaultInjectingSource. Every field is a
/// per-event probability drawn from the injector's own seeded Rng, so a
/// given (plan, seed, source) triple replays the exact same fault sequence
/// — fault drills are as reproducible as fault-free runs. A default plan
/// (all probabilities zero) injects nothing and is bit-transparent.
struct FaultPlan {
  std::uint64_t seed = 1;
  /// P(a chunk read from the inner source is discarded whole) — models a
  /// carrier dropout or a lost USB/network transfer. The position gap is
  /// visible downstream, so the slicer zero-fills it.
  double drop_chunk = 0.0;
  /// P(a chunk is cut short at a random point) — a transfer that died
  /// mid-buffer. The tail becomes a gap, like a partial drop.
  double truncate_chunk = 0.0;
  /// Per-sample corruption probability. Each corrupted sample picks one of
  /// four modes: a random single bit flip in the float32 wire image, NaN,
  /// ±Inf, or rail saturation.
  double corrupt_sample = 0.0;
  /// P(a read stalls for `stall_duration` before proceeding) — a blocking
  /// hiccup in the device read. Latency, not loss: the read then delivers
  /// its data, so a stalled run decodes exactly what a clean one does.
  double stall = 0.0;
  Seconds stall_duration = 5e-3;
  /// P(a read throws a transient SourceError *before* touching the inner
  /// source) — a retried read loses no data.
  double transient_error = 0.0;
  /// P(the stream ends early at each read; terminal once it fires).
  double premature_eof = 0.0;

  /// True when any fault can fire.
  bool enabled() const {
    return drop_chunk > 0.0 || truncate_chunk > 0.0 ||
           corrupt_sample > 0.0 || stall > 0.0 || transient_error > 0.0 ||
           premature_eof > 0.0;
  }
};

/// Parses a comma-separated "key=value" fault spec, e.g.
///   "seed=7,drop=0.05,corrupt=0.01,stall=0.002,stall-ms=5,error=0.01,
///    truncate=0.02,eof=0.001"
/// Probabilities lie in [0, 1] and stall-ms is ≥ 0; anything else throws
/// SpecParseError (common/kv_spec.h; the CLI reports it as a usage error).
FaultPlan parse_fault_plan(const std::string& spec);

/// What a FaultInjectingSource actually did — ground truth the supervisor's
/// observed counters can be validated against.
struct FaultInjectionStats {
  std::size_t chunks_dropped = 0;
  std::size_t chunks_truncated = 0;
  std::uint64_t samples_truncated = 0;
  std::uint64_t samples_corrupted = 0;
  std::uint64_t samples_non_finite = 0;  ///< corrupted to NaN or ±Inf
  std::size_t stalls = 0;
  std::size_t errors_thrown = 0;
  std::size_t premature_eofs = 0;
};

/// Decorator over any SampleSource that injects the faults of a FaultPlan,
/// deterministically. Faults that must be retryable (transient errors,
/// stalls, early EOF) fire before the inner read, so a supervised retry
/// re-reads the same data; data faults (drop, truncate, corrupt) apply to
/// the chunk just read. Chunk positions are preserved — a dropped or
/// truncated span shows up as a `first_sample` gap, which the runtime's
/// slicer zero-fills.
class FaultInjectingSource : public SampleSource {
 public:
  /// The inner source is borrowed and must outlive the injector.
  FaultInjectingSource(SampleSource& inner, FaultPlan plan);

  SampleRate sample_rate() const override;
  std::optional<SampleChunk> next_chunk() override;

  const FaultPlan& plan() const { return plan_; }
  const FaultInjectionStats& injected() const { return stats_; }

 private:
  void corrupt(SampleChunk& chunk);

  SampleSource& inner_;
  FaultPlan plan_;
  Rng rng_;
  FaultInjectionStats stats_;
  bool eof_ = false;
};

}  // namespace lfbs::runtime
