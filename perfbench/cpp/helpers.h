#pragma once

// Measurement helpers of the end-to-end benchmark: the tail-percentile
// rule, the ground-truth frame ledger, open-loop schedule accounting and
// the span self-time aggregator. Pure data structures, unit-tested in
// helpers_test.cpp.

#include <chrono>
#include <complex>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A timing summary: the median and the tail, where the tail is the
/// highest percentile (capped at `max_percentile`) that leaves at least
/// `kTailBeyond` samples above it. `percentile` and `count` say which
/// percentile that was and how many samples it came from.
struct TailSummary {
  static constexpr std::size_t kTailBeyond = 10;
  /// Runs collect thousands of samples, so the rule alone would report
  /// p99.9 and beyond, where a few multi-millisecond stalls of a shared
  /// host decide the value. p95 still shows the slow inputs and the queue
  /// build-up a change can cause, and it repeats from run to run.
  static constexpr double kMaxPercentile = 95.0;
  double p50 = 0.0;
  double tail = 0.0;
  double percentile = 0.0;  ///< in [0, 100]
  std::size_t count = 0;
};

/// Summarizes `samples` (any order). With n samples the tail percentile is
/// min(max_percentile, 100·(n − 10)/n), so exactly ten or more samples lie
/// beyond it; fewer than eleven samples report the maximum at 100. The
/// value is the order statistic at rank ceil(p·n/100) − 1, never
/// interpolated, so "ten samples beyond" holds literally.
TailSummary summarize(std::vector<double> samples,
                      double max_percentile = TailSummary::kMaxPercentile);

/// The same summary, steadied for long runs: when the samples (in arrival
/// order) fill `segments` consecutive pieces of at least `min_per_segment`
/// each, the tail is the median of the pieces' tails, each by the rule
/// above; otherwise it is the plain tail. The p50 is over all samples.
TailSummary summarize_segmented(const std::vector<double>& samples,
                                std::size_t segments = 10,
                                std::size_t min_per_segment = 1000,
                                double max_percentile =
                                    TailSummary::kMaxPercentile);

/// Throughput steadied against slow phases of a shared host: consecutive
/// operations are cut into `segments` groups of equal count, each group's
/// rate is sum(amount) / sum(seconds), and the median rate is returned.
/// With fewer operations than segments it is the overall rate.
double median_segment_rate(const std::vector<double>& amounts,
                           const std::vector<double>& seconds,
                           std::size_t segments = 10);

/// How slow the host runs right now, for scaling timings. A shared host
/// drifts 15-30% in speed over minutes (most likely co-tenants contending
/// for the cores' floating-point units and caches), which moves every
/// timing of the program with it. `sample()` times a fixed benchmark-owned kernel: edge
/// detection's operation mix (prefix sums, complex division, magnitudes,
/// two nth_element medians) over a fixed signal, independent of the seed
/// and of the library. `slowdown()` is its median time over
/// `kReferenceMs`; a timing divided by it reads as on a host where the
/// kernel takes exactly 1 ms. The kernel costs about 1 ms per sample, so
/// callers sample it when the program under test is idle.
class HostSpeed {
 public:
  static constexpr double kReferenceMs = 1.0;
  static constexpr std::size_t kKernelSamples = 32768;

  HostSpeed();

  /// Runs the kernel once and records its time.
  void sample();
  /// Records one kernel time measured elsewhere, in ms.
  void record(double ms) { ms_.push_back(ms); }
  /// Median kernel time / kReferenceMs; 1 before any sample.
  double slowdown() const;
  /// Median kernel time in ms (0 before any sample).
  double median_ms() const;
  std::size_t samples() const { return ms_.size(); }

 private:
  std::vector<std::complex<double>> input_, prefix_;
  std::vector<double> diff_, scratch_;
  std::vector<double> ms_;
  double checksum_ = 0.0;  ///< keeps the kernel's result alive
};

/// What a delivered frame turned out to be against ground truth.
enum class Verdict { kRecovered, kDuplicate, kFabricated };

/// Ground truth for one set of transmitted frames. Every delivered CRC-valid
/// payload is matched to the (tag, frame) that carried it; a payload that
/// was never transmitted is a fabrication, a second delivery of the same
/// transmitted frame a duplicate.
class Ledger {
 public:
  struct Frame {
    std::size_t tag = 0;
    std::size_t index = 0;          ///< ordinal of the frame within its tag
    std::uint64_t end_sample = 0;   ///< capture sample of its last bit
  };

  /// Registers one fully transmitted frame. Payloads must be distinct.
  void add(const std::vector<bool>& payload, Frame frame);

  /// Matches one delivered CRC-valid payload. On kRecovered/kDuplicate
  /// `*matched` (when given) points at the transmitted frame.
  Verdict deliver(const std::vector<bool>& payload,
                  const Frame** matched = nullptr);

  /// Forgets deliveries (ground truth stays) so the same inputs can be
  /// decoded again.
  void reset_deliveries();

  std::size_t transmitted() const { return frames_.size(); }
  std::size_t recovered() const { return recovered_; }
  std::size_t missed() const { return frames_.size() - recovered_; }
  std::size_t duplicates() const { return duplicates_; }
  std::size_t fabricated() const { return fabricated_; }

 private:
  std::unordered_map<std::vector<bool>, std::size_t> index_;
  std::vector<Frame> frames_;
  std::vector<bool> delivered_;
  std::size_t recovered_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t fabricated_ = 0;
};

/// Open-loop send schedule: item i is due at start + i / rate, whatever
/// happened to earlier items. Latency is timed from the due time, so a
/// stall is charged to every item it delayed; the generator's own lateness
/// (sent − due) is recorded separately.
class OpenLoop {
 public:
  OpenLoop(double rate_hz, Clock::time_point start)
      : rate_hz_(rate_hz), start_(start) {}

  Clock::time_point due(std::size_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate_hz_));
  }

  /// Records that item i left at `sent`; returns its lateness in seconds
  /// (0 when sent on time or early).
  double record_send(std::size_t i, Clock::time_point sent);

  /// Lateness of every recorded send, in seconds.
  const std::vector<double>& lateness() const { return lateness_; }
  std::size_t late_sends() const { return late_sends_; }

 private:
  double rate_hz_;
  Clock::time_point start_;
  std::vector<double> lateness_;
  std::size_t late_sends_ = 0;
};

/// Folds completed spans into per-name totals with self time (span time
/// minus the part covered by its direct children on the same thread).
class SpanStats {
 public:
  struct Entry {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::vector<double> durations_ms;  ///< kept only for `keep_durations`
  };

  explicit SpanStats(std::vector<std::string> keep_durations = {})
      : keep_(std::move(keep_durations)) {}

  /// Folds one batch. Every span's parent must be in the same batch (drain
  /// the tracer only between operations, when no span is open).
  void fold(const std::vector<lfbs::obs::SpanRecord>& spans);

  const Entry& get(const std::string& name) const;

 private:
  std::vector<std::string> keep_;
  std::map<std::string, Entry> entries_;
};

}  // namespace perfbench
