#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/lf_decoder.h"

namespace lfbs::core {

/// Streaming decode for long captures (extension beyond the paper).
///
/// The base decoder assumes quasi-stationary stream phases: valid for the
/// paper's short (~1 ms) epochs, but over the hundreds of milliseconds a
/// 0.5 kbps frame needs, *relative* crystal drift slides tags' edge
/// lattices across each other — colliding pairs drift apart mid-epoch and
/// faster tags sweep through slower tags' phases, corrupting long bursts.
///
/// The windowed decoder bounds that: it chops the capture into windows
/// short enough that every configuration (collided or separate) is
/// quasi-static, decodes each window independently, and stitches the
/// per-window streams into end-to-end threads using three continuity keys:
///   - bitrate,
///   - lattice phase (the predicted next boundary of the thread),
///   - the edge vector (the tag's channel coefficient, stable over the
///     whole capture) — which also resolves per-window polarity, since a
///     window that opens mid-stream may start on a falling edge and decode
///     inverted.
/// Gaps between windows (a tag holding its level across a cut, or a window
/// where its group was lost) are filled by timing: the number of missing
/// bits falls out of the boundary positions, and their value is the
/// thread's last level.
///
/// The phases are exposed separately so the streaming runtime (src/runtime)
/// can cut a chunked stream with a WindowSlicer, decode the resulting jobs
/// anywhere — worker threads or remote shard processes — with decode_job(),
/// which is pure and safe to call from any thread, and stitch on a single
/// thread: a WindowStitcher consumes window results strictly in window
/// order.
struct WindowedDecoderConfig {
  DecoderConfig decoder;
  /// Processing window. Must be long enough that the slowest expected tag
  /// shows min_edges edges per window, short enough that relative drift
  /// within a window stays inside the grouping tolerance.
  Seconds window = 20e-3;
};

/// Serial half of the windowed decode: consumes per-window DecodeResults
/// strictly in window order and assembles end-to-end threads via the three
/// continuity keys. Not thread-safe; the runtime funnels all worker output
/// through the one thread that drives the run.
class WindowStitcher {
 public:
  WindowStitcher(const WindowedDecoderConfig& config, SampleRate sample_rate);

  /// Folds in the decode of the window starting at absolute sample
  /// `offset_samples`. Windows must arrive in capture order.
  void add_window(DecodeResult window, std::size_t offset_samples);

  /// Emits the stitched threads (trimmed, frame-scanned) together with the
  /// accumulated diagnostics. The stitcher is spent afterwards.
  DecodeResult finish();

  /// Number of windows folded in so far.
  std::size_t windows() const { return windows_; }

 private:
  /// An end-to-end stream under assembly.
  struct Thread {
    BitRate rate = 0.0;
    double period = 0.0;          ///< samples per bit (refined from anchors)
    bool period_refined = false;  ///< true once measured across a stitch
    Complex edge_vector;
    double start_abs = 0.0;       ///< anchor position in capture samples
    double anchor_pos = 0.0;      ///< last stitched stream's measured anchor
    std::size_t bits_at_anchor = 0;
    double next_boundary = 0.0;   ///< predicted boundary after the last bit
    bool last_level = false;
    bool collided = false;
    std::vector<bool> bits;
    // Soft-decision aggregation: per-fragment confidence components,
    // weighted by fragment bit count, folded into one per-thread
    // DecodeConfidence at finish().
    double conf_weight = 0.0;
    double snr_sum = 0.0;
    double edge_snr_sum = 0.0;
    double edge_conf_sum = 0.0;
    double margin_sum = 0.0;
    double separation_sum = 0.0;
    std::size_t erasures = 0;
    FallbackStage stage = FallbackStage::kPrimary;
  };

  WindowedDecoderConfig config_;
  double fs_ = 0.0;
  std::size_t windows_ = 0;
  DecodeResult result_;  ///< accumulates diagnostics until finish()
  std::vector<Thread> threads_;
};

/// One unit of decode work cut from a capture: lattice window `index`, or —
/// for a capture of at most 1.5 windows — the whole capture.
struct WindowJob {
  std::size_t index = 0;
  bool whole_capture = false;
  signal::SampleBuffer samples;
};

class WindowedDecoder {
 public:
  explicit WindowedDecoder(WindowedDecoderConfig config);

  const WindowedDecoderConfig& config() const { return config_; }

  /// Decodes a capture of any length. Short captures (≤ 1.5 windows) fall
  /// through to the plain decoder. This serial loop is the reference every
  /// streaming path is tested against, and it slices the buffer itself
  /// rather than through a WindowSlicer so that a slicer defect cannot
  /// reach both sides of that comparison. Equivalent to decode_job() over
  /// every WindowSlicer job followed by a WindowStitcher, with the one
  /// exception runtime.h states (the whole-capture re-decode when the
  /// stitch yields no CRC-valid frame).
  DecodeResult decode(const signal::SampleBuffer& buffer) const;

  /// Decodes one slicer job: a window through decode_window(), a whole
  /// capture through the plain decoder exactly as decode() does. Pure and
  /// thread-safe; every executor (worker threads, shard processes) decodes
  /// through here, so where a job runs cannot change its bits.
  DecodeResult decode_job(const WindowJob& job) const;

  /// Window length in samples at the given rate.
  std::size_t window_samples(SampleRate fs) const;

  /// True when `total_samples` is short enough that decode() would fall
  /// through to the plain (unwindowed) decoder.
  bool is_short_capture(std::size_t total_samples, SampleRate fs) const;

  /// Decodes one window independently of every other window. `slice` holds
  /// the window's samples only; positions in the result are window-local.
  /// Deterministic and thread-safe: the decoder's k-means seed is mixed
  /// with `window_index` by derive_seed, giving every window (and hence
  /// every runtime worker) its own reproducible common::Rng stream
  /// regardless of which thread decodes it or in what order.
  DecodeResult decode_window(const signal::SampleBuffer& slice,
                             std::size_t window_index) const;

 private:
  WindowedDecoderConfig config_;
};

/// The window lattice over a chunked sample stream, emitting exactly the
/// jobs WindowedDecoder::decode slices from the same capture:
///   - gap zero-fill: a chunk starting past the samples seen so far (a
///     source skipped samples, e.g. a dropped chunk) is preceded by zeros,
///     so surviving samples keep their absolute window positions;
///   - overlap skip: samples before that point (a rewinding source) are
///     ignored;
///   - short-capture hold-back: full windows are held until the stream is
///     known to be longer than 1.5 windows; a stream that never gets there
///     becomes one whole-capture job at finish();
///   - quarter-window tail: a final partial window shorter than a quarter
///     window is dropped.
/// Jobs are emitted in index order, each as soon as it is complete, by
/// calling `emit(WindowJob)`. Not thread-safe.
class WindowSlicer {
 public:
  WindowSlicer(const WindowedDecoder& decoder, SampleRate fs);

  /// Folds in a chunk whose first sample sits at absolute position
  /// `first_sample`; emits every job the chunk completes.
  template <class Emit>
  void push(std::uint64_t first_sample, std::span<const Complex> samples,
            const Emit& emit) {
    if (first_sample > next_expected_) {
      const std::uint64_t gap = first_sample - next_expected_;
      samples_gap_ += gap;
      append(nullptr, gap, emit);
    }
    const auto skip = static_cast<std::size_t>(std::min<std::uint64_t>(
        next_expected_ - first_sample, samples.size()));
    append(samples.data() + skip, samples.size() - skip, emit);
    samples_in_ += samples.size() - skip;
    if (!known_long_ && !decoder_.is_short_capture(
                            static_cast<std::size_t>(next_expected_), fs_)) {
      known_long_ = true;
      for (WindowJob& job : held_) emit(std::move(job));
      held_.clear();
    }
  }

  /// End of stream: emits the tail window or the whole-capture job.
  template <class Emit>
  void finish(const Emit& emit) {
    if (!known_long_) {
      emit(take_whole_capture());
    } else if (window_.size() >= window_samples_ / 4) {
      emit(take_window());
    }
  }

  std::uint64_t samples_in() const { return samples_in_; }    ///< real
  std::uint64_t samples_gap() const { return samples_gap_; }  ///< zeros

 private:
  /// Appends `n` samples from `data`, or `n` zeros when `data` is null.
  template <class Emit>
  void append(const Complex* data, std::uint64_t n, const Emit& emit) {
    next_expected_ += n;
    while (n > 0) {
      const auto take = static_cast<std::size_t>(
          std::min<std::uint64_t>(n, window_samples_ - window_.size()));
      if (data != nullptr) {
        window_.insert(window_.end(), data, data + take);
        data += take;
      } else {
        window_.resize(window_.size() + take);
      }
      n -= take;
      if (window_.size() < window_samples_) continue;
      if (known_long_) {
        emit(take_window());
      } else {
        held_.push_back(take_window());
      }
    }
  }
  WindowJob take_window();
  /// The held windows and the partial one, as one whole-capture job.
  WindowJob take_whole_capture();

  const WindowedDecoder& decoder_;
  SampleRate fs_;
  std::size_t window_samples_;
  std::vector<Complex> window_;
  std::vector<WindowJob> held_;
  std::uint64_t next_expected_ = 0;
  std::uint64_t samples_in_ = 0;
  std::uint64_t samples_gap_ = 0;
  std::size_t next_index_ = 0;
  bool known_long_ = false;
};

}  // namespace lfbs::core
