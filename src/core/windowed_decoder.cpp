#include "core/windowed_decoder.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/rng.h"
#include "core/decode_stages.h"
#include "core/tag_identity.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lfbs::core {

namespace {

/// Lattice-phase continuity tolerance at a stitch, in samples, plus a
/// drift allowance proportional to the gap.
constexpr double kPhaseTolerance = 8.0;
/// Edge-vector continuity: the core::TagIdentity distance
/// min(|e_s - e_t|, |e_s + e_t|) / |e_t| must not exceed this.
constexpr double kVectorTolerance = 0.4;

}  // namespace

WindowStitcher::WindowStitcher(const WindowedDecoderConfig& config,
                               SampleRate sample_rate)
    : config_(config), fs_(sample_rate) {
  LFBS_CHECK(fs_ > 0.0);
}

void WindowStitcher::add_window(DecodeResult window,
                                std::size_t offset_samples) {
  LFBS_OBS_SPAN(span, "stitch", "core");
  span.attr("window_streams", static_cast<double>(window.streams.size()));
  static obs::Counter& stitched =
      obs::metrics().counter("core.windows_stitched");
  stitched.add();
  ++windows_;
  const double fs = fs_;
  result_.diagnostics.edges += window.diagnostics.edges;
  result_.diagnostics.groups += window.diagnostics.groups;
  result_.diagnostics.collision_groups +=
      window.diagnostics.collision_groups;
  result_.diagnostics.unresolved_groups +=
      window.diagnostics.unresolved_groups;
  result_.diagnostics.erasures += window.diagnostics.erasures;
  result_.diagnostics.fallback_passes += window.diagnostics.fallback_passes;
  result_.diagnostics.fallback_recoveries +=
      window.diagnostics.fallback_recoveries;

  // Earlier streams first so head-of-thread matching is stable.
  std::sort(window.streams.begin(), window.streams.end(),
            [](const DecodedStream& a, const DecodedStream& b) {
              return a.start_sample < b.start_sample;
            });

  std::vector<bool> thread_taken(threads_.size(), false);
  for (DecodedStream& s : window.streams) {
    if (s.bits.empty() || s.rate <= 0.0) continue;
    const double abs_start =
        s.start_sample + static_cast<double>(offset_samples);
    const double period = fs / s.rate;
    // Fragment weight for the thread's confidence aggregation: longer
    // fragments say more about the thread's health.
    const double weight = static_cast<double>(s.bits.size());
    const auto fold_confidence = [&](Thread& thread) {
      thread.conf_weight += weight;
      thread.snr_sum += s.snr_db * weight;
      thread.edge_snr_sum += s.confidence.edge_snr_db * weight;
      thread.edge_conf_sum += s.confidence.edge_confidence * weight;
      thread.margin_sum += s.confidence.path_margin * weight;
      thread.separation_sum += s.confidence.cluster_separation * weight;
      thread.erasures += s.confidence.erasures;
      // The thread is only as trustworthy as its most-degraded fragment.
      thread.stage = std::max(thread.stage, s.confidence.stage);
    };

    // Find the best continuing thread.
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t best_thread = threads_.size();
    bool best_flip = false;
    std::size_t best_expand = 1;
    for (std::size_t t = 0; t < threads_.size(); ++t) {
      if (thread_taken[t]) continue;
      Thread& thread = threads_[t];
      // A short window can under-determine a fragment's rate: a stream
      // whose edges happened to sit on a coarser lattice decodes at a
      // sub-multiple rate. Its bits are then exact m-fold repetitions of
      // the true levels, so it can be expanded and stitched.
      std::size_t expand = 1;
      if (std::abs(thread.rate - s.rate) > 0.01 * thread.rate) {
        const double ratio = thread.rate / s.rate;
        const auto m = static_cast<std::size_t>(std::llround(ratio));
        if (m < 2 || m > 200 ||
            std::abs(ratio - static_cast<double>(m)) > 0.01) {
          continue;
        }
        expand = m;
      }
      const double gap = abs_start - thread.next_boundary;
      if (gap < -2.0 * period) continue;  // going backwards
      // Phase continuity. Until the thread's period has been measured
      // across a stitch, the nominal period accumulates the tag's full
      // crystal error over the span since the last anchor; afterwards
      // only residual jitter remains.
      const double span = std::max(abs_start - thread.anchor_pos, 0.0);
      const double drift_allowance =
          (thread.period_refined ? 60e-6 : 400e-6) * span;
      const double tol = kPhaseTolerance + drift_allowance;
      const double residual =
          std::abs(std::remainder(gap, period));
      if (residual > tol) continue;
      // Edge-vector continuity, allowing a polarity flip.
      const TagIdentity id =
          TagIdentity::compare(s.edge_vector, thread.edge_vector);
      if (id.distance > kVectorTolerance) continue;
      double score = residual / tol + id.distance;
      if (expand > 1) score += 0.5;  // prefer exact-rate matches
      if (score < best_score) {
        best_score = score;
        best_thread = t;
        best_flip = id.flipped;
        best_expand = expand;
      }
    }

    std::vector<bool> bits = std::move(s.bits);
    if (best_thread < threads_.size()) {
      Thread& thread = threads_[best_thread];
      thread_taken[best_thread] = true;
      if (best_flip) bits.flip();
      if (best_expand > 1) {
        std::vector<bool> expanded;
        expanded.reserve(bits.size() * best_expand);
        for (bool b : bits) {
          expanded.insert(expanded.end(), best_expand, b);
        }
        bits = std::move(expanded);
      }
      // Refine the thread period from the measured anchor-to-anchor span:
      // the bit count between anchors is unambiguous once rounded at the
      // (coarser) nominal period.
      const double span = abs_start - thread.anchor_pos;
      const auto span_bits =
          static_cast<std::int64_t>(std::llround(span / thread.period));
      if (span_bits > 200) {
        const double measured = span / static_cast<double>(span_bits);
        const double nominal = fs / thread.rate;
        if (std::abs(measured / nominal - 1.0) < 400e-6) {
          thread.period = measured;
          thread.period_refined = true;
        }
      }
      // Fill the inter-window gap from timing: missing boundaries carry
      // the thread's held level. All arithmetic is at the thread's own
      // (refined) period.
      const double tperiod = thread.period;
      const auto gap_bits = static_cast<std::int64_t>(
          std::llround((abs_start - thread.next_boundary) / tperiod));
      std::size_t dropped = 0;
      if (gap_bits >= 0) {
        thread.bits.insert(thread.bits.end(),
                           static_cast<std::size_t>(gap_bits),
                           thread.last_level);
      } else {
        // Overlapping re-decode of the seam: drop the duplicate head.
        dropped = static_cast<std::size_t>(-gap_bits);
        if (dropped >= bits.size()) continue;
        bits.erase(bits.begin(),
                   bits.begin() + static_cast<std::ptrdiff_t>(dropped));
      }
      thread.bits.insert(thread.bits.end(), bits.begin(), bits.end());
      thread.next_boundary =
          abs_start + static_cast<double>(dropped + bits.size()) * tperiod;
      thread.anchor_pos = abs_start;
      thread.bits_at_anchor = thread.bits.size();
      thread.last_level = thread.bits.back();
      thread.collided = thread.collided || s.collided;
      // Keep the freshest vector estimate (channel can creep slowly).
      thread.edge_vector = best_flip ? -s.edge_vector : s.edge_vector;
      fold_confidence(thread);
    } else {
      Thread thread;
      thread.rate = s.rate;
      thread.period = period;
      thread.edge_vector = s.edge_vector;
      thread.start_abs = abs_start;
      thread.anchor_pos = abs_start;
      thread.bits = std::move(bits);
      thread.bits_at_anchor = thread.bits.size();
      thread.next_boundary =
          abs_start + static_cast<double>(thread.bits.size()) * period;
      thread.last_level = thread.bits.back();
      thread.collided = s.collided;
      fold_confidence(thread);
      threads_.push_back(std::move(thread));
      // A thread born in this window is not a stitch target for the
      // window's remaining streams (and keeps thread_taken in step with
      // the threads vector).
      thread_taken.push_back(true);
    }
  }
}

DecodeResult WindowStitcher::finish() {
  for (Thread& thread : threads_) {
    DecodedStream stream;
    stream.start_sample = thread.start_abs;
    stream.rate = thread.rate;
    stream.collided = thread.collided;
    stream.edge_vector = thread.edge_vector;
    if (thread.conf_weight > 0.0) {
      stream.snr_db = thread.snr_sum / thread.conf_weight;
      stream.confidence.edge_snr_db =
          thread.edge_snr_sum / thread.conf_weight;
      stream.confidence.edge_confidence =
          thread.edge_conf_sum / thread.conf_weight;
      stream.confidence.path_margin =
          thread.margin_sum / thread.conf_weight;
      stream.confidence.cluster_separation =
          thread.separation_sum / thread.conf_weight;
    }
    stream.confidence.erasures = thread.erasures;
    stream.confidence.stage = thread.stage;
    stream.bits = std::move(thread.bits);
    trim_trailing_zeros(stream.bits, config_.decoder.frame.frame_bits());
    // Seams can slip a bit; resynchronize on CRC-valid frames.
    stream.frames =
        protocol::scan_frames(stream.bits, config_.decoder.frame);
    result_.streams.push_back(std::move(stream));
  }
  threads_.clear();
  return std::move(result_);
}

WindowedDecoder::WindowedDecoder(WindowedDecoderConfig config)
    : config_(std::move(config)) {
  LFBS_CHECK(config_.window > 0.0);
}

std::size_t WindowedDecoder::window_samples(SampleRate fs) const {
  const auto n = static_cast<std::size_t>(config_.window * fs);
  LFBS_CHECK(n > 0);
  return n;
}

bool WindowedDecoder::is_short_capture(std::size_t total_samples,
                                       SampleRate fs) const {
  return static_cast<double>(total_samples) / fs <= 1.5 * config_.window;
}

DecodeResult WindowedDecoder::decode_window(const signal::SampleBuffer& slice,
                                            std::size_t window_index) const {
  DecoderConfig dc = config_.decoder;
  dc.seed = derive_seed(config_.decoder.seed, window_index);
  // The degraded-mode ladder must not run per window: a fragment with zero
  // CRC-valid frames is *normal* here (seam-truncated frames, sub-multiple
  // rate repetitions) and the stitcher repairs it from timing. Re-decoding
  // such a window under relaxed thresholds replaces good bits with degraded
  // ones mid-thread. The ladder instead runs over the whole capture when
  // the stitched result comes back empty (see decode()).
  dc.robustness.fallback = false;
  return LfDecoder(dc).decode(slice);
}

DecodeResult WindowedDecoder::decode_job(const WindowJob& job) const {
  if (job.whole_capture) return LfDecoder(config_.decoder).decode(job.samples);
  return decode_window(job.samples, job.index);
}

WindowSlicer::WindowSlicer(const WindowedDecoder& decoder, SampleRate fs)
    : decoder_(decoder), fs_(fs), window_samples_(decoder.window_samples(fs)) {
  window_.reserve(window_samples_);
}

WindowJob WindowSlicer::take_whole_capture() {
  std::vector<Complex> all;
  for (const WindowJob& job : held_) {
    const auto view = job.samples.span();
    all.insert(all.end(), view.begin(), view.end());
  }
  held_.clear();
  all.insert(all.end(), window_.begin(), window_.end());
  window_.clear();
  return WindowJob{0, true, signal::SampleBuffer(fs_, std::move(all))};
}

WindowJob WindowSlicer::take_window() {
  WindowJob job{next_index_++, false,
                signal::SampleBuffer(fs_, std::move(window_))};
  window_ = {};
  window_.reserve(window_samples_);
  return job;
}

DecodeResult WindowedDecoder::decode(const signal::SampleBuffer& buffer) const {
  if (buffer.empty() ||
      is_short_capture(buffer.size(), buffer.sample_rate())) {
    return LfDecoder(config_.decoder).decode(buffer);
  }
  const double fs = buffer.sample_rate();
  const std::size_t window_samples_n = window_samples(fs);

  WindowStitcher stitcher(config_, fs);
  std::size_t window_index = 0;
  for (std::size_t offset = 0; offset < buffer.size();
       offset += window_samples_n, ++window_index) {
    const std::size_t end =
        std::min(buffer.size(), offset + window_samples_n);
    if (end - offset < window_samples_n / 4) break;  // ignore a tiny tail
    const auto slice_span = buffer.slice(offset, end);
    signal::SampleBuffer slice(
        fs, std::vector<Complex>(slice_span.begin(), slice_span.end()));
    stitcher.add_window(decode_window(slice, window_index), offset);
  }
  DecodeResult result = stitcher.finish();
  // Whole-capture degraded fallback: only when windowing + stitching
  // produced nothing at all does a single-pass decode with the ladder get
  // a shot at the full buffer (the per-window ladder is disabled, see
  // decode_window).
  if (config_.decoder.robustness.fallback && result.valid_frames() == 0) {
    DecodeResult whole = LfDecoder(config_.decoder).decode(buffer);
    if (whole.valid_frames() > 0) return whole;
  }
  return result;
}

}  // namespace lfbs::core
