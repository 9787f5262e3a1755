#pragma once

#include <span>
#include <vector>

#include "common/units.h"

namespace lfbs::signal {

/// A block of complex baseband samples at a fixed sample rate — what the
/// reader's ADC hands to the decoder for one epoch.
class SampleBuffer {
 public:
  SampleBuffer() = default;
  SampleBuffer(SampleRate fs, std::vector<Complex> samples);
  /// Zero-filled buffer of `n` samples.
  SampleBuffer(SampleRate fs, std::size_t n);

  SampleRate sample_rate() const { return fs_; }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  Seconds duration() const {
    return static_cast<double>(samples_.size()) / fs_;
  }

  Complex& operator[](std::size_t i) { return samples_[i]; }
  const Complex& operator[](std::size_t i) const { return samples_[i]; }

  std::span<Complex> span() { return samples_; }
  std::span<const Complex> span() const { return samples_; }

  /// Time of sample i in seconds.
  Seconds time_of(SampleIndex i) const { return static_cast<double>(i) / fs_; }
  /// Sample index nearest to time t (clamped into range).
  SampleIndex index_of(Seconds t) const;

  /// Element-wise accumulate (same rate and size required).
  void accumulate(const SampleBuffer& other);

  /// View of samples [begin, end).
  std::span<const Complex> slice(std::size_t begin, std::size_t end) const;

 private:
  SampleRate fs_ = 0.0;
  std::vector<Complex> samples_;
};

/// Zeroes every sample whose I or Q value is not finite and returns how many
/// it zeroed. The decoder needs finite samples: one NaN would reach every
/// later |dS| through edge detection's prefix sums.
std::size_t scrub_non_finite(std::span<Complex> samples);

/// Windowed mean of samples [center - length, center) — the "before" half of
/// the edge differential in Eq (3). Clamped to buffer bounds; returns the
/// number of samples actually averaged via `*count` when non-null.
Complex windowed_mean_before(std::span<const Complex> xs, SampleIndex center,
                             std::size_t length, std::size_t* count = nullptr);

/// Windowed mean of samples [center, center + length).
Complex windowed_mean_after(std::span<const Complex> xs, SampleIndex center,
                            std::size_t length, std::size_t* count = nullptr);

}  // namespace lfbs::signal
