#include "signal/sample_buffer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lfbs::signal {

SampleBuffer::SampleBuffer(SampleRate fs, std::vector<Complex> samples)
    : fs_(fs), samples_(std::move(samples)) {
  LFBS_CHECK(fs_ > 0.0);
}

SampleBuffer::SampleBuffer(SampleRate fs, std::size_t n)
    : fs_(fs), samples_(n) {
  LFBS_CHECK(fs_ > 0.0);
}

std::size_t scrub_non_finite(std::span<Complex> samples) {
  std::size_t scrubbed = 0;
  for (Complex& sample : samples) {
    if (std::isfinite(sample.real()) && std::isfinite(sample.imag())) {
      continue;
    }
    sample = Complex{};
    ++scrubbed;
  }
  return scrubbed;
}

SampleIndex SampleBuffer::index_of(Seconds t) const {
  auto idx = static_cast<SampleIndex>(t * fs_ + 0.5);
  idx = std::clamp<SampleIndex>(idx, 0,
                                static_cast<SampleIndex>(samples_.size()) - 1);
  return idx;
}

void SampleBuffer::accumulate(const SampleBuffer& other) {
  LFBS_CHECK(other.fs_ == fs_);
  LFBS_CHECK(other.size() == size());
  for (std::size_t i = 0; i < samples_.size(); ++i)
    samples_[i] += other.samples_[i];
}

std::span<const Complex> SampleBuffer::slice(std::size_t begin,
                                             std::size_t end) const {
  LFBS_CHECK(begin <= end && end <= samples_.size());
  return std::span<const Complex>(samples_).subspan(begin, end - begin);
}

Complex windowed_mean_before(std::span<const Complex> xs, SampleIndex center,
                             std::size_t length, std::size_t* count) {
  const auto n = static_cast<SampleIndex>(xs.size());
  const SampleIndex end = std::clamp<SampleIndex>(center, 0, n);
  const SampleIndex begin =
      std::clamp<SampleIndex>(center - static_cast<SampleIndex>(length), 0, n);
  Complex sum{};
  for (SampleIndex i = begin; i < end; ++i)
    sum += xs[static_cast<std::size_t>(i)];
  const auto used = static_cast<std::size_t>(end - begin);
  if (count != nullptr) *count = used;
  return used > 0 ? sum / static_cast<double>(used) : Complex{};
}

Complex windowed_mean_after(std::span<const Complex> xs, SampleIndex center,
                            std::size_t length, std::size_t* count) {
  const auto n = static_cast<SampleIndex>(xs.size());
  const SampleIndex begin = std::clamp<SampleIndex>(center, 0, n);
  const SampleIndex end =
      std::clamp<SampleIndex>(center + static_cast<SampleIndex>(length), 0, n);
  Complex sum{};
  for (SampleIndex i = begin; i < end; ++i)
    sum += xs[static_cast<std::size_t>(i)];
  const auto used = static_cast<std::size_t>(end - begin);
  if (count != nullptr) *count = used;
  return used > 0 ? sum / static_cast<double>(used) : Complex{};
}

}  // namespace lfbs::signal
