#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "helpers.h"
#include "obs/metrics.h"

namespace perfbench {

TailSummary summarize(std::vector<double> samples, double max_percentile) {
  TailSummary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = lfbs::obs::Histogram::percentile(samples, 0.5);
  const double n = static_cast<double>(samples.size());
  if (samples.size() <= TailSummary::kTailBeyond) {
    out.percentile = 100.0;
    out.tail = samples.back();
    return out;
  }
  out.percentile = std::min(
      max_percentile, 100.0 * (n - static_cast<double>(TailSummary::kTailBeyond)) / n);
  // Rank ceil(p·n/100) − 1; the epsilon keeps 99·1000/100 from rounding up.
  const double rank = std::ceil(out.percentile * n / 100.0 - 1e-9) - 1.0;
  out.tail = samples[static_cast<std::size_t>(std::max(0.0, rank))];
  return out;
}

TailSummary summarize_segmented(const std::vector<double>& samples,
                                std::size_t segments,
                                std::size_t min_per_segment,
                                double max_percentile) {
  TailSummary out = summarize(samples, max_percentile);
  if (segments < 2 || samples.size() < segments * min_per_segment) return out;
  const std::size_t per = samples.size() / segments;
  std::vector<double> tails;
  for (std::size_t k = 0; k < segments; ++k) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(k * per);
    const auto last = k + 1 == segments
                          ? samples.end()
                          : first + static_cast<std::ptrdiff_t>(per);
    const TailSummary piece =
        summarize(std::vector<double>(first, last), max_percentile);
    tails.push_back(piece.tail);
    out.percentile = piece.percentile;
  }
  out.tail = lfbs::obs::Histogram::percentile(std::move(tails), 0.5);
  return out;
}

double median_segment_rate(const std::vector<double>& amounts,
                           const std::vector<double>& seconds,
                           std::size_t segments) {
  const std::size_t n = std::min(amounts.size(), seconds.size());
  if (n == 0) return 0.0;
  const std::size_t groups = std::max<std::size_t>(1, std::min(segments, n));
  std::vector<double> rates;
  for (std::size_t g = 0; g < groups; ++g) {
    double a = 0.0, t = 0.0;
    for (std::size_t i = g * n / groups; i < (g + 1) * n / groups; ++i) {
      a += amounts[i];
      t += seconds[i];
    }
    if (t > 0.0) rates.push_back(a / t);
  }
  return rates.empty() ? 0.0
                       : lfbs::obs::Histogram::percentile(std::move(rates), 0.5);
}

HostSpeed::HostSpeed()
    : input_(kKernelSamples),
      prefix_(kKernelSamples + 1),
      diff_(kKernelSamples),
      scratch_(kKernelSamples) {
  // Piecewise-constant levels (one per 256 samples) plus splitmix64 noise:
  // a fixed stand-in for a capture, the same on every run.
  std::uint64_t state = 0x5eedULL;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53 - 0.5;
  };
  std::complex<double> level;
  for (std::size_t i = 0; i < input_.size(); ++i) {
    if (i % 256 == 0) level = {next(), next()};
    input_[i] = level + 0.01 * std::complex<double>(next(), next());
  }
}

void HostSpeed::sample() {
  constexpr std::size_t kWindow = 8, kGuard = 2;
  const std::size_t n = input_.size();
  const auto a = Clock::now();
  for (std::size_t i = 0; i < n; ++i) prefix_[i + 1] = prefix_[i] + input_[i];
  std::fill(diff_.begin(), diff_.end(), 0.0);
  const double w = static_cast<double>(kWindow);
  for (std::size_t i = kWindow + kGuard; i + kWindow + kGuard <= n; ++i) {
    const auto before = (prefix_[i - kGuard] - prefix_[i - kGuard - kWindow]) / w;
    const auto after = (prefix_[i + kGuard + kWindow] - prefix_[i + kGuard]) / w;
    diff_[i] = std::abs(after - before);
  }
  const auto mid = scratch_.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::copy(diff_.begin(), diff_.end(), scratch_.begin());
  std::nth_element(scratch_.begin(), mid, scratch_.end());
  const double med = *mid;
  for (std::size_t i = 0; i < n; ++i) scratch_[i] = std::abs(diff_[i] - med);
  std::nth_element(scratch_.begin(), mid, scratch_.end());
  checksum_ += med + *mid;
  record(seconds_between(a, Clock::now()) * 1e3);
}

double HostSpeed::median_ms() const {
  return ms_.empty() ? 0.0 : lfbs::obs::Histogram::percentile(ms_, 0.5);
}

double HostSpeed::slowdown() const {
  return ms_.empty() ? 1.0 : median_ms() / kReferenceMs;
}

void Ledger::add(const std::vector<bool>& payload, Frame frame) {
  const bool fresh = index_.emplace(payload, frames_.size()).second;
  LFBS_CHECK_MSG(fresh, "ground truth holds a repeated payload");
  frames_.push_back(frame);
  delivered_.push_back(false);
}

Verdict Ledger::deliver(const std::vector<bool>& payload,
                        const Frame** matched) {
  const auto it = index_.find(payload);
  if (it == index_.end()) {
    ++fabricated_;
    return Verdict::kFabricated;
  }
  if (matched != nullptr) *matched = &frames_[it->second];
  if (delivered_[it->second]) {
    ++duplicates_;
    return Verdict::kDuplicate;
  }
  delivered_[it->second] = true;
  ++recovered_;
  return Verdict::kRecovered;
}

void Ledger::reset_deliveries() {
  std::fill(delivered_.begin(), delivered_.end(), false);
  recovered_ = duplicates_ = fabricated_ = 0;
}

double OpenLoop::record_send(std::size_t i, Clock::time_point sent) {
  const double late = std::max(0.0, seconds_between(due(i), sent));
  if (late > 0.0) ++late_sends_;
  lateness_.push_back(late);
  return late;
}

void SpanStats::fold(const std::vector<lfbs::obs::SpanRecord>& spans) {
  // Spans nest strictly per thread: sorted by (thread, start, depth), each
  // span's parent is the nearest preceding open span one level up.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = spans[a];
    const auto& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.depth < y.depth;
  });
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  std::uint32_t tid = 0;
  for (const std::size_t i : order) {
    const auto& s = spans[i];
    if (stack.empty() || s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    while (!stack.empty() && spans[stack.back()].depth >= s.depth) {
      stack.pop_back();
    }
    if (!stack.empty() && spans[stack.back()].depth == s.depth - 1) {
      child_us[stack.back()] += static_cast<double>(s.dur_us);
    }
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    Entry& e = entries_[s.name];
    const double dur_ms = static_cast<double>(s.dur_us) * 1e-3;
    ++e.count;
    e.total_ms += dur_ms;
    e.self_ms += std::max(0.0, dur_ms - child_us[i] * 1e-3);
    if (std::find(keep_.begin(), keep_.end(), s.name) != keep_.end()) {
      e.durations_ms.push_back(dur_ms);
    }
  }
}

const SpanStats::Entry& SpanStats::get(const std::string& name) const {
  static const Entry kEmpty;
  const auto it = entries_.find(name);
  return it == entries_.end() ? kEmpty : it->second;
}

}  // namespace perfbench
