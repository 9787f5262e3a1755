// Unit tests of the benchmark's own measurement helpers.
#include <gtest/gtest.h>

#include "helpers.h"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

std::size_t beyond(const std::vector<double>& v, double x) {
  std::size_t n = 0;
  for (const double s : v) n += s > x ? 1 : 0;
  return n;
}

TEST(HostSpeed, SlowdownIsTheMedianKernelTimeOverTheReference) {
  HostSpeed speed;
  EXPECT_DOUBLE_EQ(speed.slowdown(), 1.0);
  EXPECT_DOUBLE_EQ(speed.median_ms(), 0.0);
  for (const double ms : {1.2, 9.0, 1.1, 1.3, 0.2}) speed.record(ms);
  EXPECT_EQ(speed.samples(), 5u);
  EXPECT_DOUBLE_EQ(speed.median_ms(), 1.2);
  EXPECT_DOUBLE_EQ(speed.slowdown(), 1.2 / HostSpeed::kReferenceMs);
}

TEST(HostSpeed, SampleTimesTheKernel) {
  HostSpeed speed;
  speed.sample();
  speed.sample();
  EXPECT_EQ(speed.samples(), 2u);
  EXPECT_GT(speed.median_ms(), 0.0);
}

TEST(TailSummary, ThousandSamplesGiveP99WithTenBeyond) {
  const auto v = ramp(1000);
  const TailSummary s = summarize(v, 99.0);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.percentile, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);
  EXPECT_EQ(beyond(v, s.tail), 10u);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
}

TEST(TailSummary, FewerSamplesLowerThePercentileToKeepTenBeyond) {
  const auto v = ramp(100);
  const TailSummary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.percentile, 90.0);
  EXPECT_DOUBLE_EQ(s.tail, 90.0);
  EXPECT_EQ(beyond(v, s.tail), 10u);
}

TEST(TailSummary, DefaultCapIsP95) {
  const auto v = ramp(200);
  const TailSummary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.percentile, 95.0);
  EXPECT_DOUBLE_EQ(s.tail, 190.0);
  EXPECT_EQ(beyond(v, s.tail), 10u);
}

TEST(TailSummary, ManySamplesStayAtTheCap) {
  const auto v = ramp(100000);
  const TailSummary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.percentile, 95.0);
  EXPECT_EQ(beyond(v, s.tail), 5000u);
}

TEST(TailSummary, TenOrFewerSamplesReportTheMaximum) {
  const TailSummary s = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.percentile, 100.0);
  EXPECT_DOUBLE_EQ(s.tail, 3.0);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(TailSummary, OrderDoesNotMatter) {
  auto v = ramp(500);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(summarize(v).tail, summarize(ramp(500)).tail);
}

TEST(TailSummary, SegmentedTailIsTheMedianOfSegmentTails) {
  // Ten segments of 1000: segment k holds k*1000+1 .. k*1000+1000, so its
  // p95 is k*1000+950 and the median over segments is 5450 (between 4950
  // and 5950 at p50 interpolation).
  const auto v = ramp(10000);
  const TailSummary s = summarize_segmented(v);
  EXPECT_EQ(s.count, 10000u);
  EXPECT_DOUBLE_EQ(s.percentile, 95.0);
  EXPECT_DOUBLE_EQ(s.tail, 5450.0);
  EXPECT_DOUBLE_EQ(s.p50, 5000.5);
  // Too few samples per segment: the plain rule.
  EXPECT_DOUBLE_EQ(summarize_segmented(ramp(5000)).tail,
                   summarize(ramp(5000)).tail);
}

TEST(SegmentRate, MedianOfGroupRatesIgnoresOneSlowGroup) {
  // Ten groups of two ops at 100 units/s, except one group at 10 units/s.
  std::vector<double> amounts(20, 100.0), seconds(20, 1.0);
  seconds[6] = seconds[7] = 10.0;
  EXPECT_DOUBLE_EQ(median_segment_rate(amounts, seconds), 100.0);
  // Fewer ops than segments: the overall rate.
  EXPECT_DOUBLE_EQ(median_segment_rate({10.0, 30.0}, {1.0, 1.0}), 20.0);
  EXPECT_DOUBLE_EQ(median_segment_rate({}, {}), 0.0);
}

TEST(Ledger, SeparatesRecoveredDuplicateFabricatedAndMissed) {
  Ledger ledger;
  const std::vector<bool> a{true, false, true};
  const std::vector<bool> b{false, false, true};
  const std::vector<bool> c{true, true, true};
  ledger.add(a, {0, 0, 100});
  ledger.add(b, {1, 0, 200});
  ledger.add(c, {2, 0, 300});

  const Ledger::Frame* f = nullptr;
  EXPECT_EQ(ledger.deliver(b, &f), Verdict::kRecovered);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->tag, 1u);
  EXPECT_EQ(f->end_sample, 200u);
  EXPECT_EQ(ledger.deliver(b), Verdict::kDuplicate);
  EXPECT_EQ(ledger.deliver({false, true, false}), Verdict::kFabricated);
  EXPECT_EQ(ledger.deliver(a), Verdict::kRecovered);

  EXPECT_EQ(ledger.transmitted(), 3u);
  EXPECT_EQ(ledger.recovered(), 2u);
  EXPECT_EQ(ledger.missed(), 1u);
  EXPECT_EQ(ledger.duplicates(), 1u);
  EXPECT_EQ(ledger.fabricated(), 1u);

  ledger.reset_deliveries();
  EXPECT_EQ(ledger.recovered(), 0u);
  EXPECT_EQ(ledger.missed(), 3u);
  EXPECT_EQ(ledger.fabricated(), 0u);
  EXPECT_EQ(ledger.deliver(b), Verdict::kRecovered);
}

TEST(Ledger, AFrameOfAnotherTransmissionIsFabricated) {
  Ledger one, two;
  one.add({true, true}, {});
  two.add({false, true}, {});
  EXPECT_EQ(one.deliver({false, true}), Verdict::kFabricated);
  EXPECT_EQ(one.missed(), 1u);
}

TEST(OpenLoop, DueTimesFollowTheRateNotTheSends) {
  const auto t0 = Clock::time_point{} + std::chrono::seconds(100);
  OpenLoop loop(1000.0, t0);
  EXPECT_EQ(loop.due(0), t0);
  EXPECT_NEAR(seconds_between(t0, loop.due(250)), 0.25, 1e-9);

  // On time, then a 5 ms stall that delays the next three sends: each is
  // charged from its own due time, and early sends count as zero.
  EXPECT_DOUBLE_EQ(loop.record_send(0, t0), 0.0);
  const auto stall_end = t0 + std::chrono::milliseconds(6);
  EXPECT_NEAR(loop.record_send(1, stall_end), 0.005, 1e-9);
  EXPECT_NEAR(loop.record_send(2, stall_end), 0.004, 1e-9);
  EXPECT_NEAR(loop.record_send(3, stall_end), 0.003, 1e-9);
  EXPECT_DOUBLE_EQ(
      loop.record_send(4, t0 + std::chrono::microseconds(3500)), 0.0);
  EXPECT_EQ(loop.late_sends(), 3u);
  ASSERT_EQ(loop.lateness().size(), 5u);
}

lfbs::obs::SpanRecord span(const char* name, std::uint32_t tid,
                           std::int64_t start, std::int64_t dur,
                           std::int32_t depth) {
  lfbs::obs::SpanRecord r;
  r.name = name;
  r.tid = tid;
  r.start_us = start;
  r.dur_us = dur;
  r.depth = depth;
  return r;
}

TEST(SpanStats, SelfTimeSubtractsDirectChildrenOnTheSameThread) {
  SpanStats stats({"outer"});
  // Thread 1: outer [0,100) holds a [10,40) which holds b [15,25), and
  // c [50,70). Thread 2 runs an unrelated span during outer.
  stats.fold({span("b", 1, 15, 10, 2), span("a", 1, 10, 30, 1),
              span("c", 1, 50, 20, 1), span("outer", 1, 0, 100, 0),
              span("other", 2, 5, 90, 0)});
  EXPECT_DOUBLE_EQ(stats.get("outer").self_ms, 0.050);
  EXPECT_DOUBLE_EQ(stats.get("a").self_ms, 0.020);
  EXPECT_DOUBLE_EQ(stats.get("b").self_ms, 0.010);
  EXPECT_DOUBLE_EQ(stats.get("other").self_ms, 0.090);
  EXPECT_EQ(stats.get("outer").durations_ms.size(), 1u);
  EXPECT_TRUE(stats.get("a").durations_ms.empty());
  EXPECT_EQ(stats.get("missing").count, 0u);
}

}  // namespace
}  // namespace perfbench
