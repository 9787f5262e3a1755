// Fault-injection and supervision tests for the streaming decode runtime:
// the fault matrix {drop, corrupt, stall, transient-error, early-EOF},
// worker / subscriber exception containment, retry-with-backoff, the stop
// flag between retries, a stalled decode's latency, the health state
// machine — and the invariant that a disabled injector stays bit-identical
// to the serial WindowedDecoder path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <tuple>

#include "common/check.h"
#include "core/windowed_decoder.h"
#include "runtime/fault_injector.h"
#include "runtime/runtime.h"
#include "runtime/sample_source.h"
#include "sim/scenario.h"
#include "test_support.h"

namespace lfbs::runtime {
namespace {

// ---------------------------------------------------------------------------
// The fault matrix: each fault class through the blocking chunk ring. Every
// cell must complete without crash or deadlock, end in the expected health
// state, and report accurate counters against the injector's ground truth.

enum class FaultKind { kDrop, kCorrupt, kStall, kTransientError, kEarlyEof };

const char* fault_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kStall: return "stall";
    case FaultKind::kTransientError: return "transient_error";
    case FaultKind::kEarlyEof: return "early_eof";
  }
  return "?";
}

class FaultMatrixTest
    : public ::testing::TestWithParam<std::tuple<FaultKind>> {};

TEST_P(FaultMatrixTest, CompletesWithAccurateCountersAndHealth) {
  const auto [kind] = GetParam();
  SCOPED_TRACE(fault_name(kind));
  const auto cap = make_capture(2, 50e-3, 150.0, 71);

  FaultPlan plan;
  plan.seed = 100 + static_cast<std::uint64_t>(kind);
  RuntimeConfig rc;
  rc.workers = 2;
  switch (kind) {
    case FaultKind::kDrop:
      plan.drop_chunk = 0.1;
      break;
    case FaultKind::kCorrupt:
      plan.corrupt_sample = 0.01;
      break;
    case FaultKind::kStall:
      plan.stall = 0.1;
      plan.stall_duration = 30e-3;
      break;
    case FaultKind::kTransientError:
      plan.transient_error = 0.1;
      break;
    case FaultKind::kEarlyEof:
      plan.premature_eof = 0.15;
      break;
  }

  MemorySource mem(cap.buffer, 4096);
  FaultInjectingSource faulty(mem, plan);
  DecodeRuntime rt(rc);
  const auto run = rt.run(faulty);
  const auto& injected = faulty.injected();
  const auto& faults = run.stats.faults;

  // Universal: the run drained and returned; it never failed hard.
  EXPECT_NE(run.stats.health, HealthState::kFailed);
  EXPECT_EQ(run.stats.windows_decoded, run.stats.windows_dispatched);

  switch (kind) {
    case FaultKind::kDrop:
      ASSERT_GT(injected.chunks_dropped, 0u);
      EXPECT_GT(run.stats.samples_gap, 0u);
      EXPECT_EQ(run.stats.health, HealthState::kDegraded);
      break;
    case FaultKind::kCorrupt:
      ASSERT_GT(injected.samples_corrupted, 0u);
      ASSERT_GT(injected.samples_non_finite, 0u);
      // Every non-finite sample the injector produced was scrubbed.
      EXPECT_EQ(faults.samples_scrubbed, injected.samples_non_finite);
      EXPECT_EQ(run.stats.health, HealthState::kDegraded);
      break;
    case FaultKind::kStall: {
      // A stall is latency, not loss: the run decodes exactly what a
      // clean run of the same capture does.
      ASSERT_GT(injected.stalls, 0u);
      MemorySource clean_source(cap.buffer, 4096);
      const auto clean = DecodeRuntime(rc).run(clean_source);
      expect_identical(clean.decode, run.decode);
      EXPECT_EQ(run.stats.health, clean.stats.health);
      EXPECT_EQ(run.stats.samples_in, cap.buffer.size());
      break;
    }
    case FaultKind::kTransientError:
      ASSERT_GT(injected.errors_thrown, 0u);
      EXPECT_EQ(faults.source_transient_errors, injected.errors_thrown);
      EXPECT_EQ(faults.source_retries, injected.errors_thrown);
      EXPECT_EQ(faults.source_failures, 0u);
      EXPECT_EQ(run.stats.health, HealthState::kDegraded);
      // Retried reads lose nothing: the whole capture still decoded.
      EXPECT_EQ(run.stats.samples_in, cap.buffer.size());
      break;
    case FaultKind::kEarlyEof:
      ASSERT_EQ(injected.premature_eofs, 1u);
      EXPECT_LT(run.stats.samples_in, cap.buffer.size());
      // A clean-looking early end is indistinguishable from end-of-stream
      // at the runtime: health stays healthy, the stream is just shorter.
      EXPECT_NE(run.stats.health, HealthState::kFailed);
      break;
  }
}

// Each instance keeps its "_blocking" name (the ring's one policy), and
// the one-element tuple keeps its printed parameter, so existing test ids
// stay valid.
INSTANTIATE_TEST_SUITE_P(
    FaultMatrix, FaultMatrixTest,
    ::testing::Combine(::testing::Values(FaultKind::kDrop,
                                         FaultKind::kCorrupt,
                                         FaultKind::kStall,
                                         FaultKind::kTransientError,
                                         FaultKind::kEarlyEof)),
    [](const auto& info) {
      return std::string(fault_name(std::get<0>(info.param))) + "_blocking";
    });

// ---------------------------------------------------------------------------
// Acceptance criterion: 5% chunk loss + 1% sample corruption over a
// multi-epoch ScenarioSource run completes, reports kDegraded with nonzero
// per-fault counters, and still recovers at least one CRC-valid frame.

TEST(FaultInjection, DegradedScenarioStillRecoversFrames) {
  Rng rng(81);
  sim::ScenarioConfig sc;
  sc.num_tags = 6;
  sim::Scenario scenario(sc, rng);
  ScenarioSource::Config config;
  config.epochs = 3;
  ScenarioSource source(scenario, rng, config);

  FaultPlan plan;
  plan.seed = 9;
  plan.drop_chunk = 0.05;
  plan.corrupt_sample = 0.01;
  FaultInjectingSource faulty(source, plan);

  RuntimeConfig rc;
  rc.windowed.decoder = scenario.default_decoder();
  rc.workers = 2;
  DecodeRuntime rt(rc);
  const auto run = rt.run(faulty);

  EXPECT_EQ(run.stats.health, HealthState::kDegraded);
  EXPECT_GT(faulty.injected().chunks_dropped, 0u);
  EXPECT_GT(faulty.injected().samples_corrupted, 0u);
  EXPECT_GT(run.stats.faults.samples_scrubbed, 0u);
  EXPECT_GT(run.stats.samples_gap, 0u);

  std::size_t valid = 0;
  for (const auto& s : run.decode.streams) {
    for (const auto& f : s.frames) {
      if (f.valid()) ++valid;
    }
  }
  EXPECT_GE(valid, 1u);
}

// ---------------------------------------------------------------------------
// The flip side of the acceptance criterion: with the injector disabled
// (default FaultPlan) the runtime output is bit-identical to the serial
// WindowedDecoder at any worker count, and health stays kHealthy.

TEST(FaultInjection, DisabledInjectorIsBitTransparent) {
  const auto cap = make_capture(3, 60e-3, 150.0, 72);
  core::WindowedDecoderConfig wc;
  const auto serial = core::WindowedDecoder(wc).decode(cap.buffer);
  ASSERT_FALSE(serial.streams.empty());
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    MemorySource mem(cap.buffer, 10000);
    FaultInjectingSource faulty(mem, FaultPlan{});
    EXPECT_FALSE(faulty.plan().enabled());
    RuntimeConfig rc;
    rc.windowed = wc;
    rc.workers = workers;
    DecodeRuntime rt(rc);
    const auto run = rt.run(faulty);
    expect_identical(serial, run.decode);
    EXPECT_EQ(run.stats.health, HealthState::kHealthy);
    EXPECT_EQ(run.stats.faults.total(), 0u);
    EXPECT_EQ(run.stats.samples_in, cap.buffer.size());
  }
}

// ---------------------------------------------------------------------------
// Supervision internals.

/// A source whose every read fails; transient or fatal per construction.
class BrokenSource : public SampleSource {
 public:
  explicit BrokenSource(bool transient) : transient_(transient) {}
  SampleRate sample_rate() const override { return 1e6; }
  std::optional<SampleChunk> next_chunk() override {
    ++reads_;
    throw SourceError("device unplugged", transient_);
  }
  std::size_t reads() const { return reads_; }

 private:
  bool transient_;
  std::size_t reads_ = 0;
};

TEST(Supervision, ExhaustedRetriesFailTheRunCleanly) {
  BrokenSource source(/*transient=*/true);
  RuntimeConfig rc;
  rc.workers = 2;
  DecodeRuntime rt(rc);
  const auto run = rt.run(source);
  EXPECT_EQ(run.stats.health, HealthState::kFailed);
  EXPECT_EQ(run.stats.faults.source_failures, 1u);
  EXPECT_EQ(run.stats.faults.source_retries, kMaxSourceRetries);
  EXPECT_EQ(source.reads(), 4u);  // initial attempt + 3 retries
  EXPECT_TRUE(run.decode.streams.empty());
}

TEST(Supervision, StopBetweenRetriesEndsTheStreamWithoutFailing) {
  // A stop requested while a read fails transiently is honoured before the
  // retry: the stream ends at once and the run reports the stop, degraded
  // by the error it saw but not failed by a retry budget it never spent.
  class StopThenThrowSource : public SampleSource {
   public:
    explicit StopThenThrowSource(std::atomic<bool>& stop) : stop_(stop) {}
    SampleRate sample_rate() const override { return 1e6; }
    std::optional<SampleChunk> next_chunk() override {
      ++reads_;
      stop_.store(true);
      throw SourceError("link hiccup", /*transient=*/true);
    }
    std::size_t reads() const { return reads_; }

   private:
    std::atomic<bool>& stop_;
    std::size_t reads_ = 0;
  };

  std::atomic<bool> stop{false};
  StopThenThrowSource source(stop);
  RuntimeConfig rc;
  rc.workers = 1;
  rc.stop_flag = &stop;
  DecodeRuntime rt(rc);
  const auto run = rt.run(source);
  EXPECT_EQ(source.reads(), 1u);
  EXPECT_TRUE(run.stats.stopped_early);
  EXPECT_EQ(run.stats.faults.source_failures, 0u);
  EXPECT_EQ(run.stats.faults.source_retries, 0u);
  EXPECT_NE(run.stats.health, HealthState::kFailed);
  EXPECT_EQ(run.stats.health, HealthState::kDegraded);
}

TEST(Supervision, NonTransientErrorFailsWithoutRetry) {
  BrokenSource source(/*transient=*/false);
  RuntimeConfig rc;
  rc.workers = 1;
  DecodeRuntime rt(rc);
  const auto run = rt.run(source);
  EXPECT_EQ(run.stats.health, HealthState::kFailed);
  EXPECT_EQ(run.stats.faults.source_retries, 0u);
  EXPECT_EQ(source.reads(), 1u);
}

TEST(Supervision, SourceFailureMidStreamKeepsEarlierDecode) {
  // A source that dies partway: everything decoded before the failure is
  // still returned, with health kFailed.
  class DyingSource : public SampleSource {
   public:
    DyingSource(const signal::SampleBuffer& buffer, std::size_t fail_after)
        : inner_(buffer, 4096), fail_after_(fail_after) {}
    SampleRate sample_rate() const override { return inner_.sample_rate(); }
    std::optional<SampleChunk> next_chunk() override {
      if (++reads_ > fail_after_) {
        throw SourceError("link lost", /*transient=*/false);
      }
      return inner_.next_chunk();
    }

   private:
    MemorySource inner_;
    std::size_t fail_after_;
    std::size_t reads_ = 0;
  };

  const auto cap = make_capture(2, 60e-3, 150.0, 73);
  DyingSource source(cap.buffer, 40);
  RuntimeConfig rc;
  rc.workers = 2;
  DecodeRuntime rt(rc);
  const auto run = rt.run(source);
  EXPECT_EQ(run.stats.health, HealthState::kFailed);
  EXPECT_EQ(run.stats.samples_in, 40u * 4096u);
  EXPECT_GT(run.stats.windows_decoded, 0u);
}

TEST(Supervision, WorkerExceptionIsZeroFilledAndCounted) {
  const auto cap = make_capture(2, 60e-3, 150.0, 74);
  RuntimeConfig rc;
  rc.workers = 3;
  // Fault drill: window 1 throws in the decode path.
  rc.decode_fault_hook = [](std::size_t window_index) {
    if (window_index == 1) throw std::runtime_error("drill: decode blew up");
  };
  DecodeRuntime rt(rc);
  const auto run = rt.decode(cap.buffer, 8192);
  EXPECT_EQ(run.stats.health, HealthState::kDegraded);
  EXPECT_EQ(run.stats.faults.worker_exceptions, 1u);
  // The pipeline carried on: every window (including the zero-filled one)
  // was delivered and stitched.
  EXPECT_EQ(run.stats.windows_decoded, run.stats.windows_dispatched);
  EXPECT_GT(run.stats.windows_decoded, 1u);
}

TEST(Supervision, StalledDecodeShowsInWindowLatency) {
  // A window decode held 40 ms is latency, not a fault: the run's slowest
  // window shows it, and the decode and health are an unheld run's.
  const auto cap = make_capture(2, 50e-3, 150.0, 75);
  RuntimeConfig rc;
  rc.workers = 2;
  const auto unheld = DecodeRuntime(rc).decode(cap.buffer, 8192);
  rc.decode_fault_hook = [](std::size_t window_index) {
    if (window_index == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  };
  const auto held = DecodeRuntime(rc).decode(cap.buffer, 8192);
  EXPECT_GE(held.stats.window_latency_max_ms, 40.0);
  expect_identical(unheld.decode, held.decode);
  EXPECT_EQ(held.stats.health, unheld.stats.health);
}

TEST(Supervision, SubscriberExceptionIsIsolatedAndCounted) {
  const auto cap = make_capture(2, 50e-3, 150.0, 76);
  RuntimeConfig rc;
  rc.workers = 2;
  DecodeRuntime rt(rc);
  std::size_t delivered_after = 0;
  rt.bus().subscribe([](const FrameEvent&) {
    throw std::runtime_error("subscriber bug");
  });
  rt.bus().subscribe([&](const FrameEvent&) { ++delivered_after; });
  const auto run = rt.decode(cap.buffer, 8192);
  ASSERT_GT(run.stats.frames_published, 0u);
  // The throwing subscriber never starved the one after it.
  EXPECT_EQ(delivered_after, run.stats.frames_published);
  EXPECT_EQ(run.stats.faults.subscriber_exceptions,
            run.stats.frames_published);
  EXPECT_EQ(run.stats.health, HealthState::kDegraded);
}

// ---------------------------------------------------------------------------
// Fault-plan spec parsing (the CLI surface of --inject-faults).

TEST(FaultPlanSpec, ParsesEveryKey) {
  const auto plan = parse_fault_plan(
      "seed=42,drop=0.05,truncate=0.02,corrupt=0.01,stall=0.002,"
      "stall-ms=5,error=0.01,eof=0.001");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.drop_chunk, 0.05);
  EXPECT_DOUBLE_EQ(plan.truncate_chunk, 0.02);
  EXPECT_DOUBLE_EQ(plan.corrupt_sample, 0.01);
  EXPECT_DOUBLE_EQ(plan.stall, 0.002);
  EXPECT_DOUBLE_EQ(plan.stall_duration, 5e-3);
  EXPECT_DOUBLE_EQ(plan.transient_error, 0.01);
  EXPECT_DOUBLE_EQ(plan.premature_eof, 0.001);
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlanSpec, EmptySpecIsDisabled) {
  EXPECT_FALSE(parse_fault_plan("").enabled());
}

TEST(FaultPlanSpec, RejectsUnknownKeyAndBareWord) {
  EXPECT_THROW(parse_fault_plan("drop=0.1,bogus=1"), CheckError);
  EXPECT_THROW(parse_fault_plan("drop"), CheckError);
  // Numbers parse whole: no sign on integers, no trailing characters.
  EXPECT_THROW(parse_fault_plan("seed=-1"), CheckError);
  EXPECT_THROW(parse_fault_plan("drop=0.1x"), CheckError);
  EXPECT_THROW(parse_fault_plan("drop=inf"), CheckError);
}

// ---------------------------------------------------------------------------
// Injector mechanics in isolation (no runtime).

TEST(FaultInjectingSource, DeterministicFromSeed) {
  const auto cap = make_capture(2, 40e-3, 150.0, 77);
  FaultPlan plan;
  plan.seed = 5;
  plan.drop_chunk = 0.2;
  plan.corrupt_sample = 0.01;
  auto collect = [&] {
    MemorySource mem(cap.buffer, 2048);
    FaultInjectingSource faulty(mem, plan);
    std::vector<SampleChunk> chunks;
    while (auto c = faulty.next_chunk()) chunks.push_back(std::move(*c));
    return std::make_pair(std::move(chunks), faulty.injected());
  };
  const auto [first, first_stats] = collect();
  const auto [second, second_stats] = collect();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first_stats.chunks_dropped, second_stats.chunks_dropped);
  EXPECT_EQ(first_stats.samples_corrupted, second_stats.samples_corrupted);
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i].first_sample, second[i].first_sample);
    ASSERT_EQ(first[i].samples.size(), second[i].samples.size());
    for (std::size_t s = 0; s < first[i].samples.size(); ++s) {
      const auto& a = first[i].samples[s];
      const auto& b = second[i].samples[s];
      // NaN != NaN; compare bit-presence of non-finites instead.
      const bool a_fin =
          std::isfinite(a.real()) && std::isfinite(a.imag());
      const bool b_fin =
          std::isfinite(b.real()) && std::isfinite(b.imag());
      ASSERT_EQ(a_fin, b_fin);
      if (a_fin) {
        ASSERT_EQ(a, b);
      }
    }
  }
}

TEST(FaultInjectingSource, TruncationPreservesPositions) {
  const auto cap = make_capture(2, 40e-3, 150.0, 78);
  FaultPlan plan;
  plan.seed = 6;
  plan.truncate_chunk = 0.5;
  MemorySource mem(cap.buffer, 2048);
  FaultInjectingSource faulty(mem, plan);
  std::uint64_t highest_end = 0;
  std::uint64_t covered = 0;
  while (auto c = faulty.next_chunk()) {
    EXPECT_GE(c->first_sample, highest_end);  // never rewinds
    highest_end = c->first_sample + c->size();
    covered += c->size();
  }
  ASSERT_GT(faulty.injected().chunks_truncated, 0u);
  EXPECT_EQ(covered + faulty.injected().samples_truncated,
            cap.buffer.size());
}

}  // namespace
}  // namespace lfbs::runtime
