// Tests for the concurrent streaming decode runtime: ring-buffer
// backpressure, sample sources, frame bus fan-out, and — the load-bearing
// property — bit-exact equivalence between the parallel pipeline and the
// serial WindowedDecoder at every worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include <sstream>

#include "core/windowed_decoder.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "runtime/frame_bus.h"
#include "runtime/ring_buffer.h"
#include "runtime/runtime.h"
#include "runtime/sample_source.h"
#include "signal/iq_io.h"
#include "sim/scenario.h"
#include "test_support.h"

namespace lfbs::runtime {
namespace {

TEST(BoundedRing, PushPopOrderAndClose) {
  BoundedRing<int> ring(4);
  EXPECT_TRUE(ring.push(1));
  EXPECT_TRUE(ring.push(2));
  EXPECT_EQ(ring.pop().value(), 1);
  EXPECT_EQ(ring.pop().value(), 2);
  ring.close();
  EXPECT_FALSE(ring.pop().has_value());
  EXPECT_FALSE(ring.push(3));
}

TEST(BoundedRing, SlowConsumerBoundsMemory) {
  // A producer far faster than the consumer: push blocks, so the ring
  // never exceeds its capacity and every item arrives, in order.
  BoundedRing<int> ring(8);
  std::vector<int> consumed;
  std::thread consumer([&] {
    while (auto item = ring.pop()) {
      consumed.push_back(*item);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const int produced = 2000;
  for (int i = 0; i < produced; ++i) EXPECT_TRUE(ring.push(i));
  ring.close();
  consumer.join();
  EXPECT_LE(ring.high_watermark(), 8u);
  ASSERT_EQ(consumed.size(), static_cast<std::size_t>(produced));
  for (int i = 0; i < produced; ++i) EXPECT_EQ(consumed[i], i);
}

TEST(IqReader, StreamsSameSamplesAsWholeFileLoad) {
  Rng rng(31);
  std::vector<Complex> samples;
  for (int i = 0; i < 10000; ++i) {
    samples.emplace_back(rng.gaussian(), rng.gaussian());
  }
  const signal::SampleBuffer buffer(2.5 * kMsps, std::move(samples));
  const std::string path = ::testing::TempDir() + "iq_reader_test.lfbsiq";
  signal::save_iq(buffer, path);

  signal::IqReader reader(path);
  EXPECT_EQ(reader.sample_rate(), buffer.sample_rate());
  EXPECT_EQ(reader.total(), buffer.size());
  std::vector<Complex> streamed;
  while (reader.read(777, streamed) > 0) {
  }
  const auto whole = signal::load_iq(path);
  ASSERT_EQ(streamed.size(), whole.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_EQ(streamed[i], whole[i]) << "sample " << i;
  }
  std::remove(path.c_str());
}

TEST(MemorySource, ChunksCoverBufferContiguously) {
  Rng rng(32);
  std::vector<Complex> samples;
  for (int i = 0; i < 1000; ++i) samples.emplace_back(rng.uniform(), 0.0);
  const signal::SampleBuffer buffer(1e6, std::move(samples));
  MemorySource source(buffer, 128);
  std::uint64_t next = 0;
  while (auto chunk = source.next_chunk()) {
    EXPECT_EQ(chunk->first_sample, next);
    EXPECT_LE(chunk->size(), 128u);
    for (std::size_t i = 0; i < chunk->size(); ++i) {
      EXPECT_EQ(chunk->samples[i], buffer[next + i]);
    }
    next += chunk->size();
  }
  EXPECT_EQ(next, buffer.size());
}

TEST(ScenarioSource, GeneratesEpochsAndRecordsPayloads) {
  Rng rng(33);
  sim::ScenarioConfig sc;
  sc.num_tags = 4;
  sc.sample_rate = 5.0 * kMsps;
  sim::Scenario scenario(sc, rng);
  ScenarioSource::Config config;
  config.epochs = 3;
  config.frames_per_tag = 2;
  config.chunk_samples = 4096;
  ScenarioSource source(scenario, rng, config);
  EXPECT_EQ(source.sample_rate(), sc.sample_rate);
  std::uint64_t next = 0;
  while (auto chunk = source.next_chunk()) {
    EXPECT_EQ(chunk->first_sample, next);
    next += chunk->size();
  }
  EXPECT_EQ(source.sent_payloads().size(), 3u * 4u * 2u);
  EXPECT_GT(next, 0u);
}

TEST(FrameBus, SubscribeUnsubscribePublish) {
  FrameBus bus;
  int a = 0;
  int b = 0;
  const auto ida = bus.subscribe([&](const FrameEvent&) { ++a; });
  const auto idb = bus.subscribe([&](const FrameEvent&) { ++b; });
  bus.publish({});
  bus.unsubscribe(ida);
  bus.publish({});
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(bus.published(), 2u);
  bus.unsubscribe(idb);
}

TEST(FrameBus, ConcurrentPublishersDeliverEveryEvent) {
  // Several threads publish while another churns subscriptions: the
  // permanent subscriber must see every single event exactly once and the
  // bus's own accounting must match. (This is the TSan target for the
  // bus: publish holds the subscriber list stable against the churn.)
  FrameBus bus;
  std::atomic<std::size_t> seen{0};
  bus.subscribe([&](const FrameEvent&) { ++seen; });
  constexpr std::size_t kPublishers = 4;
  constexpr std::size_t kPerPublisher = 500;
  std::atomic<bool> stop_churn{false};
  std::thread churn([&] {
    while (!stop_churn.load()) {
      const auto id = bus.subscribe([](const FrameEvent&) {});
      bus.unsubscribe(id);
    }
  });
  std::vector<std::thread> publishers;
  for (std::size_t p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&, p] {
      FrameEvent event;
      event.stream_index = p;
      for (std::size_t i = 0; i < kPerPublisher; ++i) bus.publish(event);
    });
  }
  for (auto& t : publishers) t.join();
  stop_churn = true;
  churn.join();
  EXPECT_EQ(seen.load(), kPublishers * kPerPublisher);
  EXPECT_EQ(bus.published(), kPublishers * kPerPublisher);
  EXPECT_EQ(bus.handler_exceptions(), 0u);
}

TEST(FrameBus, HandlerMaySubscribeReentrantly) {
  // A handler adding a subscriber mid-publish must not invalidate the
  // in-flight delivery (the COW snapshot stays stable); the new subscriber
  // starts receiving from the *next* publish.
  FrameBus bus;
  int late = 0;
  FrameBus::SubscriberId late_id = 0;
  bool added = false;
  bus.subscribe([&](const FrameEvent&) {
    if (!added) {
      added = true;
      late_id = bus.subscribe([&](const FrameEvent&) { ++late; });
    }
  });
  bus.publish({});
  EXPECT_EQ(late, 0) << "same-publish delivery would mean the snapshot "
                        "mutated mid-iteration";
  bus.publish({});
  EXPECT_EQ(late, 1);
  bus.unsubscribe(late_id);
  bus.publish({});
  EXPECT_EQ(late, 1);
  EXPECT_EQ(bus.handler_exceptions(), 0u);
}

TEST(FrameBus, HandlerMayUnsubscribeItselfAndPeersReentrantly) {
  // Self-removal and peer-removal from inside a handler: the current
  // publish still delivers to every subscriber captured in its snapshot,
  // and the removals take effect afterwards.
  FrameBus bus;
  int self = 0;
  int peer = 0;
  FrameBus::SubscriberId self_id = 0;
  FrameBus::SubscriberId peer_id = 0;
  peer_id = bus.subscribe([&](const FrameEvent&) { ++peer; });
  self_id = bus.subscribe([&](const FrameEvent&) {
    ++self;
    bus.unsubscribe(self_id);   // remove myself
    bus.unsubscribe(peer_id);   // remove a peer ahead of me in the list
  });
  int after = 0;
  bus.subscribe([&](const FrameEvent&) { ++after; });
  bus.publish({});
  // Snapshot semantics: everyone subscribed at publish time ran once —
  // including the subscriber after the one doing the removing.
  EXPECT_EQ(peer, 1);
  EXPECT_EQ(self, 1);
  EXPECT_EQ(after, 1);
  bus.publish({});
  EXPECT_EQ(peer, 1);
  EXPECT_EQ(self, 1);
  EXPECT_EQ(after, 2);
  EXPECT_EQ(bus.handler_exceptions(), 0u);
  EXPECT_EQ(bus.published(), 2u);
}

TEST(DecodeRuntime, TracedRunStaysBitIdenticalAndLogsEveryFrame) {
  // The tentpole's zero-interference contract: attaching the tracer and
  // the structured event log must not change a single decoded bit, and
  // every frame the bus publishes must appear as one "frame" JSONL line.
  const auto cap = make_capture(2, 50e-3, 150.0, 48);
  core::WindowedDecoderConfig wc;
  const auto serial = core::WindowedDecoder(wc).decode(cap.buffer);
  ASSERT_FALSE(serial.streams.empty());

  std::ostringstream jsonl;
  obs::JsonlWriter writer(jsonl);
  obs::EventLog log(writer);
  obs::Tracer tracer;
  tracer.set_sink(&writer);
  obs::set_tracer(&tracer);
  obs::set_event_log(&log);

  RuntimeConfig rc;
  rc.windowed = wc;
  rc.workers = 2;
  DecodeRuntime rt(rc);
  const auto run = rt.decode(cap.buffer, 8192);

  obs::set_tracer(nullptr);
  obs::set_event_log(nullptr);
  tracer.flush();

  expect_identical(serial, run.decode);
  EXPECT_GT(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);

  // Count the typed lines back out of the stream.
  std::size_t frame_lines = 0;
  std::size_t span_lines = 0;
  std::string line;
  std::istringstream in(jsonl.str());
  while (std::getline(in, line)) {
    const auto parsed = obs::parse_json(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    const std::string type = parsed->member_str("type", "");
    if (type == "frame") ++frame_lines;
    if (type == "span") ++span_lines;
  }
  EXPECT_EQ(frame_lines, run.stats.frames_published);
  EXPECT_EQ(span_lines, tracer.recorded());
}

TEST(DecodeRuntime, ParallelMatchesSerialBitForBit) {
  // The acceptance property: the same multi-tag capture decoded through
  // the serial WindowedDecoder and through the runtime at 1, 2, 4 and 8
  // workers yields identical stitched frames.
  const auto cap = make_capture(3, 60e-3, 150.0, 41);
  core::WindowedDecoderConfig wc;
  const auto serial = core::WindowedDecoder(wc).decode(cap.buffer);
  ASSERT_FALSE(serial.streams.empty());
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    RuntimeConfig rc;
    rc.windowed = wc;
    rc.workers = workers;
    DecodeRuntime rt(rc);
    const auto run = rt.decode(cap.buffer, 10000);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_identical(serial, run.decode);
    EXPECT_EQ(run.stats.samples_in, cap.buffer.size());
    EXPECT_EQ(run.stats.samples_gap, 0u);
    EXPECT_EQ(run.stats.windows_decoded, run.stats.windows_dispatched);
  }
}

TEST(DecodeRuntime, ShortCaptureMatchesSerialFallThrough) {
  // A capture under 1.5 windows must take the same whole-buffer plain
  // decode inside the runtime as WindowedDecoder::decode does serially.
  const auto cap = make_capture(2, 8e-3, 150.0, 42);
  core::WindowedDecoderConfig wc;
  const auto serial = core::WindowedDecoder(wc).decode(cap.buffer);
  RuntimeConfig rc;
  rc.windowed = wc;
  rc.workers = 3;
  DecodeRuntime rt(rc);
  const auto run = rt.decode(cap.buffer, 4096);
  expect_identical(serial, run.decode);
  EXPECT_EQ(run.stats.windows_decoded, 1u);
}

TEST(DecodeRuntime, RepeatedRunsAreReproducible) {
  // Worker scheduling varies run to run; the per-window Rng streams keyed
  // by window index make the output independent of it.
  const auto cap = make_capture(2, 50e-3, 150.0, 43);
  core::WindowedDecoderConfig wc;
  RuntimeConfig rc;
  rc.windowed = wc;
  rc.workers = 4;
  const auto first = DecodeRuntime(rc).decode(cap.buffer, 8192);
  const auto second = DecodeRuntime(rc).decode(cap.buffer, 8192);
  expect_identical(first.decode, second.decode);
}

TEST(DecodeRuntime, FrameBusDeliversEveryStitchedFrame) {
  const auto cap = make_capture(2, 50e-3, 150.0, 44);
  core::WindowedDecoderConfig wc;
  RuntimeConfig rc;
  rc.windowed = wc;
  rc.workers = 2;
  DecodeRuntime rt(rc);
  std::size_t valid = 0;
  std::size_t total = 0;
  rt.bus().subscribe([&](const FrameEvent& event) {
    ++total;
    if (event.frame.valid()) ++valid;
  });
  const auto run = rt.decode(cap.buffer, 8192);
  std::size_t expected_total = 0;
  for (const auto& s : run.decode.streams) expected_total += s.frames.size();
  EXPECT_EQ(total, expected_total);
  EXPECT_EQ(run.stats.frames_published, expected_total);
  EXPECT_GT(valid, 0u);
}

/// A MemorySource that counts its reads and lets another thread wait for
/// a count.
class ReadCountingSource : public SampleSource {
 public:
  ReadCountingSource(const signal::SampleBuffer& buffer,
                     std::size_t chunk_samples)
      : inner_(buffer, chunk_samples) {}

  SampleRate sample_rate() const override { return inner_.sample_rate(); }

  std::optional<SampleChunk> next_chunk() override {
    {
      std::lock_guard lock(mutex_);
      ++reads_;
    }
    read_cv_.notify_all();
    return inner_.next_chunk();
  }

  /// Blocks until `reads` reads have begun or `timeout`; true on the first.
  bool wait_reads(std::size_t reads, std::chrono::seconds timeout) {
    std::unique_lock lock(mutex_);
    return read_cv_.wait_for(lock, timeout, [&] { return reads_ >= reads; });
  }

 private:
  MemorySource inner_;
  std::mutex mutex_;
  std::condition_variable read_cv_;
  std::size_t reads_ = 0;
};

TEST(DecodeRuntime, BackpressureBoundsRingAndCountsDrops) {
  // One overflow policy, and it loses nothing: a consumer slower than the
  // source blocks ingest at the ring's capacity instead of dropping. The
  // consumer is made slower by construction, not by timing: the one
  // worker holds window 0 until the source has been read as far as the
  // pipeline can buffer — the slicer blocked submitting window 5 (behind
  // the held window and the worker's 4-job queue), the 2-chunk ring full,
  // and one more chunk in the ingest thread's hand. That read can only
  // happen once the ring is full, so the watermark must equal the
  // capacity, and nothing past it can be read until the worker lets go.
  const auto cap = make_capture(2, 60e-3, 150.0, 45);
  constexpr std::size_t kChunk = 2048;
  constexpr std::size_t kRing = 2;
  core::WindowedDecoderConfig wc;
  wc.window = 5e-3;
  const core::WindowedDecoder serial_decoder(wc);
  // The chunks the slicer consumes before it emits window 5.
  std::size_t slicer_chunks = 0;
  {
    core::WindowSlicer slicer(serial_decoder, cap.buffer.sample_rate());
    std::size_t jobs = 0;
    for (std::size_t at = 0; jobs < 6; at += kChunk) {
      ASSERT_LT(at, cap.buffer.size());
      ++slicer_chunks;
      slicer.push(at,
                  cap.buffer.slice(at, std::min(at + kChunk,
                                                cap.buffer.size())),
                  [&](core::WindowJob) { ++jobs; });
    }
  }

  ReadCountingSource source(cap.buffer, kChunk);
  RuntimeConfig rc;
  rc.windowed = wc;
  rc.workers = 1;
  rc.ring_capacity = kRing;
  rc.decode_fault_hook = [&](std::size_t index) {
    if (index == 0) {
      EXPECT_TRUE(source.wait_reads(slicer_chunks + kRing + 1,
                                    std::chrono::seconds(30)));
    }
  };
  DecodeRuntime rt(rc);
  const auto run = rt.run(source);
  EXPECT_EQ(run.stats.ring_high_watermark, kRing);
  EXPECT_EQ(run.stats.samples_in, cap.buffer.size());
  EXPECT_EQ(run.stats.samples_gap, 0u);
  EXPECT_EQ(run.stats.chunks_in, (cap.buffer.size() + kChunk - 1) / kChunk);
  expect_identical(serial_decoder.decode(cap.buffer), run.decode);
}

/// A source with a hole in the middle, as left behind by a lost transfer
/// on a live capture: the assembler must zero-fill the missing span so the
/// surviving samples keep their absolute window positions.
class GappySource : public SampleSource {
 public:
  GappySource(const signal::SampleBuffer& buffer, std::size_t gap_begin,
              std::size_t gap_end, std::size_t chunk_samples)
      : buffer_(buffer),
        gap_begin_(gap_begin),
        gap_end_(gap_end),
        chunk_samples_(chunk_samples) {}

  SampleRate sample_rate() const override { return buffer_.sample_rate(); }

  std::optional<SampleChunk> next_chunk() override {
    if (position_ == gap_begin_) position_ = gap_end_;
    if (position_ >= buffer_.size()) return std::nullopt;
    const std::size_t end =
        std::min({buffer_.size(), position_ + chunk_samples_,
                  position_ < gap_begin_ ? gap_begin_ : buffer_.size()});
    SampleChunk chunk;
    chunk.first_sample = position_;
    const auto view = buffer_.slice(position_, end);
    chunk.samples.assign(view.begin(), view.end());
    position_ = end;
    return chunk;
  }

 private:
  const signal::SampleBuffer& buffer_;
  std::size_t gap_begin_;
  std::size_t gap_end_;
  std::size_t chunk_samples_;
  std::size_t position_ = 0;
};

TEST(DecodeRuntime, ZeroFillsDroppedChunkGaps) {
  const auto cap = make_capture(2, 60e-3, 150.0, 47);
  const std::size_t gap_begin = 110000;
  const std::size_t gap_end = 130000;
  GappySource source(cap.buffer, gap_begin, gap_end, 8192);
  RuntimeConfig rc;
  rc.workers = 2;
  DecodeRuntime rt(rc);
  const auto run = rt.run(source);
  EXPECT_EQ(run.stats.samples_gap, gap_end - gap_begin);
  EXPECT_EQ(run.stats.samples_in + run.stats.samples_gap,
            cap.buffer.size());
  // The zero-filled stream decodes like the same capture with the span
  // silenced — identical, because the pipelines share every stage.
  signal::SampleBuffer silenced = cap.buffer;
  for (std::size_t i = gap_begin; i < gap_end; ++i) silenced[i] = Complex{};
  const auto serial =
      core::WindowedDecoder(core::WindowedDecoderConfig{}).decode(silenced);
  expect_identical(serial, run.decode);
}

TEST(DecodeRuntime, EmptySourceYieldsEmptyResult) {
  const signal::SampleBuffer empty(1e6, std::size_t{0});
  RuntimeConfig rc;
  rc.workers = 2;
  DecodeRuntime rt(rc);
  const auto run = rt.decode(empty);
  EXPECT_TRUE(run.decode.streams.empty());
  EXPECT_EQ(run.stats.samples_in, 0u);
}

TEST(DecodeRuntime, ScenarioSourceEndToEndRecovery) {
  // Live synthetic capture → runtime → recovered payloads: the zero-to-aha
  // path a deployment follows, minus the SDR.
  Rng rng(46);
  sim::ScenarioConfig sc;
  sc.num_tags = 6;
  sim::Scenario scenario(sc, rng);
  ScenarioSource::Config config;
  config.epochs = 1;
  ScenarioSource source(scenario, rng, config);
  RuntimeConfig rc;
  rc.windowed.decoder = scenario.default_decoder();
  rc.workers = 2;
  DecodeRuntime rt(rc);
  const auto run = rt.run(source);
  std::size_t recovered = 0;
  const auto decoded = run.decode.valid_payloads();
  for (const auto& sent : source.sent_payloads()) {
    for (const auto& got : decoded) {
      if (sent == got) {
        ++recovered;
        break;
      }
    }
  }
  EXPECT_GE(recovered, source.sent_payloads().size() / 2);
}

}  // namespace
}  // namespace lfbs::runtime
