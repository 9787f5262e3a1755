// Tests for gateway federation (src/net/federation): frame identity and
// its dedup semantics, the relay's layered loop safety (origin check →
// hop limit → identity dedup) across real TCP topologies — chain, cycle,
// diamond — and the cross-process sharded decode path, whose output must
// be bit-identical to the serial WindowedDecoder on the same capture.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <set>
#include <thread>

#include "core/windowed_decoder.h"
#include "net/federation/relay.h"
#include "net/federation/shard.h"
#include "net/federation/shard_worker.h"
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "net/wire.h"
#include "protocol/frame.h"
#include "runtime/fault_injector.h"
#include "runtime/frame_bus.h"
#include "runtime/runtime.h"
#include "runtime/sample_source.h"
#include "test_support.h"

namespace lfbs::net::federation {
namespace {

/// A frame event as a gateway would first publish it: origin unset (the
/// server stamps it), zero hops, full identity coordinates.
runtime::FrameEvent make_event(std::uint64_t seed) {
  Rng rng(seed);
  runtime::FrameEvent event;
  event.stream_index = static_cast<std::size_t>(seed % 7);
  event.stream_start = rng.uniform(0.0, 1e6);
  event.rate = rng.uniform(1e3, 250e3);
  event.collided = (seed % 2) == 0;
  event.confidence = rng.uniform(0.0, 1.0);
  event.frame.payload = rng.bits(96);
  event.frame.anchor_ok = true;
  event.frame.crc_ok = true;
  event.epoch_index = seed / 5;
  event.window_index = seed % 5;
  event.frame_index = seed % 3;
  return event;
}

// --- frame identity ------------------------------------------------------

TEST(FrameIdentity, KeyExcludesTheRelayHeader) {
  const runtime::FrameEvent event = make_event(42);
  const std::uint64_t key = runtime::frame_identity(event).key();

  // origin and hops mutate per hop; identity must not move with them.
  runtime::FrameEvent hopped = event;
  hopped.origin = 9;
  hopped.hops = 3;
  EXPECT_EQ(runtime::frame_identity(hopped).key(), key);
}

TEST(FrameIdentity, KeyDiscriminatesEveryIdentityCoordinate) {
  const runtime::FrameEvent event = make_event(42);
  const std::uint64_t key = runtime::frame_identity(event).key();

  runtime::FrameEvent other = event;
  other.epoch_index += 1;
  EXPECT_NE(runtime::frame_identity(other).key(), key);

  other = event;
  other.window_index += 1;
  EXPECT_NE(runtime::frame_identity(other).key(), key);

  other = event;
  other.frame_index += 1;
  EXPECT_NE(runtime::frame_identity(other).key(), key);

  other = event;
  other.stream_index += 1;
  EXPECT_NE(runtime::frame_identity(other).key(), key);

  other = event;
  other.frame.payload[13] = !other.frame.payload[13];
  EXPECT_NE(runtime::frame_identity(other).key(), key);

  // payload_key covers both content and length.
  protocol::ParsedFrame a = event.frame;
  protocol::ParsedFrame b = event.frame;
  EXPECT_EQ(protocol::payload_key(a), protocol::payload_key(b));
  b.payload.push_back(false);
  EXPECT_NE(protocol::payload_key(a), protocol::payload_key(b));
}

TEST(FrameIdentity, KeySurvivesTheWire) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    runtime::FrameEvent event = make_event(seed);
    event.origin = seed;  // wire carries the relay header too
    event.hops = 2;
    const std::uint64_t key = runtime::frame_identity(event).key();
    std::vector<std::uint8_t> bytes;
    encode_frame(event, bytes);
    MessageReader reader;
    reader.feed(bytes.data(), bytes.size());
    const auto message = reader.next();
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(runtime::frame_identity(decode_frame(message->body)).key(), key)
        << "identity must be stable across a TCP hop";
  }
}

TEST(FrameDeduper, DedupsAndAgesFifo) {
  FrameDeduper dedup(4);
  EXPECT_TRUE(dedup.insert(1));
  EXPECT_FALSE(dedup.insert(1));
  EXPECT_TRUE(dedup.insert(2));
  EXPECT_TRUE(dedup.insert(3));
  EXPECT_TRUE(dedup.insert(4));
  EXPECT_EQ(dedup.size(), 4u);
  EXPECT_TRUE(dedup.insert(5));  // ages key 1 out
  EXPECT_EQ(dedup.size(), 4u);
  EXPECT_TRUE(dedup.insert(1));  // forgotten, so new again
  EXPECT_FALSE(dedup.insert(5));
}

// --- relay topologies ----------------------------------------------------

/// Tails a FrameServer on its own thread, collecting every event.
struct Collector {
  FrameClient client;
  std::thread thread;
  std::vector<runtime::FrameEvent> events;
  std::optional<Bye> bye;

  static FrameClientConfig collector_config(std::uint16_t port) {
    FrameClientConfig cc;
    cc.port = port;
    cc.name = "collector";
    return cc;
  }

  explicit Collector(std::uint16_t port) : client(collector_config(port)) {
    thread = std::thread([this] {
      FrameClient::Callbacks callbacks;
      callbacks.on_frame = [this](const runtime::FrameEvent& event) {
        events.push_back(event);
      };
      bye = client.run(callbacks);
    });
  }
  void join() { thread.join(); }
};

bool wait_subscribers(const FrameServer& server, std::size_t count,
                      Seconds timeout = 5.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(timeout);
  while (std::chrono::steady_clock::now() < deadline) {
    if (server.counters().subscribers >= count) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(FrameRelay, ChainRelaysBitIdenticalWithHopIncrement) {
  // source gateway (origin 1) → relay (gateway 2) → subscriber.
  FrameServerConfig source_config;
  source_config.origin_id = 1;
  FrameServer source(source_config);

  FrameServerConfig relay_server_config;
  FrameServer relay_server(relay_server_config);
  RelayConfig rc;
  rc.gateway_id = 2;
  rc.upstreams = {{"127.0.0.1", source.port()}};
  FrameRelay relay(rc, relay_server);
  relay.start();

  Collector collector(relay_server.port());
  ASSERT_TRUE(wait_subscribers(source, 1));
  ASSERT_TRUE(wait_subscribers(relay_server, 1));

  std::vector<runtime::FrameEvent> sent;
  for (std::uint64_t i = 0; i < 32; ++i) {
    sent.push_back(make_event(i));
    source.publish(sent.back());
  }
  source.shutdown(/*drain=*/true);
  EXPECT_TRUE(relay.join()) << "upstream must end with Bye(kEndOfStream)";
  relay_server.shutdown(/*drain=*/true);
  collector.join();

  ASSERT_EQ(collector.events.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const auto& got = collector.events[i];
    EXPECT_EQ(got.origin, 1u) << "origin survives the relay hop";
    EXPECT_EQ(got.hops, 1u) << "the relay increments hops";
    EXPECT_EQ(got.frame.payload, sent[i].frame.payload);
    EXPECT_EQ(got.stream_start, sent[i].stream_start);  // bit-exact
    EXPECT_EQ(runtime::frame_identity(got).key(),
              runtime::frame_identity(sent[i]).key());
  }
  const auto counters = relay.counters();
  EXPECT_EQ(counters.relayed, sent.size());
  EXPECT_EQ(counters.dup_drops, 0u);
  EXPECT_EQ(counters.loop_drops, 0u);
  EXPECT_EQ(counters.hop_drops, 0u);
}

TEST(FrameRelay, CycleDeliversEachFrameExactlyOnce) {
  // R1 (gateway 2, serves A) ⇄ R2 (gateway 3, serves B): each relays the
  // other's server — a true 2-hop loop. Frames decoded at gateway 2 (A
  // stamps its origin) must reach a subscriber of B exactly once, and the
  // copies R2 sends back around the cycle must die at R1's origin check.
  FrameServerConfig config_a;
  config_a.origin_id = 2;
  FrameServer server_a(config_a);
  FrameServer server_b{FrameServerConfig{}};

  RelayConfig c1;
  c1.gateway_id = 2;
  c1.name = "relay-1";
  c1.upstreams = {{"127.0.0.1", server_b.port()}};
  FrameRelay relay_1(c1, server_a);

  RelayConfig c2;
  c2.gateway_id = 3;
  c2.name = "relay-2";
  c2.upstreams = {{"127.0.0.1", server_a.port()}};
  FrameRelay relay_2(c2, server_b);

  relay_1.start();
  relay_2.start();
  Collector collector(server_b.port());
  ASSERT_TRUE(wait_subscribers(server_a, 1));  // relay_2's link
  ASSERT_TRUE(wait_subscribers(server_b, 2));  // relay_1's link + collector

  constexpr std::size_t kFrames = 24;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    server_a.publish(make_event(i));
  }

  // The loop is live until every injected frame has come back around and
  // died at R1's origin check.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (relay_1.counters().loop_drops < kFrames &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  server_a.shutdown(/*drain=*/true);
  EXPECT_TRUE(relay_2.join());
  server_b.shutdown(/*drain=*/true);
  relay_1.join();
  collector.join();

  // Exactly once: every frame, no duplicates, by identity key.
  ASSERT_EQ(collector.events.size(), kFrames);
  std::set<std::uint64_t> keys;
  for (const auto& event : collector.events) {
    EXPECT_EQ(event.origin, 2u);
    EXPECT_EQ(event.hops, 1u);
    keys.insert(runtime::frame_identity(event).key());
  }
  EXPECT_EQ(keys.size(), kFrames) << "duplicates crossed the cycle";

  const auto r1 = relay_1.counters();
  const auto r2 = relay_2.counters();
  EXPECT_EQ(r2.relayed, kFrames);
  EXPECT_EQ(r1.loop_drops, kFrames)
      << "every frame must come back around and die at the origin check";
  EXPECT_EQ(r1.relayed, 0u);
}

TEST(FrameRelay, DiamondDedupDropsTheSecondCopy) {
  // top → {left, right} → bottom: the bottom relay hears every frame
  // twice with the same identity and must forward exactly one copy,
  // counting the other as a dup drop.
  FrameServerConfig top_config;
  top_config.origin_id = 1;
  FrameServer top(top_config);
  FrameServer server_l{FrameServerConfig{}};
  FrameServer server_r{FrameServerConfig{}};
  FrameServer server_b{FrameServerConfig{}};

  RelayConfig cl;
  cl.gateway_id = 2;
  cl.upstreams = {{"127.0.0.1", top.port()}};
  FrameRelay left(cl, server_l);
  RelayConfig cr;
  cr.gateway_id = 3;
  cr.upstreams = {{"127.0.0.1", top.port()}};
  FrameRelay right(cr, server_r);
  RelayConfig cb;
  cb.gateway_id = 4;
  cb.upstreams = {{"127.0.0.1", server_l.port()},
                  {"127.0.0.1", server_r.port()}};
  FrameRelay bottom(cb, server_b);

  left.start();
  right.start();
  bottom.start();
  Collector collector(server_b.port());
  ASSERT_TRUE(wait_subscribers(top, 2));
  ASSERT_TRUE(wait_subscribers(server_l, 1));
  ASSERT_TRUE(wait_subscribers(server_r, 1));
  ASSERT_TRUE(wait_subscribers(server_b, 1));

  constexpr std::size_t kFrames = 24;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    top.publish(make_event(i));
  }
  top.shutdown(/*drain=*/true);
  EXPECT_TRUE(left.join());
  EXPECT_TRUE(right.join());
  server_l.shutdown(/*drain=*/true);
  server_r.shutdown(/*drain=*/true);
  EXPECT_TRUE(bottom.join());
  server_b.shutdown(/*drain=*/true);
  collector.join();

  ASSERT_EQ(collector.events.size(), kFrames);
  std::set<std::uint64_t> keys;
  for (const auto& event : collector.events) {
    EXPECT_EQ(event.origin, 1u);
    EXPECT_EQ(event.hops, 2u);
    keys.insert(runtime::frame_identity(event).key());
  }
  EXPECT_EQ(keys.size(), kFrames);

  const auto counters = bottom.counters();
  EXPECT_EQ(counters.relayed, kFrames);
  EXPECT_EQ(counters.dup_drops, kFrames)
      << "the second copy of every frame must be identity-deduped";
  EXPECT_EQ(counters.loop_drops, 0u);
}

TEST(FrameRelay, HopLimitDropsOverTraveledFrames) {
  FrameServerConfig source_config;
  source_config.origin_id = 1;
  FrameServer source(source_config);
  FrameServer server_a{FrameServerConfig{}};
  FrameServer server_b{FrameServerConfig{}};

  RelayConfig c1;
  c1.gateway_id = 2;
  c1.upstreams = {{"127.0.0.1", source.port()}};
  FrameRelay relay_1(c1, server_a);

  RelayConfig c2;
  c2.gateway_id = 3;
  c2.hop_limit = 1;  // frames arriving with hops >= 1 are over-traveled
  c2.upstreams = {{"127.0.0.1", server_a.port()}};
  FrameRelay relay_2(c2, server_b);

  relay_1.start();
  relay_2.start();
  Collector collector(server_b.port());
  ASSERT_TRUE(wait_subscribers(source, 1));
  ASSERT_TRUE(wait_subscribers(server_a, 1));
  ASSERT_TRUE(wait_subscribers(server_b, 1));

  constexpr std::size_t kFrames = 16;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    source.publish(make_event(i));
  }
  source.shutdown(/*drain=*/true);
  EXPECT_TRUE(relay_1.join());
  server_a.shutdown(/*drain=*/true);
  EXPECT_TRUE(relay_2.join());
  server_b.shutdown(/*drain=*/true);
  collector.join();

  EXPECT_EQ(collector.events.size(), 0u)
      << "nothing may out-travel the hop limit";
  EXPECT_EQ(relay_1.counters().relayed, kFrames);
  EXPECT_EQ(relay_2.counters().hop_drops, kFrames);
  EXPECT_EQ(relay_2.counters().relayed, 0u);
}

// --- sharded decode ------------------------------------------------------

TEST(ShardedDecode, MatchesSerialWindowedDecodeAcrossWorkerProcesses) {
  // THE acceptance test: the same capture through (a) the serial
  // WindowedDecoder and (b) two real worker *processes* over TCP must
  // produce bit-identical results, frames included.
  const LongCapture cap = make_capture(3, 70e-3, 40.0, 7);
  core::WindowedDecoderConfig wc;  // 20 ms windows → 4 of them (tail kept)
  const core::DecodeResult local =
      core::WindowedDecoder(wc).decode(cap.buffer);
  ASSERT_FALSE(local.streams.empty()) << "capture must actually decode";

  // Bind listeners pre-fork so the ports are known here; each child owns
  // one worker session and exits when its coordinator says IqEnd.
  ShardWorker worker_1({"127.0.0.1", 0, "worker-1"});
  ShardWorker worker_2({"127.0.0.1", 0, "worker-2"});
  std::vector<pid_t> children;
  for (ShardWorker* worker : {&worker_1, &worker_2}) {
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // Child process: serve one coordinator, then leave without touching
      // gtest's state.
      try {
        worker->serve();
      } catch (...) {
        _exit(2);
      }
      _exit(0);
    }
    children.push_back(pid);
  }

  ShardConfig sc;
  sc.windowed = wc;
  sc.workers = {{"127.0.0.1", worker_1.port()},
                {"127.0.0.1", worker_2.port()}};
  sc.epoch_index = 5;
  ShardedDecoder sharded(sc);
  std::vector<runtime::FrameEvent> published;
  sharded.bus().subscribe([&](const runtime::FrameEvent& event) {
    published.push_back(event);
  });
  runtime::MemorySource source(cap.buffer, 8192);
  const ShardedDecoder::Result result = sharded.run(source);

  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker process must exit cleanly";
  }

  expect_identical(local, result.decode);

  // Both workers must actually have decoded: 4 windows round-robin over 2.
  EXPECT_EQ(result.stats.windows_dispatched, 4u);
  EXPECT_EQ(result.stats.windows_decoded, 4u);
  EXPECT_EQ(result.stats.samples_in, cap.buffer.size());

  // Published frames carry the stamped identity coordinates.
  std::size_t total_frames = 0;
  for (const auto& stream : result.decode.streams) {
    total_frames += stream.frames.size();
  }
  EXPECT_EQ(result.stats.frames_published, total_frames);
  ASSERT_EQ(published.size(), total_frames);
  for (const auto& event : published) {
    EXPECT_EQ(event.epoch_index, 5u);
  }
}

TEST(ShardedDecode, ShortCaptureTakesThePlainPathBitIdentically) {
  // ≤ 1.5 windows: the coordinator must ship the whole buffer as one
  // short-capture assignment and match WindowedDecoder::decode's plain
  // fall-through exactly. In-process workers (threads) keep this quick.
  const LongCapture cap = make_capture(2, 4e-3, 40.0, 21);
  core::WindowedDecoderConfig wc;
  const core::DecodeResult local =
      core::WindowedDecoder(wc).decode(cap.buffer);

  ShardWorker worker_1({"127.0.0.1", 0, "worker-1"});
  ShardWorker worker_2({"127.0.0.1", 0, "worker-2"});
  std::thread t1([&] { worker_1.serve(); });
  std::thread t2([&] { worker_2.serve(); });

  ShardConfig sc;
  sc.windowed = wc;
  sc.workers = {{"127.0.0.1", worker_1.port()},
                {"127.0.0.1", worker_2.port()}};
  ShardedDecoder sharded(sc);
  runtime::MemorySource source(cap.buffer, 2048);
  const ShardedDecoder::Result result = sharded.run(source);
  t1.join();
  t2.join();

  expect_identical(local, result.decode);
  EXPECT_EQ(result.stats.windows_dispatched, 1u);
}

TEST(ShardedDecode, DeadWorkerPoolFailsStrictly) {
  // Strict failure stance: a pool member that isn't there fails the run
  // with SocketError — never a silent hole in the capture.
  std::uint16_t dead_port;
  {
    TcpListener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }
  ShardConfig sc;
  sc.workers = {{"127.0.0.1", dead_port}};
  sc.connect_timeout = 0.5;
  ShardedDecoder sharded(sc);
  const LongCapture cap = make_capture(1, 2e-3, 40.0, 3);
  runtime::MemorySource source(cap.buffer, 1024);
  EXPECT_THROW(sharded.run(source), SocketError);
}

// --- one driver, two executors -------------------------------------------

/// Two in-process ShardWorkers, each serving one coordinator session.
struct WorkerPair {
  ShardWorker one{{"127.0.0.1", 0, "worker-1"}};
  ShardWorker two{{"127.0.0.1", 0, "worker-2"}};
  std::thread t1{[this] { serve(one); }};
  std::thread t2{[this] { serve(two); }};

  ~WorkerPair() {
    one.stop();
    two.stop();
    t1.join();
    t2.join();
  }

  static void serve(ShardWorker& worker) {
    try {
      worker.serve();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "shard worker: " << e.what();
    }
  }

  std::vector<ShardWorkerEndpoint> endpoints() const {
    return {{"127.0.0.1", one.port()}, {"127.0.0.1", two.port()}};
  }
};

void expect_events_identical(const std::vector<runtime::FrameEvent>& a,
                             const std::vector<runtime::FrameEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(runtime::frame_identity(a[i]), runtime::frame_identity(b[i]))
        << "event " << i;
    EXPECT_EQ(a[i].frame.payload, b[i].frame.payload) << "event " << i;
    EXPECT_EQ(a[i].frame.crc_ok, b[i].frame.crc_ok) << "event " << i;
    EXPECT_EQ(a[i].confidence, b[i].confidence) << "event " << i;
  }
}

TEST(ShardedDecode, ThreadAndShardExecutorsAgreeUnderSourceFaults) {
  // One seeded fault plan — dropped and truncated chunks, corrupt samples
  // (NaN and Inf among them), transient read errors; no stalls, whose
  // effect depends on timing — replayed through the worker-thread pool
  // and through a two-process-style shard pool. Both sit behind the same
  // supervised driver, so retries, scrubbing, gap zero-fill and the fault
  // ledger must come out the same, and so must every decoded bit.
  const LongCapture cap = make_capture(3, 70e-3, 40.0, 7);
  runtime::FaultPlan plan;
  plan.seed = 11;
  plan.drop_chunk = 0.08;
  plan.truncate_chunk = 0.08;
  plan.corrupt_sample = 2e-4;
  plan.transient_error = 0.15;

  runtime::RuntimeConfig rc;
  rc.workers = 2;
  runtime::DecodeRuntime threads(rc);
  std::vector<runtime::FrameEvent> thread_events;
  threads.bus().subscribe([&](const runtime::FrameEvent& event) {
    thread_events.push_back(event);
  });
  runtime::MemorySource thread_inner(cap.buffer, 8192);
  runtime::FaultInjectingSource thread_source(thread_inner, plan);
  const runtime::RuntimeResult by_threads = threads.run(thread_source);

  WorkerPair workers;
  ShardConfig sc;
  sc.workers = workers.endpoints();
  ShardedDecoder sharded(sc);
  std::vector<runtime::FrameEvent> shard_events;
  sharded.bus().subscribe([&](const runtime::FrameEvent& event) {
    shard_events.push_back(event);
  });
  runtime::MemorySource shard_inner(cap.buffer, 8192);
  runtime::FaultInjectingSource shard_source(shard_inner, plan);
  const ShardedDecoder::Result by_shards = sharded.run(shard_source);

  // The plan must actually have bitten, on every fault class it carries.
  const runtime::FaultInjectionStats& injected = shard_source.injected();
  EXPECT_GT(injected.chunks_dropped + injected.chunks_truncated, 0u);
  EXPECT_GT(injected.samples_non_finite, 0u);
  EXPECT_GT(injected.errors_thrown, 0u);
  EXPECT_GT(by_shards.stats.samples_gap, 0u);
  EXPECT_GT(by_shards.stats.faults.samples_scrubbed, 0u);
  EXPECT_GT(by_shards.stats.faults.source_retries, 0u);

  expect_identical(by_threads.decode, by_shards.decode);
  expect_events_identical(thread_events, shard_events);
  EXPECT_EQ(by_threads.stats.faults, by_shards.stats.faults);
  EXPECT_EQ(by_threads.stats.health, by_shards.stats.health);
  EXPECT_EQ(by_threads.stats.samples_in, by_shards.stats.samples_in);
  EXPECT_EQ(by_threads.stats.samples_gap, by_shards.stats.samples_gap);
  EXPECT_EQ(by_threads.stats.frames_published, thread_events.size());
  EXPECT_EQ(by_shards.stats.frames_published, shard_events.size());
}

/// Serves `buffer` in fixed chunks and calls `stop` inside its
/// `stop_at`-th read, the way a signal handler flips a flag mid-capture.
class StoppingSource : public runtime::SampleSource {
 public:
  StoppingSource(const signal::SampleBuffer& buffer, std::size_t chunk,
                 std::size_t stop_at, std::function<void()> stop)
      : inner_(buffer, chunk), stop_at_(stop_at), stop_(std::move(stop)) {}

  SampleRate sample_rate() const override { return inner_.sample_rate(); }

  std::optional<runtime::SampleChunk> next_chunk() override {
    auto chunk = inner_.next_chunk();
    if (++reads_ == stop_at_) stop_();
    return chunk;
  }

 private:
  runtime::MemorySource inner_;
  std::size_t stop_at_;
  std::function<void()> stop_;
  std::size_t reads_ = 0;
};

TEST(ShardedDecode, StopRequestDrainsTheIngestedPrefixOnBothExecutors) {
  // A stop mid-capture ends ingest after the chunk in hand; what was
  // ingested still decodes, stitches and publishes exactly as the serial
  // decoder would decode that prefix — on either executor.
  const LongCapture cap = make_capture(3, 70e-3, 40.0, 9);
  constexpr std::size_t kChunk = 8192;
  constexpr std::size_t kStopAt = 20;  // 32.8 ms: one window plus a tail
  const auto head = cap.buffer.slice(0, kChunk * kStopAt);
  const core::DecodeResult serial =
      core::WindowedDecoder(core::WindowedDecoderConfig{})
          .decode(signal::SampleBuffer(
              cap.buffer.sample_rate(),
              std::vector<Complex>(head.begin(), head.end())));
  std::size_t serial_frames = 0;
  for (const auto& stream : serial.streams) {
    serial_frames += stream.frames.size();
  }
  ASSERT_GT(serial_frames, 0u);

  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "shard pool" : "worker threads");
    std::atomic<bool> flag{false};
    runtime::RuntimeConfig rc;
    rc.workers = 2;
    rc.stop_flag = &flag;
    runtime::DecodeRuntime rt(rc);
    std::size_t published = 0;
    rt.bus().subscribe([&](const runtime::FrameEvent&) { ++published; });
    StoppingSource source(cap.buffer, kChunk, kStopAt,
                          [&] { flag.store(true); });
    runtime::RuntimeResult run;
    if (sharded) {
      WorkerPair workers;
      ShardConfig sc;
      sc.workers = workers.endpoints();
      ShardPool pool(sc);
      run = rt.run(source, pool);
    } else {
      run = rt.run(source);
    }
    EXPECT_TRUE(run.stats.stopped_early);
    EXPECT_EQ(run.stats.samples_in, kChunk * kStopAt);
    expect_identical(serial, run.decode);
    EXPECT_EQ(run.stats.frames_published, serial_frames);
    EXPECT_EQ(published, serial_frames);
  }
}

}  // namespace
}  // namespace lfbs::net::federation
