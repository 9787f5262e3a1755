// Tests for the network gateway (src/net): the LFBW1 wire codec, the
// poll-driven frame server and its per-client queue bound, the
// reconnecting frame client, the blocking Peer endpoint, and remote IQ
// ingest. The load-bearing properties: frames received over a loopback TCP
// hop are bit-identical to a direct FrameBus subscription, a stalled
// subscriber can never delay a healthy one, and a remotely-ingested
// capture decodes bit-identically to a local one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "channel/channel_model.h"
#include "core/windowed_decoder.h"
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "net/iq_ingest.h"
#include "net/peer.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "protocol/frame.h"
#include "reader/receiver.h"
#include "runtime/runtime.h"
#include "runtime/sample_source.h"
#include "tag/tag.h"

namespace lfbs::net {
namespace {

runtime::FrameEvent make_event(std::size_t index, std::uint64_t seed) {
  Rng rng(seed);
  runtime::FrameEvent event;
  event.stream_index = index;
  event.stream_start = rng.uniform(0.0, 1e6);
  event.rate = rng.uniform(1e3, 250e3);
  event.collided = (seed % 2) == 0;
  event.confidence = rng.uniform(0.0, 1.0);
  event.fallback_stage = core::FallbackStage::kRelaxedDetection;
  event.frame.payload = rng.bits(96 + seed % 7);  // odd lengths too
  event.frame.anchor_ok = true;
  event.frame.crc_ok = (seed % 3) != 0;
  event.epoch_index = seed * 11;
  event.window_index = seed * 13 + 1;
  event.frame_index = seed % 5;
  event.origin = seed * 17 + 3;
  event.hops = static_cast<std::uint8_t>(seed % 6);
  return event;
}

void expect_event_identical(const runtime::FrameEvent& a,
                            const runtime::FrameEvent& b) {
  EXPECT_EQ(a.stream_index, b.stream_index);
  EXPECT_EQ(a.stream_start, b.stream_start);  // bit-exact doubles
  EXPECT_EQ(a.rate, b.rate);
  EXPECT_EQ(a.collided, b.collided);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.fallback_stage, b.fallback_stage);
  EXPECT_EQ(a.frame.payload, b.frame.payload);
  EXPECT_EQ(a.frame.anchor_ok, b.frame.anchor_ok);
  EXPECT_EQ(a.frame.crc_ok, b.frame.crc_ok);
  EXPECT_EQ(a.epoch_index, b.epoch_index);
  EXPECT_EQ(a.window_index, b.window_index);
  EXPECT_EQ(a.frame_index, b.frame_index);
  EXPECT_EQ(a.origin, b.origin);
  EXPECT_EQ(a.hops, b.hops);
}

/// Feeds a byte vector through a MessageReader and returns every message.
std::vector<Message> reparse(const std::vector<std::uint8_t>& bytes,
                             std::size_t step = 0) {
  MessageReader reader;
  std::vector<Message> out;
  if (step == 0) step = bytes.size();
  for (std::size_t at = 0; at < bytes.size(); at += step) {
    reader.feed(bytes.data() + at, std::min(step, bytes.size() - at));
    while (auto message = reader.next()) out.push_back(std::move(*message));
  }
  return out;
}

TEST(Wire, HelloRoundTrip) {
  Hello hello;
  hello.role = PeerRole::kIqPusher;
  hello.sample_rate = 25e6;
  hello.name = "unit-test pusher";
  std::vector<std::uint8_t> bytes;
  encode_hello(hello, bytes);
  const auto messages = reparse(bytes);
  ASSERT_EQ(messages.size(), 1u);
  ASSERT_EQ(messages[0].type, MsgType::kHello);
  const Hello back = decode_hello(messages[0].body);
  EXPECT_EQ(back.role, PeerRole::kIqPusher);
  EXPECT_EQ(back.sample_rate, 25e6);
  EXPECT_EQ(back.name, hello.name);
}

TEST(Wire, ControlMessagesRoundTrip) {
  std::vector<std::uint8_t> bytes;
  SubscribeFilter filter;
  filter.min_confidence = 0.25;
  filter.min_rate = 1e3;
  filter.max_rate = 200e3;
  filter.crc_valid_only = true;
  encode_subscribe(filter, bytes);
  encode_ack({7, "busy"}, bytes);
  encode_bye({ByeReason::kEvicted, "too slow"}, bytes);
  encode_iq_end({123456, true}, bytes);

  const auto messages = reparse(bytes);
  ASSERT_EQ(messages.size(), 4u);
  const SubscribeFilter f = decode_subscribe(messages[0].body);
  EXPECT_EQ(f.min_confidence, 0.25);
  EXPECT_EQ(f.min_rate, 1e3);
  EXPECT_EQ(f.max_rate, 200e3);
  EXPECT_TRUE(f.crc_valid_only);
  const Ack ack = decode_ack(messages[1].body);
  EXPECT_EQ(ack.status, 7);
  EXPECT_EQ(ack.text, "busy");
  const Bye bye = decode_bye(messages[2].body);
  EXPECT_EQ(bye.reason, ByeReason::kEvicted);
  EXPECT_EQ(bye.text, "too slow");
  const IqEnd end = decode_iq_end(messages[3].body);
  EXPECT_EQ(end.total_samples, 123456u);
  EXPECT_TRUE(end.truncated);
}

TEST(Wire, FrameRoundTripIsBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const runtime::FrameEvent event = make_event(seed, seed * 31);
    std::vector<std::uint8_t> bytes;
    encode_frame(event, bytes);
    const auto messages = reparse(bytes);
    ASSERT_EQ(messages.size(), 1u);
    ASSERT_EQ(messages[0].type, MsgType::kFrame);
    expect_event_identical(event, decode_frame(messages[0].body));
  }
}

TEST(Wire, StatsRoundTrip) {
  runtime::RuntimeStats stats;
  stats.health = runtime::HealthState::kDegraded;
  stats.stopped_early = true;
  stats.wall_seconds = 1.5;
  stats.samples_in = 1000000;
  stats.windows_decoded = 42;
  stats.frames_published = 17;
  stats.streams = 5;
  stats.faults.worker_exceptions = 2;
  stats.mean_confidence = 0.875;
  std::vector<std::uint8_t> bytes;
  encode_stats(to_wire_stats(stats), bytes);
  const auto messages = reparse(bytes);
  ASSERT_EQ(messages.size(), 1u);
  const WireStats back = decode_stats(messages[0].body);
  EXPECT_EQ(back.health,
            static_cast<std::uint8_t>(runtime::HealthState::kDegraded));
  EXPECT_TRUE(back.stopped_early);
  EXPECT_EQ(back.wall_seconds, 1.5);
  EXPECT_EQ(back.samples_in, 1000000u);
  EXPECT_EQ(back.windows_decoded, 42u);
  EXPECT_EQ(back.frames_published, 17u);
  EXPECT_EQ(back.streams, 5u);
  EXPECT_GE(back.faults_total, 2u);
  EXPECT_EQ(back.mean_confidence, 0.875);
}

TEST(Wire, IqChunkF64RoundTripIsBitIdentical) {
  Rng rng(9);
  runtime::SampleChunk chunk;
  chunk.first_sample = 0xABCDEF0123ull;
  for (int i = 0; i < 777; ++i) {
    chunk.samples.emplace_back(rng.gaussian(), rng.gaussian());
  }
  std::vector<std::uint8_t> bytes;
  encode_iq_chunk(chunk, /*f64=*/true, bytes);
  const auto messages = reparse(bytes);
  ASSERT_EQ(messages.size(), 1u);
  const runtime::SampleChunk back = decode_iq_chunk(messages[0].body);
  EXPECT_EQ(back.first_sample, chunk.first_sample);
  ASSERT_EQ(back.samples.size(), chunk.samples.size());
  for (std::size_t i = 0; i < chunk.samples.size(); ++i) {
    ASSERT_EQ(back.samples[i], chunk.samples[i]) << "sample " << i;
  }
}

TEST(Wire, IqChunkF32QuantizesToFloatPrecision) {
  runtime::SampleChunk chunk;
  chunk.first_sample = 5;
  chunk.samples.emplace_back(0.1234567890123, -0.9876543210987);
  std::vector<std::uint8_t> bytes;
  encode_iq_chunk(chunk, /*f64=*/false, bytes);
  const auto messages = reparse(bytes);
  const runtime::SampleChunk back = decode_iq_chunk(messages[0].body);
  ASSERT_EQ(back.samples.size(), 1u);
  EXPECT_EQ(back.samples[0].real(),
            static_cast<double>(static_cast<float>(0.1234567890123)));
  EXPECT_EQ(back.samples[0].imag(),
            static_cast<double>(static_cast<float>(-0.9876543210987)));
}

TEST(Wire, MessageReaderHandlesAnyFragmentation) {
  std::vector<std::uint8_t> bytes;
  encode_hello({PeerRole::kFrameSubscriber, 0.0, "frag"}, bytes);
  encode_subscribe({}, bytes);
  encode_frame(make_event(3, 99), bytes);
  encode_bye({ByeReason::kEndOfStream, ""}, bytes);
  for (const std::size_t step : {std::size_t{1}, std::size_t{3},
                                 std::size_t{17}, bytes.size()}) {
    const auto messages = reparse(bytes, step);
    ASSERT_EQ(messages.size(), 4u) << "step " << step;
    EXPECT_EQ(messages[0].type, MsgType::kHello);
    EXPECT_EQ(messages[1].type, MsgType::kSubscribe);
    EXPECT_EQ(messages[2].type, MsgType::kFrame);
    EXPECT_EQ(messages[3].type, MsgType::kBye);
  }
}

TEST(Wire, BadMagicAndBadVersionAreTyped) {
  Hello hello;
  hello.name = "x";
  std::vector<std::uint8_t> bytes;
  encode_hello(hello, bytes);
  auto tampered = bytes;
  tampered[5 + 2] = 'X';  // type + length prefix, then magic
  auto messages = reparse(tampered);
  ASSERT_EQ(messages.size(), 1u);
  try {
    decode_hello(messages[0].body);
    FAIL() << "bad magic must throw";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kBadMagic);
  }

  tampered = bytes;
  tampered[5 + sizeof(kWireMagic)] = 0xFF;  // version low byte
  messages = reparse(tampered);
  try {
    decode_hello(messages[0].body);
    FAIL() << "bad version must throw";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kBadVersion);
  }
}

TEST(Wire, TruncatedBodyThrowsTyped) {
  std::vector<std::uint8_t> bytes;
  encode_frame(make_event(1, 5), bytes);
  const auto messages = reparse(bytes);
  ASSERT_EQ(messages.size(), 1u);
  auto body = messages[0].body;
  body.resize(body.size() / 2);
  try {
    decode_frame(body);
    FAIL() << "truncated frame must throw";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kTruncated);
  }
}

TEST(Wire, OversizedLengthPrefixThrowsBeforeBody) {
  // Type byte + a 64 MiB length prefix: the reader must reject it from
  // the 5-byte header alone, before any body bytes exist to allocate.
  const std::uint8_t header[5] = {
      static_cast<std::uint8_t>(MsgType::kFrame), 0x00, 0x00, 0x00, 0x04};
  MessageReader reader;
  reader.feed(header, sizeof(header));
  try {
    reader.next();
    FAIL() << "oversized prefix must throw";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kOversized);
  }
}

TEST(Wire, UnknownTypeByteThrowsTyped) {
  const std::uint8_t header[5] = {0x77, 0x00, 0x00, 0x00, 0x00};
  MessageReader reader;
  reader.feed(header, sizeof(header));
  try {
    reader.next();
    FAIL() << "unknown type must throw";
  } catch (const WireFormatError& e) {
    EXPECT_EQ(e.code(), WireError::kUnknownType);
  }
}

TEST(Wire, MessageReaderSurvivesAdversarialByteStreams) {
  // Property test for the reader against hostile transports: a valid
  // stream must parse identically under ANY fragmentation, corruption
  // must die as a typed WireFormatError (never a crash or a hang), and
  // no input may make the reader buffer past the 16 MiB message bound.
  std::vector<std::uint8_t> valid;
  std::vector<std::size_t> boundaries;  // offset of each message header
  boundaries.push_back(valid.size());
  encode_hello({PeerRole::kFrameSubscriber, 0.0, "prop"}, valid);
  boundaries.push_back(valid.size());
  encode_subscribe({}, valid);
  for (std::uint64_t i = 0; i < 8; ++i) {
    boundaries.push_back(valid.size());
    encode_frame(make_event(static_cast<std::size_t>(i), i * 3 + 1), valid);
  }
  boundaries.push_back(valid.size());
  encode_bye({ByeReason::kEndOfStream, ""}, valid);
  const auto reference = reparse(valid);
  ASSERT_EQ(reference.size(), boundaries.size());

  std::size_t largest_body = 0;
  for (const auto& m : reference) {
    largest_body = std::max(largest_body, m.body.size());
  }

  // Randomized fragmentation: 64 seeds, fragment sizes 1..97 bytes.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    MessageReader reader;
    std::vector<Message> got;
    std::size_t at = 0;
    std::size_t max_buffered = 0;
    while (at < valid.size()) {
      const std::size_t step =
          1 + static_cast<std::size_t>(rng.uniform(0.0, 96.0));
      const std::size_t take = std::min(step, valid.size() - at);
      reader.feed(valid.data() + at, take);
      at += take;
      max_buffered = std::max(max_buffered, reader.buffered());
      while (auto message = reader.next()) got.push_back(std::move(*message));
    }
    ASSERT_EQ(got.size(), reference.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].type, reference[i].type) << "seed " << seed;
      EXPECT_EQ(got[i].body, reference[i].body) << "seed " << seed;
    }
    // Buffering stays bounded by one in-flight message plus the fragment
    // that completed it — the reader holds no history.
    EXPECT_LE(max_buffered, largest_body + 5 + 97) << "seed " << seed;
  }

  // Interleaved garbage: corrupt the type byte at a random message
  // boundary. Everything before the corruption parses; the corrupted
  // header dies with kUnknownType.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed * 101);
    const std::size_t victim = static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(boundaries.size()) - 0.001));
    auto tampered = valid;
    tampered[boundaries[victim]] = 0x7F;  // no such MsgType
    MessageReader reader;
    std::size_t parsed = 0;
    try {
      std::size_t at = 0;
      while (at < tampered.size()) {
        const std::size_t take = std::min<std::size_t>(
            1 + static_cast<std::size_t>(rng.uniform(0.0, 30.0)),
            tampered.size() - at);
        reader.feed(tampered.data() + at, take);
        at += take;
        while (reader.next()) ++parsed;
      }
      FAIL() << "corrupted type byte must throw (seed " << seed << ")";
    } catch (const WireFormatError& e) {
      EXPECT_EQ(e.code(), WireError::kUnknownType);
      EXPECT_EQ(parsed, victim) << "messages before the corruption parse";
    }
  }

  // Truncated length prefix: a partial header never yields a message and
  // never over-buffers — the reader just waits for the rest.
  for (std::size_t cut = 1; cut < 5; ++cut) {
    MessageReader reader;
    reader.feed(valid.data(), cut);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.buffered(), cut);
  }

  // Hostile length prefixes: anything past kMaxMessageBody dies from the
  // 5-byte header alone — the reader must never allocate toward the
  // declared size. Try the whole top range including UINT32_MAX.
  constexpr std::uint32_t kBound = static_cast<std::uint32_t>(kMaxMessageBody);
  for (const std::uint32_t declared : {kBound + 1, kBound * 2, 0xFFFFFFFFu}) {
    const std::uint8_t header[5] = {
        static_cast<std::uint8_t>(MsgType::kFrame),
        static_cast<std::uint8_t>(declared & 0xFF),
        static_cast<std::uint8_t>((declared >> 8) & 0xFF),
        static_cast<std::uint8_t>((declared >> 16) & 0xFF),
        static_cast<std::uint8_t>((declared >> 24) & 0xFF)};
    MessageReader reader;
    reader.feed(header, sizeof(header));
    try {
      reader.next();
      FAIL() << "length " << declared << " must throw";
    } catch (const WireFormatError& e) {
      EXPECT_EQ(e.code(), WireError::kOversized);
    }
    EXPECT_LE(reader.buffered(), sizeof(header))
        << "reader must not allocate toward a hostile length";
  }
}

TEST(Wire, SubscribeFilterGatesOnConfidenceRateAndCrc) {
  runtime::FrameEvent event = make_event(0, 2);
  event.confidence = 0.5;
  event.rate = 100e3;
  event.frame.crc_ok = false;

  SubscribeFilter all;
  EXPECT_TRUE(all.accepts(event));

  SubscribeFilter confident;
  confident.min_confidence = 0.6;
  EXPECT_FALSE(confident.accepts(event));
  confident.min_confidence = 0.5;
  EXPECT_TRUE(confident.accepts(event));

  SubscribeFilter banded;
  banded.min_rate = 150e3;
  EXPECT_FALSE(banded.accepts(event));
  banded.min_rate = 0.0;
  banded.max_rate = 50e3;
  EXPECT_FALSE(banded.accepts(event));

  SubscribeFilter clean;
  clean.crc_valid_only = true;
  EXPECT_FALSE(clean.accepts(event));
  event.frame.crc_ok = true;
  EXPECT_TRUE(clean.accepts(event));
}

// --- server / client loopback -------------------------------------------

TEST(FrameServerClient, LoopbackDeliveryIsBitIdentical) {
  // Publish a set of frames through the server while a FrameClient tails
  // it over real TCP; the client must observe every event, in order, with
  // every field bit-identical — and the final stats digest must let it
  // prove completeness.
  FrameServerConfig sc;
  FrameServer server(sc);

  std::vector<runtime::FrameEvent> received;
  std::atomic<bool> done{false};
  FrameClientConfig cc;
  cc.port = server.port();
  FrameClient client(cc);
  std::optional<WireStats> final_stats;
  std::thread tail([&] {
    FrameClient::Callbacks callbacks;
    callbacks.on_frame = [&](const runtime::FrameEvent& event) {
      received.push_back(event);
    };
    callbacks.on_stats = [&](const WireStats& stats) { final_stats = stats; };
    const Bye bye = client.run(callbacks);
    EXPECT_EQ(bye.reason, ByeReason::kEndOfStream);
    done = true;
  });

  ASSERT_TRUE(server.wait_for_subscriber(5.0));
  std::vector<runtime::FrameEvent> sent;
  for (std::uint64_t i = 0; i < 64; ++i) {
    sent.push_back(make_event(static_cast<std::size_t>(i), i * 7 + 1));
    server.publish(sent.back());
  }
  runtime::RuntimeStats stats;
  stats.frames_published = sent.size();
  server.publish_stats(stats);
  server.shutdown(/*drain=*/true);
  tail.join();
  ASSERT_TRUE(done.load());

  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    expect_event_identical(sent[i], received[i]);
  }
  ASSERT_TRUE(final_stats.has_value());
  EXPECT_EQ(final_stats->frames_published, sent.size());
  EXPECT_EQ(server.counters().frames_sent, sent.size());
  EXPECT_EQ(server.counters().queue_drops, 0u);
}

TEST(FrameServerClient, ServerSideFilterNarrowsDelivery) {
  FrameServerConfig sc;
  FrameServer server(sc);

  std::vector<runtime::FrameEvent> received;
  FrameClientConfig cc;
  cc.port = server.port();
  cc.filter.crc_valid_only = true;
  cc.filter.min_confidence = 0.5;
  FrameClient client(cc);
  std::thread tail([&] {
    FrameClient::Callbacks callbacks;
    callbacks.on_frame = [&](const runtime::FrameEvent& event) {
      received.push_back(event);
    };
    client.run(callbacks);
  });

  ASSERT_TRUE(server.wait_for_subscriber(5.0));
  std::size_t expected = 0;
  for (std::uint64_t i = 0; i < 32; ++i) {
    runtime::FrameEvent event = make_event(static_cast<std::size_t>(i), i);
    if (event.frame.crc_ok && event.confidence >= 0.5) ++expected;
    server.publish(event);
  }
  server.shutdown(/*drain=*/true);
  tail.join();

  ASSERT_GT(expected, 0u);  // seed choice must exercise both sides
  ASSERT_LT(expected, 32u);
  EXPECT_EQ(received.size(), expected);
  for (const auto& event : received) {
    EXPECT_TRUE(event.frame.crc_ok);
    EXPECT_GE(event.confidence, 0.5);
  }
}

/// A raw subscriber that completes the handshake and then never reads —
/// the deliberately stalled client of the queue-bound tests.
struct StalledSubscriber {
  TcpConnection conn;

  explicit StalledSubscriber(std::uint16_t port,
                             ClientClass cls = ClientClass::kBestEffort)
      : conn(TcpConnection::connect("127.0.0.1", port, 5.0)) {
    std::vector<std::uint8_t> bytes;
    encode_hello({PeerRole::kFrameSubscriber, 0.0, "stalled", cls}, bytes);
    encode_subscribe({}, bytes);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const std::ptrdiff_t n =
          conn.write_some(bytes.data() + sent, bytes.size() - sent);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
  }
};

TEST(FrameServerClient, StalledClientDropsOldestWithoutDelayingHealthy) {
  FrameServerConfig sc;
  // Queue bound sized so a *reading* client has real slack under CI load,
  // while the stalled client (which reads nothing) still overflows it long
  // before 512 frames: 64 queued + a few dozen in the 2 KiB kernel buffer.
  sc.send_queue_messages = 64;
  sc.send_buffer_bytes = 2048;  // tiny SO_SNDBUF: the kernel can't hide it
  sc.drain_timeout = 2.0;
  FrameServer server(sc);

  StalledSubscriber stalled(server.port());

  std::atomic<std::size_t> healthy_frames{0};
  FrameClientConfig cc;
  cc.port = server.port();
  FrameClient client(cc);
  std::thread tail([&] {
    FrameClient::Callbacks callbacks;
    callbacks.on_frame = [&](const runtime::FrameEvent&) {
      ++healthy_frames;
    };
    client.run(callbacks);
  });

  // Both clients subscribed (stalled one races its handshake in).
  ASSERT_TRUE(server.wait_for_subscriber(5.0));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (server.counters().subscribers < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.counters().subscribers, 2u);

  // Publish far more than queue + socket buffer can hold, paced just
  // enough that a *reading* client keeps up — so any loss at the healthy
  // client would indict publish(), not the test's own burst rate. The
  // stalled client saturates its 2 KiB kernel buffer and 8-message queue
  // almost immediately regardless of pacing.
  constexpr std::size_t kFrames = 512;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    server.publish(make_event(static_cast<std::size_t>(i), i));
    if (i % 2 == 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Seconds publish_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Pacing accounts for ~256 ms; anything near drain_timeout would mean
  // publish() blocked on the stalled client's socket.
  EXPECT_LT(publish_seconds, 2.0) << "publish must not block on the "
                                     "stalled client";

  // Unstall by closing; the healthy client still gets every frame.
  server.shutdown(/*drain=*/true);
  stalled.conn.close();
  tail.join();

  EXPECT_EQ(healthy_frames.load(), kFrames);
  const auto counters = server.counters();
  EXPECT_GT(counters.queue_drops, 0u);
  EXPECT_EQ(counters.evictions, 0u);
}

TEST(FrameServerClient, StalledPriorityClientIsEvictedAtItsBound) {
  // With the defaults or a connection limit, a priority subscriber that
  // stops reading is evicted once, at its queue bound, and never loses a
  // frame silently: every queue-bound drop is the best-effort tail's.
  constexpr std::size_t kBound = 64;  // see the best-effort test above
  constexpr std::size_t kFrames = 512;
  for (const char* config : {"default", "connection limit"}) {
    SCOPED_TRACE(config);
    FrameServerConfig sc;
    sc.send_queue_messages = kBound;
    sc.send_buffer_bytes = 2048;
    sc.drain_timeout = 5.0;
    if (std::string(config) == "connection limit") {
      sc.admission.max_connections = 8;
    }
    FrameServer server(sc);
    StalledSubscriber stalled(server.port(), ClientClass::kPriority);

    std::atomic<std::size_t> healthy_frames{0};
    FrameClientConfig cc;
    cc.port = server.port();
    FrameClient client(cc);
    std::thread tail([&] {
      FrameClient::Callbacks callbacks;
      callbacks.on_frame = [&](const runtime::FrameEvent&) {
        ++healthy_frames;
      };
      client.run(callbacks);
    });

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    while (server.counters().subscribers < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.counters().subscribers, 2u);

    for (std::uint64_t i = 0; i < kFrames; ++i) {
      server.publish(make_event(static_cast<std::size_t>(i), i));
      if (i % 2 == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    server.shutdown(/*drain=*/true);
    tail.join();

    const auto c = server.counters();
    EXPECT_EQ(c.priority_clients, 1u);
    EXPECT_EQ(c.evictions, 1u);
    // What the evicted client still held is discarded at its close: at
    // most the bound plus the one message half-written to its socket.
    EXPECT_LE(c.frames_discarded, kBound + 1);
    // Drops, all the tail's, account for every frame it did not receive.
    EXPECT_EQ(healthy_frames.load() + c.queue_drops, kFrames);
    EXPECT_EQ(c.frames_enqueued,
              c.frames_sent + c.queue_drops + c.frames_discarded);
  }
}

TEST(FrameClient, EvictedClientReconnectsAndResubscribes) {
  // Deterministic evict→reconnect→resubscribe exercise against a raw
  // scripted server. (A real overflow eviction writes its Bye into a
  // jammed socket and usually loses it, so the client sees plain EOF —
  // both the Bye(kEvicted) path and the EOF path are driven here.) The
  // wire itself proves the resubscribe: each reconnect handshake must
  // carry the *current* filter, including one set mid-run.
  const std::uint64_t resubscribes_before =
      obs::metrics().counter("net.client_resubscribes").value();
  const std::uint64_t evictions_before =
      obs::metrics().counter("net.client_evictions").value();

  TcpListener listener("127.0.0.1", 0);

  FrameClientConfig cc;
  cc.port = listener.port();
  cc.reconnect_on_evict = true;
  FrameClient client(cc);
  std::atomic<std::size_t> frames_seen{0};
  std::optional<Bye> final_bye;
  std::thread tail([&] {
    FrameClient::Callbacks callbacks;
    callbacks.on_frame = [&](const runtime::FrameEvent&) { ++frames_seen; };
    final_bye = client.run(callbacks);
  });

  const auto accept_one = [&]() -> TcpConnection {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      FdHandle fd = listener.accept();
      if (fd.valid()) return TcpConnection(std::move(fd));
      std::vector<PollItem> items{{listener.fd(), true, false}};
      poll_fds(items, 50);
    }
    throw SocketError("client never (re)connected");
  };
  const auto read_message = [](TcpConnection& conn,
                               MessageReader& reader) -> Message {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (auto message = reader.next()) return std::move(*message);
      std::vector<PollItem> items{{conn.fd(), true, false}};
      poll_fds(items, 50);
      std::uint8_t buf[4096];
      const std::ptrdiff_t n = conn.read_some(buf, sizeof(buf));
      if (n > 0) reader.feed(buf, static_cast<std::size_t>(n));
      if (n == 0) throw SocketError("client hung up mid-handshake");
    }
    throw SocketError("timed out waiting for a client message");
  };
  const auto send = [](TcpConnection& conn,
                       const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const std::ptrdiff_t n =
          conn.write_some(bytes.data() + sent, bytes.size() - sent);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (n == -1) {
        std::vector<PollItem> items{{conn.fd(), false, true}};
        poll_fds(items, 50);
      } else {
        throw SocketError("client hung up mid-write");
      }
    }
  };

  // --- connection 1: normal handshake, one frame, then a scripted
  // eviction. The filter changes mid-session; connection 2 must see it.
  {
    TcpConnection conn = accept_one();
    MessageReader reader;
    Message m = read_message(conn, reader);
    ASSERT_EQ(m.type, MsgType::kHello);
    EXPECT_EQ(decode_hello(m.body).role, PeerRole::kFrameSubscriber);
    m = read_message(conn, reader);
    ASSERT_EQ(m.type, MsgType::kSubscribe);
    EXPECT_FALSE(decode_subscribe(m.body).crc_valid_only);
    std::vector<std::uint8_t> out;
    encode_ack({0, "hello"}, out);
    encode_ack({0, "subscribed"}, out);
    encode_frame(make_event(0, 1), out);
    send(conn, out);

    SubscribeFilter clean;
    clean.crc_valid_only = true;
    client.set_filter(clean);
    EXPECT_TRUE(client.filter().crc_valid_only);

    out.clear();
    encode_bye({ByeReason::kEvicted, "scripted eviction"}, out);
    send(conn, out);
  }

  // --- connection 2: the evict-path reconnect. The handshake must carry
  // the filter set mid-run, not the construction-time one.
  {
    TcpConnection conn = accept_one();
    MessageReader reader;
    Message m = read_message(conn, reader);
    ASSERT_EQ(m.type, MsgType::kHello);
    m = read_message(conn, reader);
    ASSERT_EQ(m.type, MsgType::kSubscribe);
    EXPECT_TRUE(decode_subscribe(m.body).crc_valid_only)
        << "evict-path reconnect must re-send the current filter";
    std::vector<std::uint8_t> out;
    encode_ack({0, "hello"}, out);
    encode_ack({0, "subscribed"}, out);
    encode_frame(make_event(1, 2), out);
    send(conn, out);
  }  // abrupt close, no Bye: drives the dead-connection reconnect path

  // --- connection 3: the EOF-path reconnect. Filter must still hold.
  {
    TcpConnection conn = accept_one();
    MessageReader reader;
    Message m = read_message(conn, reader);
    ASSERT_EQ(m.type, MsgType::kHello);
    m = read_message(conn, reader);
    ASSERT_EQ(m.type, MsgType::kSubscribe);
    EXPECT_TRUE(decode_subscribe(m.body).crc_valid_only)
        << "EOF-path reconnect must re-send the current filter";
    std::vector<std::uint8_t> out;
    encode_ack({0, "hello"}, out);
    encode_ack({0, "subscribed"}, out);
    encode_frame(make_event(2, 3), out);
    encode_bye({ByeReason::kEndOfStream, "done"}, out);
    send(conn, out);
  }

  tail.join();
  ASSERT_TRUE(final_bye.has_value());
  EXPECT_EQ(final_bye->reason, ByeReason::kEndOfStream);
  EXPECT_EQ(frames_seen.load(), 3u);
  const auto counters = client.counters();
  EXPECT_EQ(counters.connects, 3u);
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.resubscribes, 2u);
  EXPECT_EQ(counters.reconnects, 2u);
  EXPECT_EQ(obs::metrics().counter("net.client_resubscribes").value(),
            resubscribes_before + 2);
  EXPECT_EQ(obs::metrics().counter("net.client_evictions").value(),
            evictions_before + 1);
}

TEST(FrameServer, GarbageSpeakerIsClosedAsProtocolError) {
  FrameServerConfig sc;
  FrameServer server(sc);
  TcpConnection conn = TcpConnection::connect("127.0.0.1", server.port(), 5.0);
  const char garbage[] = "GET / HTTP/1.0\r\n\r\n";
  conn.write_some(reinterpret_cast<const std::uint8_t*>(garbage),
                  sizeof(garbage) - 1);
  // The server must close the connection; reads eventually return EOF.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  std::ptrdiff_t n = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    std::uint8_t buf[256];
    n = conn.read_some(buf, sizeof(buf));
    if (n == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(n, 0) << "server should close a non-LFBW1 speaker";
  const auto counters = server.counters();
  EXPECT_EQ(counters.protocol_errors, 1u);
  EXPECT_EQ(counters.subscribers, 0u);
  server.shutdown(false);
}

TEST(FrameServer, PeerThatAsksAndNeverReadsIsEvictedAtTheReplyBound) {
  // One connection sends a hello and a burst of control-gets and never
  // reads. Replies to its own requests count against the per-client
  // queue bound: it is evicted once, and its queue never holds more than
  // the bound's worth of replies plus the hello ack.
  FrameServerConfig sc;
  sc.send_buffer_bytes = 4096;
  FrameServer server(sc);
  TcpConnection conn = TcpConnection::connect("127.0.0.1", server.port(), 5.0);
  constexpr std::size_t kGets = 20000;
  std::vector<std::uint8_t> bytes;
  encode_hello({PeerRole::kFrameSubscriber, 0.0, "asker"}, bytes);
  for (std::size_t i = 0; i < kGets; ++i) encode_control_get(bytes);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  std::size_t sent = 0;
  while (server.counters().evictions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    const std::ptrdiff_t n =
        sent < bytes.size()
            ? conn.write_some(bytes.data() + sent, bytes.size() - sent)
            : -1;
    if (n == 0) break;  // the server closed the connection
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  while (server.counters().evictions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<std::uint8_t> ack;
  encode_ack({0, "lfbs-gateway"}, ack);
  std::vector<std::uint8_t> reply;
  encode_control_plan(ControlPlanMsg{}, reply);
  const auto counters = server.counters();
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_LT(counters.control_gets, kGets);
  EXPECT_LE(counters.queue_bytes_peak,
            sc.send_queue_messages * reply.size() + ack.size());
  server.shutdown(false);
}

TEST(FrameServer, WaitForSubscriberTimesOutCleanly) {
  FrameServerConfig sc;
  FrameServer server(sc);
  EXPECT_FALSE(server.wait_for_subscriber(0.05));
  server.shutdown(false);
}

TEST(FrameServer, RejectsAZeroConnectionLimitAndAReplayPastTheBound) {
  FrameServerConfig closed;
  closed.admission.max_connections = 0;
  EXPECT_THROW(FrameServer{closed}, CheckError);
  // A replay must fit one client's queue, or a priority resubscriber (a
  // relay) would be evicted by its own replay on every reconnect.
  FrameServerConfig long_replay;
  long_replay.replay_frames = long_replay.send_queue_messages + 1;
  EXPECT_THROW(FrameServer{long_replay}, CheckError);
  // Every handshake queues an ack against the queue bound, so a zero
  // bound would evict each client before it subscribed.
  FrameServerConfig no_queue;
  no_queue.send_queue_messages = 0;
  EXPECT_THROW(FrameServer{no_queue}, CheckError);
}

TEST(FrameServer, ConnectsLeaveTheMetricsRegistryUnchanged) {
  // A long-running gateway takes a connect for every reconnect and every
  // denied dial; none of them may grow the process-global registry (and
  // with it every snapshot and --metrics-out).
  FrameServerConfig sc;
  FrameServer server(sc);
  const auto dial = [&] {
    TcpConnection::connect("127.0.0.1", server.port(), 5.0).close();
  };
  const auto wait_closed = [&](std::size_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.counters().disconnects < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.counters().disconnects, n);
  };
  dial();  // registers the server's own metrics
  wait_closed(1);
  const std::size_t gauges = obs::metrics().snapshot().gauges.size();
  for (int i = 0; i < 200; ++i) dial();
  wait_closed(201);
  EXPECT_EQ(server.counters().connects, 201u);
  EXPECT_EQ(obs::metrics().snapshot().gauges.size(), gauges);
  server.shutdown(false);
}

TEST(FrameClient, ConnectFailureExhaustsSupervisorStyleBackoff) {
  // Bind-then-close to get a port with nothing listening.
  std::uint16_t dead_port;
  {
    TcpListener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }
  FrameClientConfig cc;
  cc.port = dead_port;
  cc.connect_timeout = 0.5;
  FrameClient client(cc);
  FrameClient::Callbacks callbacks;
  EXPECT_THROW(client.run(callbacks), SocketError);
  EXPECT_EQ(client.counters().connects, 0u);
  // The defaults really are the runtime's source retry policy.
  EXPECT_EQ(cc.max_connect_attempts, runtime::kMaxSourceRetries);
  EXPECT_EQ(cc.backoff_initial, runtime::kRetryBackoffInitial);
  EXPECT_EQ(cc.backoff_max, runtime::kRetryBackoffMax);
}

// --- Peer: the one blocking LFBW1 endpoint -------------------------------

/// A connected loopback pair: {accepted end, dialing end}.
std::pair<TcpConnection, TcpConnection> loopback_pair() {
  TcpListener listener("127.0.0.1", 0);
  TcpConnection dialed =
      TcpConnection::connect("127.0.0.1", listener.port(), 5.0);
  std::vector<PollItem> items{{listener.fd(), true, false}};
  poll_fds(items, 5000);
  FdHandle fd = listener.accept();
  if (!fd.valid()) throw SocketError("loopback accept failed");
  return {TcpConnection(std::move(fd)), std::move(dialed)};
}

/// Runs `action` on its own thread after `delay`, unless destroyed first;
/// joins either way.
class After {
 public:
  After(std::chrono::milliseconds delay, std::function<void()> action)
      : thread_([this, delay, action = std::move(action)] {
          std::unique_lock lock(mutex_);
          if (!cv_.wait_for(lock, delay, [this] { return cancelled_; })) {
            action();
          }
        }) {}
  ~After() {
    {
      std::lock_guard lock(mutex_);
      cancelled_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  After(const After&) = delete;
  After& operator=(const After&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool cancelled_ = false;
  std::thread thread_;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(Peer, MessageSplitAcrossOneByteWritesArrivesWhole) {
  auto [accepted, dialed] = loopback_pair();
  Peer peer(std::move(accepted));
  std::vector<std::uint8_t> bytes;
  encode_frame(make_event(3, 5), bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_EQ(dialed.write_some(&bytes[i], 1), 1);
    const std::optional<Message> message = peer.receive(1000);
    if (i + 1 < bytes.size()) {
      ASSERT_FALSE(message.has_value()) << "byte " << i;
      ASSERT_EQ(peer.buffered(), i + 1);
    } else {
      ASSERT_TRUE(message.has_value());
      ASSERT_EQ(message->type, MsgType::kFrame);
      expect_event_identical(decode_frame(message->body), make_event(3, 5));
    }
  }
  EXPECT_EQ(peer.buffered(), 0u);
  EXPECT_FALSE(peer.closed());
}

TEST(Peer, ReceiveOnAQuietPeerReturnsNothingAfterItsTimeout) {
  auto [accepted, dialed] = loopback_pair();
  Peer peer(std::move(accepted));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(peer.receive(150).has_value());
  const double waited = seconds_since(start);
  EXPECT_GE(waited, 0.14);
  EXPECT_LT(waited, 2.0);
  EXPECT_FALSE(peer.closed());
}

TEST(Peer, EofSetsClosed) {
  auto [accepted, dialed] = loopback_pair();
  Peer peer(std::move(accepted));
  dialed.close();
  EXPECT_FALSE(peer.receive(1000).has_value());
  EXPECT_TRUE(peer.closed());
}

TEST(Peer, LargeSendThroughATinySendBufferCompletesWhileThePeerDrains) {
  auto [accepted, dialed] = loopback_pair();
  dialed.set_send_buffer(2048);
  Peer sender(std::move(dialed));
  Peer receiver(std::move(accepted));
  runtime::SampleChunk chunk;
  for (std::size_t i = 0; i < 65536; ++i) {  // 1 MiB of f64 IQ
    chunk.samples.emplace_back(static_cast<double>(i), -0.5 * i);
  }
  std::vector<std::uint8_t> bytes;
  encode_iq_chunk(chunk, /*f64=*/true, bytes);
  std::optional<Message> got;
  std::thread drain([&] {
    const auto start = std::chrono::steady_clock::now();
    while (!got && !receiver.closed() && seconds_since(start) < 5.0) {
      got = receiver.receive(100);
    }
  });
  EXPECT_NO_THROW(sender.send(bytes));
  drain.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(decode_iq_chunk(got->body).samples, chunk.samples);
}

TEST(Peer, SendToAClosedPeerThrowsSocketError) {
  auto [accepted, dialed] = loopback_pair();
  dialed.set_send_buffer(2048);
  Peer sender(std::move(dialed));
  accepted.close();
  const std::vector<std::uint8_t> bytes(1 << 20, 0x5A);
  // Bounded: a send that never noticed the dead peer gives up on the flag
  // instead of spinning, and the expectation fails.
  std::atomic<bool> give_up{false};
  After bound(std::chrono::seconds(5), [&] { give_up = true; });
  EXPECT_THROW(sender.send(bytes, &give_up), SocketError);
}

TEST(Peer, SendBlockedOnAFullBufferReturnsOnceStopIsSet) {
  // ShardWorker::stop()'s path: the far end reads nothing, the send blocks
  // on a full buffer, and it must give up once the flag is set. Should it
  // ignore the flag, the far end hanging up later ends the send with a
  // SocketError instead of a hang.
  auto [accepted, dialed] = loopback_pair();
  dialed.set_send_buffer(2048);
  Peer sender(std::move(dialed));
  const std::vector<std::uint8_t> bytes(1 << 20, 0x5A);
  std::atomic<bool> stop{false};
  const auto start = std::chrono::steady_clock::now();
  {
    After stopper(std::chrono::milliseconds(200), [&] { stop = true; });
    After hang_up(std::chrono::seconds(3), [&] { accepted.close(); });
    EXPECT_NO_THROW(sender.send(bytes, &stop));
  }
  const double waited = seconds_since(start);
  EXPECT_GE(waited, 0.19) << "the send should have blocked until the stop";
  EXPECT_LT(waited, 2.5);
}

// --- remote IQ ingest ----------------------------------------------------

signal::SampleBuffer make_noise_capture(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples.emplace_back(rng.gaussian(), rng.gaussian());
  }
  return signal::SampleBuffer(5.0 * kMsps, std::move(samples));
}

TEST(RemoteIqSource, F64PushDeliversBitIdenticalSamples) {
  const signal::SampleBuffer capture = make_noise_capture(50000, 71);

  IqIngestConfig ic;
  RemoteIqSource source(ic);
  std::thread pusher([&] {
    runtime::MemorySource local(capture, 4096);
    const std::uint64_t pushed =
        push_iq("127.0.0.1", source.port(), local, /*f64=*/true);
    EXPECT_EQ(pushed, capture.size());
  });

  EXPECT_EQ(source.wait_for_pusher(), capture.sample_rate());
  std::vector<Complex> received;
  std::uint64_t next = 0;
  while (auto chunk = source.next_chunk()) {
    EXPECT_EQ(chunk->first_sample, next);
    next += chunk->size();
    received.insert(received.end(), chunk->samples.begin(),
                    chunk->samples.end());
  }
  pusher.join();

  ASSERT_EQ(received.size(), capture.size());
  for (std::size_t i = 0; i < received.size(); ++i) {
    ASSERT_EQ(received[i], capture[i]) << "sample " << i;
  }
  EXPECT_FALSE(source.truncated());
  EXPECT_EQ(source.total_samples(), capture.size());
}

TEST(RemoteIqSource, RemoteDecodeMatchesLocalDecodeBitForBit) {
  // The full promise: decode a capture through a TCP hop and get exactly
  // the frames a local decode produces. Uses the same multi-tag capture
  // construction as the runtime parity tests.
  Rng rng(123);
  reader::ReceiverConfig rcv;
  rcv.sample_rate = 5.0 * kMsps;
  rcv.noise_power = 1e-5;
  channel::ChannelModel ch;
  std::vector<tag::Tag> tags;
  protocol::FrameConfig fc;
  for (std::size_t i = 0; i < 3; ++i) {
    ch.add_tag(std::polar(rng.uniform(0.08, 0.2), rng.uniform(0.0, 6.2831)));
    tag::TagConfig tc;
    tc.incoming_energy = rng.uniform(0.7, 1.3);
    tags.emplace_back(tc, rng);
  }
  std::vector<signal::StateTimeline> timelines;
  const Seconds duration = 5e-3;
  for (auto& t : tags) {
    std::vector<std::vector<bool>> frames{
        protocol::build_frame(rng.bits(96), fc)};
    timelines.push_back(t.transmit_epoch(frames, duration, rng).timeline);
  }
  reader::Receiver receiver(rcv, ch);
  const signal::SampleBuffer capture =
      receiver.receive_epoch(timelines, duration, rng);

  runtime::RuntimeConfig rc;
  rc.workers = 2;
  const auto local = runtime::DecodeRuntime(rc).decode(capture, 4096);

  IqIngestConfig ic;
  RemoteIqSource source(ic);
  std::thread pusher([&] {
    runtime::MemorySource mem(capture, 4096);
    push_iq("127.0.0.1", source.port(), mem, /*f64=*/true);
  });
  source.wait_for_pusher();
  const auto remote = runtime::DecodeRuntime(rc).run(source);
  pusher.join();

  ASSERT_EQ(remote.decode.streams.size(), local.decode.streams.size());
  for (std::size_t i = 0; i < local.decode.streams.size(); ++i) {
    const auto& a = local.decode.streams[i];
    const auto& b = remote.decode.streams[i];
    EXPECT_EQ(a.start_sample, b.start_sample);
    EXPECT_EQ(a.rate, b.rate);
    EXPECT_EQ(a.bits, b.bits);
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t f = 0; f < a.frames.size(); ++f) {
      EXPECT_EQ(a.frames[f].payload, b.frames[f].payload);
      EXPECT_EQ(a.frames[f].valid(), b.frames[f].valid());
    }
  }
}

TEST(RemoteIqSource, PusherDeathMidStreamIsNonTransient) {
  IqIngestConfig ic;
  RemoteIqSource source(ic);
  std::thread pusher([&] {
    TcpConnection conn =
        TcpConnection::connect("127.0.0.1", source.port(), 5.0);
    std::vector<std::uint8_t> bytes;
    encode_hello({PeerRole::kIqPusher, 1e6, "dying"}, bytes);
    runtime::SampleChunk chunk;
    chunk.first_sample = 0;
    chunk.samples.assign(100, Complex{0.5, -0.5});
    encode_iq_chunk(chunk, true, bytes);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const std::ptrdiff_t n =
          conn.write_some(bytes.data() + sent, bytes.size() - sent);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    conn.close();  // no IqEnd: mid-stream death
  });

  source.wait_for_pusher();
  const auto chunk = source.next_chunk();
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->samples.size(), 100u);
  try {
    while (source.next_chunk().has_value()) {
    }
    FAIL() << "mid-stream EOF must throw";
  } catch (const runtime::SourceError& e) {
    EXPECT_FALSE(e.transient());
  }
  pusher.join();
}

TEST(RemoteIqSource, ChunkSkippingAheadIsRejected) {
  // Chunk positions come from the pusher. One that claims first_sample =
  // 2^40 would have the runtime zero-fill and decode some 10^7 empty
  // windows, so the source refuses it as a protocol error instead.
  IqIngestConfig ic;
  RemoteIqSource source(ic);
  std::thread pusher([&] {
    TcpConnection conn =
        TcpConnection::connect("127.0.0.1", source.port(), 5.0);
    std::vector<std::uint8_t> bytes;
    encode_hello({PeerRole::kIqPusher, 1e6, "skipping"}, bytes);
    runtime::SampleChunk chunk;
    chunk.samples.assign(100, Complex{0.5, -0.5});
    encode_iq_chunk(chunk, true, bytes);
    chunk.first_sample = std::uint64_t{1} << 40;
    encode_iq_chunk(chunk, true, bytes);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const std::ptrdiff_t n =
          conn.write_some(bytes.data() + sent, bytes.size() - sent);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    // Hold the link open until the source hangs up on us.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      std::uint8_t buf[256];
      if (conn.read_some(buf, sizeof(buf)) == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  source.wait_for_pusher();
  const auto first = source.next_chunk();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first_sample, 0u);
  try {
    source.next_chunk();
    FAIL() << "a chunk past the samples received must be rejected";
  } catch (const runtime::SourceError& e) {
    EXPECT_FALSE(e.transient());
    EXPECT_NE(std::string(e.what()).find("expected 100"), std::string::npos)
        << e.what();
  }
  pusher.join();
}

TEST(RemoteIqSource, StopEndsTheWaitForAPusher) {
  // No pusher ever connects. A stop must end the wait promptly, not wait
  // out accept_timeout.
  std::atomic<bool> stop{false};
  IqIngestConfig ic;
  ic.accept_timeout = 5.0;
  ic.stop_flag = &stop;
  RemoteIqSource source(ic);
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true);
  });
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<SampleRate> rate;
  EXPECT_NO_THROW(rate = source.wait_for_pusher());
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  stopper.join();

  EXPECT_LT(elapsed, 1.0);
  EXPECT_FALSE(rate.has_value());
}

TEST(RemoteIqSource, StopEndsTheWaitForAHello) {
  // A pusher connects but never says hello. A stop must end the handshake
  // wait promptly, not wait out accept_timeout.
  std::atomic<bool> stop{false};
  IqIngestConfig ic;
  ic.accept_timeout = 5.0;
  ic.stop_flag = &stop;
  RemoteIqSource source(ic);
  std::atomic<bool> hang_up{false};
  std::thread pusher([&] {
    TcpConnection conn =
        TcpConnection::connect("127.0.0.1", source.port(), 5.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true);
    while (!hang_up.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<SampleRate> rate;
  EXPECT_NO_THROW(rate = source.wait_for_pusher());
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  hang_up.store(true);
  pusher.join();

  EXPECT_LT(elapsed, 1.0);
  EXPECT_FALSE(rate.has_value());
}

TEST(RemoteIqSource, StopEndsTheStreamOfASilentPusher) {
  // The pusher sends one chunk, then falls silent with the link open. A
  // stop must end the run promptly, not wait out the read in hand.
  std::atomic<bool> stop{false};
  IqIngestConfig ic;
  ic.read_timeout = 5.0;
  ic.stop_flag = &stop;
  RemoteIqSource source(ic);
  std::atomic<bool> hang_up{false};
  std::thread pusher([&] {
    TcpConnection conn =
        TcpConnection::connect("127.0.0.1", source.port(), 5.0);
    std::vector<std::uint8_t> bytes;
    encode_hello({PeerRole::kIqPusher, 1e6, "silent"}, bytes);
    runtime::SampleChunk chunk;
    chunk.samples.assign(100, Complex{0.5, -0.5});
    encode_iq_chunk(chunk, true, bytes);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const std::ptrdiff_t n =
          conn.write_some(bytes.data() + sent, bytes.size() - sent);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    while (!hang_up.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  source.wait_for_pusher();

  runtime::RuntimeConfig rc;
  rc.workers = 1;
  rc.stop_flag = &stop;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true);
  });
  const auto t0 = std::chrono::steady_clock::now();
  const runtime::RuntimeResult result = runtime::DecodeRuntime(rc).run(source);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  stopper.join();
  hang_up.store(true);
  pusher.join();

  EXPECT_LT(elapsed, 1.0);
  EXPECT_TRUE(result.stats.stopped_early);
  EXPECT_NE(result.stats.health, runtime::HealthState::kFailed);
  EXPECT_EQ(result.stats.samples_in, 100u);
}

TEST(RemoteIqSource, WrongRolePeerIsRejected) {
  IqIngestConfig ic;
  RemoteIqSource source(ic);
  std::thread peer([&] {
    TcpConnection conn =
        TcpConnection::connect("127.0.0.1", source.port(), 5.0);
    std::vector<std::uint8_t> bytes;
    encode_hello({PeerRole::kFrameSubscriber, 0.0, "wrong"}, bytes);
    conn.write_some(bytes.data(), bytes.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  try {
    source.wait_for_pusher();
    FAIL() << "wrong role must be rejected";
  } catch (const runtime::SourceError& e) {
    EXPECT_FALSE(e.transient());
  }
  peer.join();
}

}  // namespace
}  // namespace lfbs::net
