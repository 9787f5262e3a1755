// Tests for the network chaos layer (src/net/chaos) and the recovery
// machinery it exists to drill: the --chaos spec grammar, seeded fault
// replay, and a fault-class × component matrix — FrameClient under
// refusal / reset / corruption / truncation, RemoteIqSource under reset
// and short transfers, the shard coordinator under link truncation and a
// worker killed mid-run (both a chaos-injected reset and a real SIGKILLed
// worker process), and the relay's replay-ring partition recovery. The
// load-bearing property throughout: every injected fault is either healed
// bit-identically or surfaces as a typed, documented failure — never a
// hang, never silently-wrong output.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <thread>

#include "common/check.h"
#include "core/windowed_decoder.h"
#include "net/chaos/chaos.h"
#include "net/federation/relay.h"
#include "net/federation/shard.h"
#include "net/federation/shard_worker.h"
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "net/iq_ingest.h"
#include "net/peer.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "runtime/frame_bus.h"
#include "runtime/sample_source.h"
#include "test_support.h"

namespace lfbs::net {
namespace {

std::uint64_t metric(const char* name) {
  return obs::metrics().counter(name).value();
}

runtime::FrameEvent make_event(std::size_t index, std::uint64_t seed) {
  Rng rng(seed);
  runtime::FrameEvent event;
  event.stream_index = index;
  event.stream_start = rng.uniform(0.0, 1e6);
  event.rate = rng.uniform(1e3, 250e3);
  event.collided = (seed % 2) == 0;
  event.confidence = rng.uniform(0.0, 1.0);
  event.frame.payload = rng.bits(96 + seed % 7);
  event.frame.anchor_ok = true;
  event.frame.crc_ok = (seed % 3) != 0;
  event.epoch_index = seed * 11;
  event.window_index = seed * 13 + 1;
  event.frame_index = seed % 5;
  return event;
}

void expect_event_identical(const runtime::FrameEvent& a,
                            const runtime::FrameEvent& b) {
  EXPECT_EQ(a.stream_index, b.stream_index);
  EXPECT_EQ(a.stream_start, b.stream_start);  // bit-exact doubles
  EXPECT_EQ(a.rate, b.rate);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.frame.payload, b.frame.payload);
  EXPECT_EQ(a.frame.crc_ok, b.frame.crc_ok);
  EXPECT_EQ(a.epoch_index, b.epoch_index);
  EXPECT_EQ(a.window_index, b.window_index);
  EXPECT_EQ(a.frame_index, b.frame_index);
}

TcpConnection accept_one(TcpListener& listener) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    FdHandle fd = listener.accept();
    if (fd.valid()) return TcpConnection(std::move(fd));
    std::vector<PollItem> items{{listener.fd(), true, false}};
    poll_fds(items, 50);
  }
  throw SocketError("peer never connected");
}

/// Writes every byte unless the peer hangs up first.
void write_all(TcpConnection& conn, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const std::ptrdiff_t n =
        conn.write_some(bytes.data() + sent, bytes.size() - sent);
    if (n == 0) return;
    if (n > 0) sent += static_cast<std::size_t>(n);
  }
}

// --- spec grammar --------------------------------------------------------

TEST(ChaosSpec, GrammarParsesEveryKey) {
  const ChaosConfig c = parse_chaos_config(
      "seed=7,refuse=0.05,refuse-first=2,reset=0.002,reset-limit=3,"
      "reset-skip=4,stall=0.01,stall-ms=30,partition-in=0.005,"
      "partition-out=0.006,partition-ms=50,truncate=0.02,corrupt=0.001,"
      "delay=0.05,delay-ms=2,jitter-ms=3,scope=both");
  EXPECT_EQ(c.seed, 7u);
  EXPECT_EQ(c.refuse, 0.05);
  EXPECT_EQ(c.refuse_first, 2u);
  EXPECT_EQ(c.reset, 0.002);
  EXPECT_EQ(c.reset_limit, 3u);
  EXPECT_EQ(c.reset_skip, 4u);
  EXPECT_EQ(c.stall, 0.01);
  EXPECT_NEAR(c.stall_duration, 30e-3, 1e-12);
  EXPECT_EQ(c.partition_in, 0.005);
  EXPECT_EQ(c.partition_out, 0.006);
  EXPECT_NEAR(c.partition_duration, 50e-3, 1e-12);
  EXPECT_EQ(c.truncate, 0.02);
  EXPECT_EQ(c.corrupt, 0.001);
  EXPECT_EQ(c.delay, 0.05);
  EXPECT_NEAR(c.delay_base, 2e-3, 1e-12);
  EXPECT_NEAR(c.delay_jitter, 3e-3, 1e-12);
  EXPECT_TRUE(c.on_connect);
  EXPECT_TRUE(c.on_accept);
  EXPECT_TRUE(c.enabled());
  EXPECT_FALSE(ChaosConfig{}.enabled());
}

TEST(ChaosSpec, UnknownKeyAndBadScopeThrowTyped) {
  EXPECT_THROW(parse_chaos_config("bogus=1"), CheckError);
  EXPECT_THROW(parse_chaos_config("scope=sideways"), CheckError);
  // Numbers parse whole: no sign on integers, no trailing characters.
  EXPECT_THROW(parse_chaos_config("refuse-first=-1"), CheckError);
  EXPECT_THROW(parse_chaos_config("reset=0.5oops"), CheckError);
  EXPECT_THROW(parse_chaos_config("delay=nan"), CheckError);
}

// --- engine determinism & corruption shape -------------------------------

/// A fixed single-threaded echo workload over loopback: the connect-side
/// (tracked) peer reads 64 bytes and writes 32 back, `rounds` times. The
/// op sequence the engine sees is a pure function of its own draws, so a
/// seed must replay the identical fault schedule.
ChaosStats run_fixed_workload(const ChaosConfig& config, int rounds) {
  ChaosEngine engine(config);
  ChaosScope scope(engine);
  TcpListener listener("127.0.0.1", 0);
  TcpConnection tracked =
      TcpConnection::connect("127.0.0.1", listener.port(), 5.0);
  TcpConnection server = accept_one(listener);

  std::uint8_t out[64];
  for (std::size_t i = 0; i < sizeof(out); ++i) {
    out[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  for (int round = 0; round < rounds; ++round) {
    // Server (untracked, no draws) sends the pattern...
    std::size_t sent = 0;
    while (sent < sizeof(out)) {
      const std::ptrdiff_t n = server.write_some(out + sent,
                                                 sizeof(out) - sent);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    // ...the tracked side reads it through the fault gates...
    std::uint8_t in[64];
    std::size_t got = 0;
    while (got < sizeof(in)) {
      const std::ptrdiff_t n = tracked.read_some(in + got, sizeof(in) - got);
      if (n > 0) {
        got += static_cast<std::size_t>(n);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    // ...and answers through them too.
    std::size_t acked = 0;
    while (acked < 32) {
      const std::ptrdiff_t n = tracked.write_some(in + acked, 32 - acked);
      if (n > 0) {
        acked += static_cast<std::size_t>(n);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    std::size_t drained = 0;
    while (drained < 32) {
      std::uint8_t buf[32];
      const std::ptrdiff_t n = server.read_some(buf, sizeof(buf));
      if (n > 0) drained += static_cast<std::size_t>(n);
    }
  }
  return engine.stats();
}

TEST(ChaosEngine, SameSeedReplaysTheSameFaultSchedule) {
  const ChaosConfig config = parse_chaos_config(
      "seed=21,delay=0.2,delay-ms=1,stall=0.1,stall-ms=5,truncate=0.5,"
      "corrupt=0.3");
  const ChaosStats a = run_fixed_workload(config, 40);
  const ChaosStats b = run_fixed_workload(config, 40);
  EXPECT_GT(a.faults(), 0u) << "the drill must actually inject";
  EXPECT_EQ(a.delays, b.delays);
  EXPECT_EQ(a.stalls, b.stalls);
  EXPECT_EQ(a.truncations, b.truncations);
  EXPECT_EQ(a.corruptions, b.corruptions);
  EXPECT_EQ(a.resets, b.resets);
  EXPECT_EQ(a.partitions, b.partitions);
}

TEST(ChaosEngine, CorruptionFlipsExactlyOneBitPerRead) {
  ChaosEngine engine(parse_chaos_config("seed=3,corrupt=1"));
  ChaosScope scope(engine);
  TcpListener listener("127.0.0.1", 0);
  TcpConnection tracked =
      TcpConnection::connect("127.0.0.1", listener.port(), 5.0);
  TcpConnection server = accept_one(listener);

  std::uint8_t out[64] = {};
  std::size_t sent = 0;
  while (sent < sizeof(out)) {
    const std::ptrdiff_t n = server.write_some(out + sent, sizeof(out) - sent);
    if (n > 0) sent += static_cast<std::size_t>(n);
  }
  std::uint8_t in[64];
  std::size_t got = 0;
  std::size_t reads = 0;
  while (got < sizeof(in)) {
    const std::ptrdiff_t n = tracked.read_some(in + got, sizeof(in) - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      ++reads;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Each completed read flipped exactly one bit inside its own byte range,
  // so the total damage is one bit per read — no more, no less.
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < sizeof(in); ++i) {
    std::uint8_t diff = in[i] ^ out[i];
    while (diff != 0) {
      flipped += diff & 1u;
      diff = static_cast<std::uint8_t>(diff >> 1);
    }
  }
  EXPECT_EQ(flipped, reads);
  EXPECT_EQ(engine.stats().corruptions, reads);
}

TEST(ChaosEngine, ZeroTimeoutReceiveReadsAndDraws) {
  // ShardPool drains its links with receive(0), which must read even when
  // nothing is pending: the engine draws on every read, would-block ones
  // included, so skipping them would shift every seeded schedule on the
  // coordinator's links.
  ChaosEngine engine(parse_chaos_config("reset=1,reset-limit=1"));
  ChaosScope scope(engine);
  TcpListener listener("127.0.0.1", 0);
  Peer peer(TcpConnection::connect("127.0.0.1", listener.port(), 5.0));
  TcpConnection server = accept_one(listener);
  EXPECT_FALSE(peer.receive(0).has_value());
  EXPECT_EQ(engine.stats().resets, 1u);
  EXPECT_TRUE(peer.closed());
}

// --- FrameClient under chaos ---------------------------------------------

TEST(ChaosFrameClient, RefusedDialsBackOffThenConnectAndDeliver) {
  ChaosEngine engine(parse_chaos_config("refuse-first=2"));
  ChaosScope scope(engine);
  FrameServerConfig sc;
  FrameServer server(sc);

  std::vector<runtime::FrameEvent> received;
  FrameClientConfig cc;
  cc.port = server.port();
  cc.max_connect_attempts = 5;
  cc.backoff_initial = 0.01;
  cc.backoff_max = 0.02;
  cc.backoff_seed = 42;
  FrameClient client(cc);
  std::thread tail([&] {
    FrameClient::Callbacks callbacks;
    callbacks.on_frame = [&](const runtime::FrameEvent& event) {
      received.push_back(event);
    };
    const Bye bye = client.run(callbacks);
    EXPECT_EQ(bye.reason, ByeReason::kEndOfStream);
  });

  ASSERT_TRUE(server.wait_for_subscriber(5.0));
  std::vector<runtime::FrameEvent> sent;
  for (std::uint64_t i = 0; i < 16; ++i) {
    sent.push_back(make_event(static_cast<std::size_t>(i), i * 3 + 1));
    server.publish(sent.back());
  }
  server.shutdown(/*drain=*/true);
  tail.join();

  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    expect_event_identical(sent[i], received[i]);
  }
  EXPECT_EQ(engine.stats().connects_refused, 2u);
  EXPECT_EQ(client.counters().connects, 1u);
}

TEST(ChaosFrameClient, ResetConnectionReconnectsAndReplayRingHeals) {
  FrameServerConfig sc;
  sc.replay_frames = 64;
  FrameServer server(sc);

  // The whole batch is published before the subscriber exists: only the
  // replay ring can deliver it, and only to a client that survives the
  // injected kill of its first connection.
  std::vector<runtime::FrameEvent> sent;
  for (std::uint64_t i = 0; i < 10; ++i) {
    sent.push_back(make_event(static_cast<std::size_t>(i), i * 5 + 2));
    server.publish(sent.back());
  }

  ChaosEngine engine(parse_chaos_config("reset=1,reset-limit=1"));
  ChaosScope scope(engine);
  std::vector<runtime::FrameEvent> received;
  FrameClientConfig cc;
  cc.port = server.port();
  cc.filter.replay_recent = true;
  cc.backoff_initial = 0.01;
  cc.backoff_max = 0.02;
  FrameClient client(cc);
  std::thread tail([&] {
    FrameClient::Callbacks callbacks;
    callbacks.on_frame = [&](const runtime::FrameEvent& event) {
      received.push_back(event);
    };
    const Bye bye = client.run(callbacks);
    EXPECT_EQ(bye.reason, ByeReason::kEndOfStream);
  });

  ASSERT_TRUE(server.wait_for_subscriber(5.0));
  server.shutdown(/*drain=*/true);
  tail.join();

  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    expect_event_identical(sent[i], received[i]);
  }
  EXPECT_EQ(engine.stats().resets, 1u);
  // The killed connection never completed its handshake.
  EXPECT_EQ(client.counters().connects, 1u);
  EXPECT_EQ(server.counters().replays_sent, sent.size());
}

TEST(ChaosFrameClient, CorruptionIsRiddenOutUnderTheReconnectFlag) {
  const std::uint64_t resets_before = metric("net.client_protocol_resets");
  const std::uint64_t reconnects_before = metric("net.client_reconnects");

  FrameServerConfig sc;
  FrameServer server(sc);

  // Every read flips a bit while the engine is installed. A flip in a
  // structural field (type byte, length prefix, ack status) kills the
  // connection — as a WireFormatError (protocol reset) or a handshake
  // timeout — while a flip in free text is shrugged off, so the drill
  // pumps stats heartbeats to keep reads (and therefore corruption draws)
  // coming until one bites. Under the reconnect flag every bite is just a
  // dead connection to retry; no frames flow during the drill, so the
  // delivery check below stays clean. Once the drill ends, the next
  // handshake is pristine and the stream must come through bit-identical.
  ChaosEngine engine(parse_chaos_config("seed=5,corrupt=1"));
  std::optional<ChaosScope> scope;
  scope.emplace(engine);

  std::vector<runtime::FrameEvent> received;
  std::atomic<std::size_t> stats_seen{0};
  FrameClientConfig cc;
  cc.port = server.port();
  cc.reconnect_on_protocol_error = true;
  cc.connect_timeout = 0.25;
  cc.backoff_initial = 0.01;
  cc.backoff_max = 0.02;
  FrameClient client(cc);
  std::thread tail([&] {
    FrameClient::Callbacks callbacks;
    callbacks.on_frame = [&](const runtime::FrameEvent& event) {
      received.push_back(event);
    };
    callbacks.on_stats = [&](const WireStats&) { ++stats_seen; };
    try {
      const Bye bye = client.run(callbacks);
      EXPECT_EQ(bye.reason, ByeReason::kEndOfStream);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "tail: " << e.what();
    }
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (metric("net.client_protocol_resets") == resets_before &&
         metric("net.client_reconnects") == reconnects_before &&
         std::chrono::steady_clock::now() < deadline) {
    server.publish_stats(runtime::RuntimeStats{});  // keep the reads coming
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const bool corruption_bit =
      metric("net.client_protocol_resets") > resets_before ||
      metric("net.client_reconnects") > reconnects_before;
  scope.reset();  // end of the drill: the wire is clean again

  // wait_for_subscriber can return on a subscription the client already
  // abandoned; a heartbeat the client receives after the drill proves its
  // current subscription is live. A failed wait fails the test below (no
  // ASSERT while the tail thread runs).
  EXPECT_TRUE(server.wait_for_subscriber(10.0));
  const std::size_t stats_before = stats_seen.load();
  const auto live_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stats_seen.load() == stats_before &&
         std::chrono::steady_clock::now() < live_deadline) {
    server.publish_stats(runtime::RuntimeStats{});
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool live = stats_seen.load() > stats_before;
  if (!live) client.stop();
  std::vector<runtime::FrameEvent> sent;
  for (std::uint64_t i = 0; i < 16; ++i) {
    sent.push_back(make_event(static_cast<std::size_t>(i), i * 9 + 4));
    server.publish(sent.back());
  }
  server.shutdown(/*drain=*/true);
  tail.join();

  EXPECT_TRUE(live) << "no heartbeat reached the client after the drill";
  EXPECT_TRUE(corruption_bit) << "corruption never bit before the deadline";
  EXPECT_GT(engine.stats().corruptions, 0u);
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    expect_event_identical(sent[i], received[i]);
  }
}

TEST(FrameClient, GarbageStreamWithoutTheFlagThrowsTyped) {
  // The default stance: a malformed server is a loud, typed failure, not
  // something to retry forever.
  TcpListener listener("127.0.0.1", 0);
  std::thread script([&] {
    TcpConnection conn = accept_one(listener);
    std::vector<std::uint8_t> out;
    encode_ack({0, "hello"}, out);
    encode_ack({0, "subscribed"}, out);
    out.push_back(0x7F);  // no such MsgType
    out.insert(out.end(), {0x00, 0x00, 0x00, 0x00});
    std::size_t sent = 0;
    while (sent < out.size()) {
      const std::ptrdiff_t n =
          conn.write_some(out.data() + sent, out.size() - sent);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });

  FrameClientConfig cc;
  cc.port = listener.port();
  FrameClient client(cc);
  EXPECT_THROW(client.run({}), WireFormatError);
  script.join();
}

TEST(FrameClient, StalledMessageIsADeadConnection) {
  // What a corrupted length prefix looks like from the client: a message
  // that claims far more body than will ever arrive. Scripted: acks, then a
  // kStats header claiming 1 MiB, then a trickle of single bytes. The
  // message must count as a dead connection connect_timeout after its
  // first bytes — a protocol reset and a reconnect under the flag, a typed
  // WireFormatError without it — instead of buffering the trickle forever.
  for (const bool reconnect : {true, false}) {
    SCOPED_TRACE(reconnect ? "reconnect flag" : "no flag");
    TcpListener listener("127.0.0.1", 0);
    FrameClientConfig cc;
    cc.port = listener.port();
    cc.connect_timeout = 0.3;
    cc.backoff_initial = 0.01;
    cc.backoff_max = 0.02;
    cc.reconnect_on_protocol_error = reconnect;
    FrameClient client(cc);
    std::optional<Bye> bye;
    std::optional<WireError> wire_error;
    std::thread tail([&] {
      try {
        bye = client.run({});
      } catch (const WireFormatError& e) {
        wire_error = e.code();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "tail: " << e.what();
      }
    });

    bool hung_up = false;
    {
      TcpConnection conn = accept_one(listener);
      std::vector<std::uint8_t> out;
      encode_ack({0, "hello"}, out);
      encode_ack({0, "subscribed"}, out);
      out.insert(out.end(), {static_cast<std::uint8_t>(MsgType::kStats),
                             0x00, 0x00, 0x10, 0x00});  // 1 MiB body
      write_all(conn, out);
      // Bounded: a client that never gives up fails the test, not hangs it.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!hung_up && std::chrono::steady_clock::now() < deadline) {
        const std::uint8_t byte = 0;
        conn.write_some(&byte, 1);
        std::uint8_t buf[256];
        std::ptrdiff_t n;
        while ((n = conn.read_some(buf, sizeof(buf))) > 0) {
        }
        hung_up = n == 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    EXPECT_TRUE(hung_up) << "the client kept buffering the stalled message";
    if (hung_up && reconnect) {
      try {
        TcpConnection conn = accept_one(listener);
        std::vector<std::uint8_t> out;
        encode_ack({0, "hello"}, out);
        encode_ack({0, "subscribed"}, out);
        encode_bye({ByeReason::kEndOfStream, "done"}, out);
        write_all(conn, out);
        tail.join();
      } catch (const SocketError& e) {
        ADD_FAILURE() << "no reconnect: " << e.what();
      }
    }
    client.stop();
    if (tail.joinable()) tail.join();

    if (reconnect) {
      ASSERT_TRUE(bye.has_value());
      EXPECT_EQ(bye->reason, ByeReason::kEndOfStream);
      EXPECT_EQ(client.counters().protocol_resets, 1u);
      EXPECT_EQ(client.counters().reconnects, 1u);
    } else {
      ASSERT_TRUE(wire_error.has_value());
      EXPECT_EQ(*wire_error, WireError::kTruncated);
    }
  }
}

TEST(FrameClient, SlowCallbackIsNotAStalledMessage) {
  // The stalled-message clock measures the wire, not the consumer: a frame
  // callback that blocks past connect_timeout (a tail printing into a full
  // pipe) while the next message is half-read is not a stalled stream.
  TcpListener listener("127.0.0.1", 0);
  FrameClientConfig cc;
  cc.port = listener.port();
  cc.connect_timeout = 0.5;
  FrameClient client(cc);
  std::atomic<bool> callback_done{false};
  std::size_t frames = 0;
  std::optional<Bye> bye;
  std::thread tail([&] {
    FrameClient::Callbacks callbacks;
    callbacks.on_frame = [&](const runtime::FrameEvent&) {
      if (++frames > 1) return;
      std::this_thread::sleep_for(std::chrono::seconds(1));
      callback_done = true;
    };
    try {
      bye = client.run(callbacks);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "tail: " << e.what();
    }
  });

  TcpConnection conn = accept_one(listener);
  std::vector<std::uint8_t> rest;
  encode_frame(make_event(1, 2), rest);
  encode_bye({ByeReason::kEndOfStream, "done"}, rest);
  std::vector<std::uint8_t> out;
  encode_ack({0, "hello"}, out);
  encode_ack({0, "subscribed"}, out);
  encode_frame(make_event(0, 1), out);
  // The second frame's header and first body bytes arrive with the first.
  out.insert(out.end(), rest.begin(), rest.begin() + 8);
  rest.erase(rest.begin(), rest.begin() + 8);
  write_all(conn, out);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!callback_done && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  write_all(conn, rest);
  tail.join();

  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(bye->reason, ByeReason::kEndOfStream);
  EXPECT_EQ(frames, 2u);
}

TEST(ChaosFrameClient, TruncationStallsAndDelaysAreTransparent) {
  // Short transfers, silence windows, and latency never cost correctness:
  // the byte stream is intact, so delivery must stay bit-identical and
  // in order — the faults only show up in the chaos ledger.
  ChaosEngine engine(parse_chaos_config(
      "seed=9,truncate=0.7,stall=0.2,stall-ms=10,delay=0.3,delay-ms=1"));
  ChaosScope scope(engine);
  FrameServerConfig sc;
  FrameServer server(sc);

  std::vector<runtime::FrameEvent> received;
  FrameClientConfig cc;
  cc.port = server.port();
  FrameClient client(cc);
  std::thread tail([&] {
    FrameClient::Callbacks callbacks;
    callbacks.on_frame = [&](const runtime::FrameEvent& event) {
      received.push_back(event);
    };
    client.run(callbacks);
  });

  ASSERT_TRUE(server.wait_for_subscriber(5.0));
  std::vector<runtime::FrameEvent> sent;
  for (std::uint64_t i = 0; i < 48; ++i) {
    sent.push_back(make_event(static_cast<std::size_t>(i), i * 7 + 3));
    server.publish(sent.back());
  }
  server.shutdown(/*drain=*/true);
  tail.join();

  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    expect_event_identical(sent[i], received[i]);
  }
  EXPECT_GT(engine.stats().truncations, 0u);
  EXPECT_EQ(engine.stats().resets, 0u);
  EXPECT_EQ(engine.stats().corruptions, 0u);
}

// --- remote IQ ingest under chaos ----------------------------------------

signal::SampleBuffer make_noise_capture(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples.emplace_back(rng.gaussian(), rng.gaussian());
  }
  return signal::SampleBuffer(5.0 * kMsps, std::move(samples));
}

TEST(ChaosRemoteIq, ShortTransfersAndLatencyStayBitIdentical) {
  const signal::SampleBuffer capture = make_noise_capture(30000, 77);
  ChaosEngine engine(parse_chaos_config(
      "seed=4,truncate=0.6,delay=0.2,delay-ms=1,stall=0.1,stall-ms=5"));
  ChaosScope scope(engine);

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
  while (auto chunk = source.next_chunk()) {
    received.insert(received.end(), chunk->samples.begin(),
                    chunk->samples.end());
  }
  pusher.join();

  ASSERT_EQ(received.size(), capture.size());
  for (std::size_t i = 0; i < received.size(); ++i) {
    ASSERT_EQ(received[i], capture[i]) << "sample " << i;
  }
  EXPECT_GT(engine.stats().faults(), 0u);
  EXPECT_FALSE(source.truncated());
}

TEST(ChaosRemoteIq, ResetConnectionFailsBothSidesLoudly) {
  // The injected kill lands on the pusher's first write: the pusher sees a
  // SocketError (a failed dial, not a typed mid-stream abort — nothing was
  // acked yet) and the ingest side fails non-transient, exactly like a
  // real pusher death during the handshake.
  ChaosEngine engine(parse_chaos_config("reset=1,reset-limit=1"));
  ChaosScope scope(engine);
  const signal::SampleBuffer capture = make_noise_capture(4096, 5);

  IqIngestConfig ic;
  RemoteIqSource source(ic);
  std::thread pusher([&] {
    runtime::MemorySource local(capture, 1024);
    EXPECT_THROW(push_iq("127.0.0.1", source.port(), local, true),
                 SocketError);
  });
  try {
    source.wait_for_pusher();
    FAIL() << "a killed pusher connection must fail the handshake";
  } catch (const runtime::SourceError& e) {
    EXPECT_FALSE(e.transient());
  }
  pusher.join();
  EXPECT_EQ(engine.stats().resets, 1u);
}

TEST(PushAbort, ReceiverDeathMidStreamThrowsTypedPushAborted) {
  static_assert(std::is_base_of_v<SocketError, PushAborted>,
                "PushAborted must stay catchable as SocketError");
  const std::uint64_t aborts_before = metric("net.push_aborts");

  TcpListener listener("127.0.0.1", 0);
  std::thread receiver([&] {
    TcpConnection conn = accept_one(listener);
    MessageReader reader;
    // Consume the hello, ack it, then read just enough of the stream to
    // prove the pusher is past the handshake — and die.
    bool got_hello = false;
    std::uint8_t buf[4096];
    while (!got_hello) {
      const std::ptrdiff_t n = conn.read_some(buf, sizeof(buf));
      if (n > 0) {
        reader.feed(buf, static_cast<std::size_t>(n));
        while (auto message = reader.next()) {
          if (message->type == MsgType::kHello) got_hello = true;
        }
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    std::vector<std::uint8_t> ack;
    encode_ack({0, "doomed-ingest"}, ack);
    std::size_t sent = 0;
    while (sent < ack.size()) {
      const std::ptrdiff_t n =
          conn.write_some(ack.data() + sent, ack.size() - sent);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::ptrdiff_t n = conn.read_some(buf, sizeof(buf));
      if (n > 0) break;  // stream bytes: the ack was consumed
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    conn.close();
  });

  // Big enough that write_all must hit the dead socket mid-stream.
  const signal::SampleBuffer capture = make_noise_capture(400000, 11);
  runtime::MemorySource local(capture, 65536);
  EXPECT_THROW(push_iq("127.0.0.1", listener.port(), local, true),
               PushAborted);
  receiver.join();
  EXPECT_EQ(metric("net.push_aborts"), aborts_before + 1);
}

// --- sharded decode under chaos ------------------------------------------

TEST(ChaosShard, TruncatedAndDelayedLinksStayBitIdentical) {
  const LongCapture cap = make_capture(2, 50e-3, 40.0, 7);
  core::WindowedDecoderConfig wc;
  const core::DecodeResult serial =
      core::WindowedDecoder(wc).decode(cap.buffer);
  ASSERT_FALSE(serial.streams.empty());

  ChaosEngine engine(
      parse_chaos_config("seed=6,truncate=0.4,delay=0.05,delay-ms=1"));
  ChaosScope scope(engine);
  federation::ShardWorker worker_1({"127.0.0.1", 0, "worker-1"});
  federation::ShardWorker worker_2({"127.0.0.1", 0, "worker-2"});
  std::thread t1([&] { worker_1.serve(); });
  std::thread t2([&] { worker_2.serve(); });

  federation::ShardConfig sc;
  sc.windowed = wc;
  sc.workers = {{"127.0.0.1", worker_1.port()},
                {"127.0.0.1", worker_2.port()}};
  federation::ShardedDecoder sharded(sc);
  runtime::MemorySource source(cap.buffer, 8192);
  const federation::ShardedDecoder::Result result = sharded.run(source);
  t1.join();
  t2.join();

  expect_identical(serial, result.decode);
  EXPECT_EQ(result.stats.faults.workers_lost, 0u);
  EXPECT_GT(engine.stats().truncations, 0u);
}

TEST(ChaosShard, DeterministicResetKillsOneWorkerAndFailsOverBitIdentically) {
  // reset=1,reset-skip=2,reset-limit=1: the two pool handshake writes are
  // spared, then the very next I/O op's link dies — one worker lost at a
  // deterministic point, every time. Failover must complete the run
  // bit-identically on the survivor.
  const LongCapture cap = make_capture(2, 70e-3, 40.0, 7);
  core::WindowedDecoderConfig wc;
  const core::DecodeResult serial =
      core::WindowedDecoder(wc).decode(cap.buffer);
  ASSERT_FALSE(serial.streams.empty());

  ChaosEngine engine(
      parse_chaos_config("reset=1,reset-skip=2,reset-limit=1"));
  ChaosScope scope(engine);
  federation::ShardWorker worker_1({"127.0.0.1", 0, "worker-1"});
  federation::ShardWorker worker_2({"127.0.0.1", 0, "worker-2"});
  // The killed link's worker sees a mid-session EOF and throws; that is
  // its correct loud-failure behaviour, contained to its thread.
  std::thread t1([&] {
    try {
      worker_1.serve();
    } catch (...) {
    }
  });
  std::thread t2([&] {
    try {
      worker_2.serve();
    } catch (...) {
    }
  });

  federation::ShardConfig sc;
  sc.windowed = wc;
  sc.workers = {{"127.0.0.1", worker_1.port()},
                {"127.0.0.1", worker_2.port()}};
  sc.worker_deadline = 10.0;
  federation::ShardedDecoder sharded(sc);
  runtime::MemorySource source(cap.buffer, 8192);
  const federation::ShardedDecoder::Result result = sharded.run(source);
  t1.join();
  t2.join();

  expect_identical(serial, result.decode);
  EXPECT_EQ(result.stats.faults.workers_lost, 1u);
  EXPECT_EQ(engine.stats().resets, 1u);
}

TEST(ChaosShard, ZeroSurvivingWorkersFailLoudly) {
  // One worker, killed mid-run: failover has nowhere to go and must throw
  // the documented "no workers left" SocketError — never hang, never
  // return a partial decode. The driver cancels the pool and joins its
  // threads first, so no partial capture reaches a subscriber.
  const LongCapture cap = make_capture(1, 50e-3, 40.0, 3);
  ChaosEngine engine(parse_chaos_config("reset=1,reset-skip=1,reset-limit=1"));
  ChaosScope scope(engine);
  federation::ShardWorker worker_1({"127.0.0.1", 0, "worker-1"});
  std::thread t1([&] {
    try {
      worker_1.serve();
    } catch (...) {
    }
  });

  federation::ShardConfig sc;
  sc.workers = {{"127.0.0.1", worker_1.port()}};
  sc.worker_deadline = 10.0;
  federation::ShardedDecoder sharded(sc);
  std::size_t published = 0;
  sharded.bus().subscribe([&](const runtime::FrameEvent&) { ++published; });
  runtime::MemorySource source(cap.buffer, 8192);
  try {
    sharded.run(source);
    FAIL() << "zero surviving workers must fail the run";
  } catch (const SocketError& e) {
    EXPECT_NE(std::string(e.what()).find("no workers left"),
              std::string::npos)
        << e.what();
  }
  t1.join();
  EXPECT_EQ(published, 0u);
}

TEST(ShardFailover, SigkilledWorkerProcessFailsOverBitIdentically) {
  // The acceptance drill: a real worker *process* SIGKILLed mid-run. The
  // kill fires once at least two windows are dispatched (so the victim
  // holds an outstanding assignment), the coordinator reassigns its
  // windows to the survivor, and the merged result must still be
  // bit-identical to the serial WindowedDecoder.
  const LongCapture cap = make_capture(3, 70e-3, 40.0, 7);
  core::WindowedDecoderConfig wc;
  const core::DecodeResult serial =
      core::WindowedDecoder(wc).decode(cap.buffer);
  ASSERT_FALSE(serial.streams.empty());

  federation::ShardWorker worker_1({"127.0.0.1", 0, "worker-1"});
  federation::ShardWorker worker_2({"127.0.0.1", 0, "worker-2"});
  std::vector<pid_t> children;
  for (federation::ShardWorker* worker : {&worker_1, &worker_2}) {
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      try {
        worker->serve();
      } catch (...) {
        _exit(2);
      }
      _exit(0);
    }
    children.push_back(pid);
  }
  const pid_t victim = children[1];

  const std::uint64_t windows_before = metric("federation.shard_windows");
  std::atomic<bool> killed{false};
  std::thread killer([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (metric("federation.shard_windows") >= windows_before + 2) {
        kill(victim, SIGKILL);
        killed = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  federation::ShardConfig sc;
  sc.windowed = wc;
  sc.workers = {{"127.0.0.1", worker_1.port()},
                {"127.0.0.1", worker_2.port()}};
  sc.worker_deadline = 10.0;
  federation::ShardedDecoder sharded(sc);
  runtime::MemorySource source(cap.buffer, 8192);
  const federation::ShardedDecoder::Result result = sharded.run(source);
  killer.join();
  ASSERT_TRUE(killed.load());

  int status = 0;
  ASSERT_EQ(waitpid(children[0], &status, 0), children[0]);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "the surviving worker must exit cleanly";
  ASSERT_EQ(waitpid(victim, &status, 0), victim);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  expect_identical(serial, result.decode);
  EXPECT_EQ(result.stats.faults.workers_lost, 1u);
  EXPECT_GE(result.stats.faults.windows_reassigned, 1u);
}

// --- relay partition recovery --------------------------------------------

TEST(ChaosRelay, KilledUpstreamLinkHealsThroughTheReplayRing) {
  // Frames are published into the origin's replay ring while the relay's
  // link is down (its first connection is chaos-killed before the
  // subscribe lands). The healed link must resubscribe with replay_recent
  // and deliver every frame downstream exactly once.
  FrameServerConfig sa;
  sa.origin_id = 1;
  sa.replay_frames = 64;
  FrameServer origin(sa);

  std::vector<runtime::FrameEvent> sent;
  for (std::uint64_t i = 0; i < 9; ++i) {
    sent.push_back(make_event(static_cast<std::size_t>(i), i * 13 + 6));
    origin.publish(sent.back());
  }

  ChaosEngine engine(parse_chaos_config("reset=1,reset-limit=1"));
  ChaosScope scope(engine);

  FrameServerConfig sb;
  sb.origin_id = 2;
  sb.replay_frames = 64;
  FrameServer downstream(sb);
  federation::RelayConfig rc;
  rc.gateway_id = 2;
  rc.upstreams = {{"127.0.0.1", origin.port()}};
  federation::FrameRelay relay(rc, downstream);
  relay.start();

  // The relay's first upstream connection dies on its handshake write (the
  // one injected reset); wait for the healed link's resubscribe to pull
  // the ring before attaching the tail, whose own dials are then safe.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (origin.counters().replays_sent < sent.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(origin.counters().replays_sent, sent.size())
      << "the healed relay link must replay the ring";

  std::map<std::uint64_t, int> delivered;  // identity key -> count
  FrameClientConfig cc;
  cc.port = downstream.port();
  cc.filter.replay_recent = true;
  FrameClient tail_client(cc);
  std::thread tail([&] {
    FrameClient::Callbacks callbacks;
    callbacks.on_frame = [&](const runtime::FrameEvent& event) {
      ++delivered[runtime::frame_identity(event).key()];
    };
    tail_client.run(callbacks);
  });
  ASSERT_TRUE(downstream.wait_for_subscriber(5.0));

  origin.shutdown(/*drain=*/true);  // relay link drains with kEndOfStream
  EXPECT_TRUE(relay.join());
  downstream.shutdown(/*drain=*/true);
  tail.join();

  EXPECT_EQ(engine.stats().resets, 1u);
  EXPECT_EQ(relay.counters().relayed, sent.size());
  ASSERT_EQ(delivered.size(), sent.size());
  for (const auto& event : sent) {
    const auto it = delivered.find(runtime::frame_identity(event).key());
    ASSERT_NE(it, delivered.end());
    EXPECT_EQ(it->second, 1) << "a healed partition must not duplicate";
  }
}

// --- backoff jitter ------------------------------------------------------

TEST(BackoffJitter, FullJitterSpreadsAndReplaysPerSeed) {
  // One full-jitter draw is U[0, cap): the schedule must cover the range
  // (that is what de-lockstops a thundering herd) and must replay exactly
  // for a given seed (that is what keeps chaos drills reproducible).
  Rng rng(42);
  std::vector<Seconds> draws;
  Seconds lo = 1.0, hi = 0.0;
  for (int i = 0; i < 256; ++i) {
    const Seconds d = backoff_jitter_delay(rng, 1.0);
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
    draws.push_back(d);
  }
  EXPECT_LT(lo, 0.1) << "full jitter must reach near zero";
  EXPECT_GT(hi, 0.9) << "full jitter must reach near the cap";

  Rng replay(42);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(backoff_jitter_delay(replay, 1.0), draws[i]) << "draw " << i;
  }

  Rng other(43);
  bool diverged = false;
  for (int i = 0; i < 32 && !diverged; ++i) {
    diverged = backoff_jitter_delay(other, 1.0) != draws[i];
  }
  EXPECT_TRUE(diverged) << "distinct seeds must give distinct schedules";
}

}  // namespace
}  // namespace lfbs::net
