// Tests for the gateway's overload protection (src/net/admission.* plus
// the FrameServer/FrameClient/DecodeRuntime integration): the --quota
// grammar and its typed errors, the resource budget, typed
// Bye(kAdmissionDenied) at the connection limit with a retry-after hint
// the client waits out, tiered budget shedding that never touches a
// priority subscriber, bounded (never deadlocking) backpressure into the
// decode pipeline, typed replay-ring truncation, and — the load-bearing
// invariant — a frame ledger that closes exactly:
//   frames_enqueued == frames_sent + queue_drops + budget_sheds
//                      + frames_discarded
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "channel/channel_model.h"
#include "common/kv_spec.h"
#include "common/rng.h"
#include "net/admission.h"
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "protocol/frame.h"
#include "reader/receiver.h"
#include "runtime/ring_buffer.h"
#include "runtime/runtime.h"
#include "runtime/sample_source.h"
#include "tag/tag.h"

namespace lfbs::net {
namespace {

using Clock = std::chrono::steady_clock;

runtime::FrameEvent make_event(std::uint64_t seed) {
  Rng rng(seed + 1);
  runtime::FrameEvent event;
  event.stream_index = static_cast<std::size_t>(seed % 7);
  event.stream_start = rng.uniform(0.0, 1e6);
  event.rate = rng.uniform(1e3, 250e3);
  event.confidence = rng.uniform(0.0, 1.0);
  event.frame.payload = rng.bits(96);
  event.frame.anchor_ok = true;
  event.frame.crc_ok = true;
  event.epoch_index = 1;
  event.window_index = seed;
  event.frame_index = 0;
  return event;
}

std::size_t encoded_frame_bytes(const runtime::FrameEvent& event) {
  std::vector<std::uint8_t> bytes;
  encode_frame(event, bytes);
  return bytes.size();
}

/// Raw subscriber with an explicit class that completes the handshake and
/// then never reads — the shed target of the budget tests.
struct StalledSubscriber {
  TcpConnection conn;

  StalledSubscriber(std::uint16_t port, ClientClass cls)
      : conn(TcpConnection::connect("127.0.0.1", port, 5.0)) {
    std::vector<std::uint8_t> bytes;
    Hello hello;
    hello.role = PeerRole::kFrameSubscriber;
    hello.name = "stalled";
    hello.client_class = cls;
    encode_hello(hello, bytes);
    encode_subscribe({}, bytes);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const std::ptrdiff_t n =
          conn.write_some(bytes.data() + sent, bytes.size() - sent);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
  }
};

void wait_for_subscribers(const FrameServer& server, std::size_t want) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (server.counters().subscribers < want && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.counters().subscribers, want);
}

void expect_ledger_closes(const FrameServer::Counters& c) {
  EXPECT_EQ(c.frames_enqueued, c.frames_sent + c.queue_drops +
                                   c.budget_sheds + c.frames_discarded)
      << "enqueued " << c.frames_enqueued << " sent " << c.frames_sent
      << " drops " << c.queue_drops << " sheds " << c.budget_sheds
      << " discarded " << c.frames_discarded;
}

// --- quota grammar -------------------------------------------------------

TEST(QuotaSpec, ParsesFullGrammar) {
  const AdmissionConfig config = parse_quota_spec("conns=12,retry-after=0.25");
  EXPECT_EQ(config.max_connections, 12u);
  EXPECT_EQ(config.retry_after, 0.25);
}

TEST(QuotaSpec, PartialSpecLeavesOtherKnobsUnlimited) {
  // Either clause alone sets only itself; the other keeps its default, so
  // a partial spec never tightens a limit it does not name.
  const AdmissionConfig conns_only = parse_quota_spec("conns=4");
  EXPECT_EQ(conns_only.max_connections, 4u);
  EXPECT_EQ(conns_only.retry_after, AdmissionConfig{}.retry_after);
  const AdmissionConfig retry_only = parse_quota_spec("retry-after=1");
  EXPECT_EQ(retry_only.retry_after, 1.0);
  EXPECT_EQ(retry_only.max_connections, AdmissionConfig{}.max_connections);
}

TEST(QuotaSpec, ErrorsAreTyped) {
  const auto code_of = [](const std::string& spec) {
    try {
      parse_quota_spec(spec);
    } catch (const SpecParseError& e) {
      return e.code();
    }
    ADD_FAILURE() << "spec '" << spec << "' did not throw";
    return SpecError::kEmpty;
  };
  EXPECT_EQ(code_of(""), SpecError::kEmpty);
  EXPECT_EQ(code_of("conns=4,,retry-after=1"), SpecError::kEmpty);
  EXPECT_EQ(code_of("bogus=4"), SpecError::kBadKey);
  // conns and retry-after are the only keys.
  for (const char* removed : {"be-clients=1", "be-fps=1", "be-queue-kb=1",
                              "prio-clients=1", "prio-fps=1",
                              "prio-queue-kb=1"}) {
    EXPECT_EQ(code_of(removed), SpecError::kBadKey) << removed;
  }
  EXPECT_EQ(code_of("conns"), SpecError::kBadValue);  // key with no '='
  EXPECT_EQ(code_of("conns=abc"), SpecError::kBadValue);
  EXPECT_EQ(code_of("conns=0"), SpecError::kBadValue);  // admits no one
  EXPECT_EQ(code_of("retry-after=-1"), SpecError::kBadValue);
  // Counts are integers, numbers finite.
  EXPECT_EQ(code_of("conns=nan"), SpecError::kBadValue);
  EXPECT_EQ(code_of("conns=inf"), SpecError::kBadValue);
  EXPECT_EQ(code_of("conns=4.5"), SpecError::kBadValue);
  EXPECT_EQ(code_of("retry-after=inf"), SpecError::kBadValue);
  // SpecParseError stays catchable as the generic CheckError.
  EXPECT_THROW(parse_quota_spec("nope=1"), CheckError);
}

// --- admission primitives ------------------------------------------------

TEST(ResourceBudgetTest, ChargesReleasesAndTracksPeak) {
  ResourceBudget budget(1000);
  EXPECT_TRUE(budget.try_charge(600));
  EXPECT_TRUE(budget.try_charge(400));
  EXPECT_FALSE(budget.try_charge(1));  // full
  EXPECT_TRUE(budget.saturated());
  EXPECT_FALSE(budget.below_low_water());
  budget.release(400);
  EXPECT_FALSE(budget.saturated());
  EXPECT_TRUE(budget.below_low_water());  // 600 < 750
  // charge() is the priority path: it may overshoot the limit.
  budget.charge(900);
  EXPECT_EQ(budget.used(), 1500u);
  EXPECT_EQ(budget.peak(), 1500u);
  budget.release(1500);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 1500u);  // peak is sticky
}

TEST(BackpressureGateTest, WaitIsBoundedAndReleaseWakes) {
  runtime::BackpressureGate gate;
  // Disengaged: wait returns immediately, reporting no throttle.
  EXPECT_FALSE(gate.wait(std::chrono::milliseconds(250)));

  // Engaged with no one releasing: the wait is bounded by max_wait — this
  // is the "never deadlocks" contract.
  gate.engage();
  const auto t0 = Clock::now();
  EXPECT_TRUE(gate.wait(std::chrono::milliseconds(50)));
  const auto bounded = Clock::now() - t0;
  EXPECT_GE(bounded, std::chrono::milliseconds(45));
  EXPECT_LT(bounded, std::chrono::seconds(5));

  // A release wakes a waiter well before its bound.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.release();
  });
  const auto t1 = Clock::now();
  EXPECT_TRUE(gate.wait(std::chrono::seconds(10)));
  EXPECT_LT(Clock::now() - t1, std::chrono::seconds(5));
  releaser.join();
  EXPECT_FALSE(gate.engaged());
}

// --- wire v4 -------------------------------------------------------------

TEST(WireV4, ClassRetryAfterAndShortfallRoundTrip) {
  std::vector<std::uint8_t> bytes;
  Hello hello;
  hello.role = PeerRole::kFrameSubscriber;
  hello.name = "prio";
  hello.client_class = ClientClass::kPriority;
  encode_hello(hello, bytes);
  encode_ack({0, "replay", /*replay_shortfall=*/17}, bytes);
  encode_bye({ByeReason::kAdmissionDenied, "full", /*retry_after=*/0.5},
             bytes);

  MessageReader reader;
  reader.feed(bytes.data(), bytes.size());
  std::vector<Message> messages;
  while (auto message = reader.next()) messages.push_back(std::move(*message));
  ASSERT_EQ(messages.size(), 3u);
  const Hello h = decode_hello(messages[0].body);
  EXPECT_EQ(h.client_class, ClientClass::kPriority);
  const Ack ack = decode_ack(messages[1].body);
  EXPECT_EQ(ack.replay_shortfall, 17u);
  const Bye bye = decode_bye(messages[2].body);
  EXPECT_EQ(bye.reason, ByeReason::kAdmissionDenied);
  EXPECT_EQ(bye.retry_after, 0.5);
  EXPECT_STREQ(to_string(ByeReason::kAdmissionDenied), "admission-denied");
}

// --- server integration --------------------------------------------------

TEST(Admission, OverBudgetDialGetsTypedDenyWithRetryHint) {
  FrameServerConfig sc;
  sc.admission.max_connections = 1;
  sc.admission.retry_after = 0.3;
  FrameServer server(sc);

  // First client holds the only slot.
  FrameClientConfig cc;
  cc.port = server.port();
  cc.name = "holder";
  FrameClient holder(cc);
  std::thread holder_thread([&] { holder.run({}); });
  wait_for_subscribers(server, 1);

  // Second dial completes at TCP but is refused with the typed Bye.
  FrameClientConfig dc;
  dc.port = server.port();
  dc.name = "denied";
  dc.max_admission_retries = 0;
  FrameClient denied(dc);
  const Bye bye = denied.run({});
  EXPECT_EQ(bye.reason, ByeReason::kAdmissionDenied);
  EXPECT_EQ(bye.retry_after, 0.3);
  EXPECT_EQ(denied.counters().admission_denies, 1u);
  EXPECT_EQ(server.counters().admission_denies, 1u);

  server.shutdown(/*drain=*/true);
  holder_thread.join();
}

TEST(Admission, DeniedClientHonorsRetryAfterAndGetsInWhenSlotFrees) {
  FrameServerConfig sc;
  sc.admission.max_connections = 1;
  sc.admission.retry_after = 0.05;
  FrameServer server(sc);

  FrameClientConfig hc;
  hc.port = server.port();
  hc.name = "holder";
  FrameClient holder(hc);
  std::thread holder_thread([&] { holder.run({}); });
  wait_for_subscribers(server, 1);

  FrameClientConfig rc;
  rc.port = server.port();
  rc.name = "patient";
  rc.max_admission_retries = 50;  // plenty; one freed slot ends the loop
  FrameClient patient(rc);
  std::thread patient_thread([&] {
    try {
      const Bye bye = patient.run({});
      EXPECT_EQ(bye.reason, ByeReason::kEndOfStream);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "patient: " << e.what();
    }
  });

  // Let the patient client absorb at least one typed deny, then free the
  // slot: its next retry-after redial must be admitted.
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (server.counters().admission_denies == 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(server.counters().admission_denies, 0u);
  holder.stop();
  holder_thread.join();

  // The holder's subscription counts until the server loop reads its EOF:
  // wait for that disconnect (plus one per closed deny) and for the
  // patient to be the one subscriber left, so shutdown cannot catch the
  // patient mid-redial.
  const auto patient_in = [&] {
    const auto c = server.counters();
    return c.subscribers == 1 && c.disconnects == c.admission_denies + 1;
  };
  const auto sub_deadline = Clock::now() + std::chrono::seconds(5);
  while (!patient_in() && Clock::now() < sub_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.counters().subscribers, 1u);
  server.shutdown(/*drain=*/true);
  patient_thread.join();

  EXPECT_GT(patient.counters().admission_denies, 0u);
  EXPECT_GT(patient.counters().retry_after_waits, 0u);
  EXPECT_EQ(patient.counters().connects, 1u);
}

TEST(Admission, RetryAfterHintIsWaitedInFull) {
  // A scripted server denies the first dial with a 0.3 s hint; the
  // client's redial must come no sooner, however short its own backoff
  // ceiling.
  TcpListener listener("127.0.0.1", 0);
  FrameClientConfig cc;
  cc.port = listener.port();
  cc.backoff_max = 0.05;
  cc.max_admission_retries = 1;
  FrameClient client(cc);
  std::thread tail([&] { client.run({}); });

  const auto accept_one = [&] {
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (Clock::now() < deadline) {
      FdHandle fd = listener.accept();
      if (fd.valid()) return TcpConnection(std::move(fd));
      std::vector<PollItem> items{{listener.fd(), true, false}};
      poll_fds(items, 10);
    }
    throw SocketError("client never dialed");
  };
  TcpConnection first = accept_one();
  std::vector<std::uint8_t> bye;
  encode_bye({ByeReason::kAdmissionDenied, "full", /*retry_after=*/0.3}, bye);
  std::size_t sent = 0;
  while (sent < bye.size()) {
    const std::ptrdiff_t n = first.write_some(bye.data() + sent,
                                              bye.size() - sent);
    if (n > 0) sent += static_cast<std::size_t>(n);
  }
  // `first` stays open until the redial: closing it over the client's
  // unread handshake would reset the connection under the Bye.
  const auto denied_at = Clock::now();

  TcpConnection second = accept_one();
  const auto redial = Clock::now() - denied_at;
  EXPECT_GE(redial, std::chrono::milliseconds(300));
  client.stop();
  tail.join();
  EXPECT_EQ(client.counters().retry_after_waits, 1u);
}

TEST(Overload, TieredSheddingNeverTouchesThePrioritySubscriber) {
  const std::size_t frame_bytes = encoded_frame_bytes(make_event(1));
  ResourceBudget budget(24 * frame_bytes);

  FrameServerConfig sc;
  sc.replay_frames = 64;  // ring history is the first shed tier
  sc.budget = &budget;
  sc.drain_timeout = 5.0;
  // Tiny kernel send buffer: without it the stalled client's frames drain
  // into the OS and its server-side queue (the tier-2 shed target) stays
  // empty.
  sc.send_buffer_bytes = 2048;
  FrameServer server(sc);

  // The shed target: a best-effort subscriber that never reads.
  StalledSubscriber stalled(server.port(), ClientClass::kBestEffort);

  // The protected party: a priority tail that reads everything.
  std::vector<runtime::FrameEvent> priority_got;
  FrameClientConfig pc;
  pc.port = server.port();
  pc.name = "priority";
  pc.client_class = ClientClass::kPriority;
  FrameClient priority_tail(pc);
  std::thread priority_thread([&] {
    FrameClient::Callbacks callbacks;
    callbacks.on_frame = [&](const runtime::FrameEvent& event) {
      priority_got.push_back(event);
    };
    EXPECT_EQ(priority_tail.run(callbacks).reason, ByeReason::kEndOfStream);
  });
  wait_for_subscribers(server, 2);

  std::vector<runtime::FrameEvent> sent;
  for (std::uint64_t i = 0; i < 256; ++i) {
    sent.push_back(make_event(i));
    server.publish(sent.back());
    if (i % 4 == 3) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.shutdown(/*drain=*/true);
  stalled.conn.close();
  priority_thread.join();

  // Priority delivery is complete and bit-identical, in order.
  ASSERT_EQ(priority_got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(priority_got[i].window_index, sent[i].window_index);
    EXPECT_EQ(priority_got[i].frame.payload, sent[i].frame.payload);
    EXPECT_EQ(priority_got[i].stream_start, sent[i].stream_start);
  }

  // The budget bit: history and best-effort queues were shed, typed.
  const auto c = server.counters();
  EXPECT_GT(c.ring_sheds, 0u);
  EXPECT_GT(c.budget_sheds + c.budget_refusals, 0u);
  EXPECT_GT(c.queue_bytes_peak, 0u);
  expect_ledger_closes(c);
}

TEST(Overload, BudgetDrainsToZeroAfterTeardown) {
  const std::size_t frame_bytes = encoded_frame_bytes(make_event(1));
  ResourceBudget budget(16 * frame_bytes);
  {
    FrameServerConfig sc;
    sc.replay_frames = 32;
    sc.budget = &budget;
    sc.drain_timeout = 1.0;
    FrameServer server(sc);
    StalledSubscriber stalled(server.port(), ClientClass::kBestEffort);
    wait_for_subscribers(server, 1);
    for (std::uint64_t i = 0; i < 128; ++i) server.publish(make_event(i));
    // No drained shutdown: the destructor path must still square the
    // books — queued bytes on close, ring bytes on destruction.
  }
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_GT(budget.peak(), 0u);
}

TEST(Overload, BackpressureBoundsIngestWithoutDeadlock) {
  // A permanently engaged gate (its releasing server has died, say) must
  // throttle ingest by at most max_wait per chunk — the decode still
  // completes, and the throttles are counted.
  Rng rng(7);
  reader::ReceiverConfig rcfg;
  rcfg.sample_rate = 5.0 * kMsps;
  rcfg.noise_power = 1e-5;
  channel::ChannelModel ch;
  ch.add_tag(std::polar(0.15, 1.0));
  tag::TagConfig tc;
  tc.incoming_energy = 1.0;
  tag::Tag tag(tc, rng);
  protocol::FrameConfig fc;
  std::vector<std::vector<bool>> frames;
  for (int i = 0; i < 4; ++i) frames.push_back(
      protocol::build_frame(rng.bits(96), fc));
  const Seconds duration = 0.02;
  std::vector<signal::StateTimeline> timelines{
      tag.transmit_epoch(frames, duration, rng).timeline};
  reader::Receiver receiver(rcfg, ch);
  const signal::SampleBuffer capture =
      receiver.receive_epoch(timelines, duration, rng);

  runtime::BackpressureGate gate;
  gate.engage();

  runtime::RuntimeConfig rc;
  rc.workers = 2;
  rc.backpressure = &gate;
  rc.backpressure_max_wait = 0.02;
  runtime::DecodeRuntime rt(rc);
  runtime::MemorySource source(capture, 1 << 14);
  const auto t0 = Clock::now();
  const runtime::RuntimeResult result = rt.run(source);
  const Seconds wall =
      std::chrono::duration<double>(Clock::now() - t0).count();

  EXPECT_GT(result.stats.backpressure_waits, 0u);
  EXPECT_GT(result.stats.backpressure_seconds, 0.0);
  // ~7 chunks * 20 ms bound each: far under this ceiling unless the gate
  // deadlocked the ingest loop.
  EXPECT_LT(wall, 10.0);
  EXPECT_GT(result.stats.frames_published, 0u);
  gate.release();
}

TEST(Overload, ReplayTruncationIsTypedAndAcked) {
  const std::size_t frame_bytes = encoded_frame_bytes(make_event(1));
  // Budget holds ~8 frames of ring history; the configured ring wants 32.
  ResourceBudget budget(8 * frame_bytes);
  FrameServerConfig sc;
  sc.replay_frames = 32;
  sc.budget = &budget;
  FrameServer server(sc);

  // Fill the ring with no subscribers attached: the budget trims history
  // as it rotates in.
  for (std::uint64_t i = 0; i < 64; ++i) server.publish(make_event(i));
  ASSERT_GT(server.counters().ring_sheds, 0u);

  // A healing resubscriber asks for replay and is told, in the ack, how
  // many frames of the configured window the budget already shed.
  std::atomic<std::size_t> replayed{0};
  FrameClientConfig cc;
  cc.port = server.port();
  cc.name = "healer";
  cc.filter.replay_recent = true;
  FrameClient healer(cc);
  std::thread tail([&] {
    FrameClient::Callbacks callbacks;
    callbacks.on_frame = [&](const runtime::FrameEvent&) { ++replayed; };
    EXPECT_EQ(healer.run(callbacks).reason, ByeReason::kEndOfStream);
  });
  wait_for_subscribers(server, 1);
  server.shutdown(/*drain=*/true);
  tail.join();

  EXPECT_GT(healer.counters().replay_shortfall, 0u);
  EXPECT_GT(server.counters().replay_truncated, 0u);
  EXPECT_GT(replayed.load(), 0u);  // what history survived still replays
  EXPECT_EQ(replayed.load() + healer.counters().replay_shortfall, 32u);
}

TEST(Overload, ThirtyTwoClientStormAccountingClosesExactly) {
  FrameServerConfig sc;
  sc.admission.max_connections = 4;
  sc.admission.retry_after = 0.1;
  FrameServer server(sc);

  constexpr std::size_t kStorm = 32;
  std::atomic<std::size_t> denied{0}, admitted{0}, no_hint{0};
  std::vector<std::unique_ptr<FrameClient>> clients;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kStorm; ++i) {
    FrameClientConfig cc;
    cc.port = server.port();
    cc.name = "storm-" + std::to_string(i);
    cc.max_admission_retries = 0;
    clients.push_back(std::make_unique<FrameClient>(cc));
    FrameClient* client = clients.back().get();
    threads.emplace_back([client, &denied, &admitted, &no_hint] {
      const Bye bye = client->run({});
      if (bye.reason == ByeReason::kAdmissionDenied) {
        ++denied;
        if (!(bye.retry_after > 0.0)) ++no_hint;
      } else {
        ++admitted;
      }
    });
  }

  // Every dial resolves: denied clients return, admitted ones subscribe.
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (denied.load() + server.counters().subscribers < kStorm &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(denied.load() + server.counters().subscribers, kStorm);

  for (std::uint64_t i = 0; i < 16; ++i) server.publish(make_event(i));
  server.shutdown(/*drain=*/true);
  for (auto& thread : threads) thread.join();

  const auto c = server.counters();
  EXPECT_GT(denied.load(), 0u);
  EXPECT_GE(admitted.load(), 1u);
  EXPECT_EQ(denied.load() + admitted.load(), kStorm);
  EXPECT_EQ(no_hint.load(), 0u);
  EXPECT_EQ(c.admission_denies, denied.load());
  expect_ledger_closes(c);
}

}  // namespace
}  // namespace lfbs::net
