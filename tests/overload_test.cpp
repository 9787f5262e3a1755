// Tests for the gateway's overload protection (src/net/admission.* plus
// the FrameServer/FrameClient integration): the --quota grammar and its
// typed errors, typed Bye(kAdmissionDenied) at the connection limit with a
// retry-after hint the client waits out, queue memory held within what the
// connection limit and the per-client queue bound allow, and — the
// load-bearing invariant — a frame ledger that closes exactly:
//   frames_enqueued == frames_sent + queue_drops + frames_discarded
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/kv_spec.h"
#include "common/rng.h"
#include "net/admission.h"
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/events.h"
#include "obs/json.h"

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
/// then never reads, so its queue fills to the bound.
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
  EXPECT_EQ(c.frames_enqueued,
            c.frames_sent + c.queue_drops + c.frames_discarded)
      << "enqueued " << c.frames_enqueued << " sent " << c.frames_sent
      << " drops " << c.queue_drops << " discarded " << c.frames_discarded;
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

// --- wire v4 -------------------------------------------------------------

TEST(WireV4, ClassRetryAfterAndShortfallRoundTrip) {
  std::vector<std::uint8_t> bytes;
  Hello hello;
  hello.role = PeerRole::kFrameSubscriber;
  hello.name = "prio";
  hello.client_class = ClientClass::kPriority;
  encode_hello(hello, bytes);
  encode_ack({0, "replay"}, bytes);
  encode_bye({ByeReason::kAdmissionDenied, "full", /*retry_after=*/0.5},
             bytes);

  MessageReader reader;
  reader.feed(bytes.data(), bytes.size());
  std::vector<Message> messages;
  while (auto message = reader.next()) messages.push_back(std::move(*message));
  ASSERT_EQ(messages.size(), 3u);
  const Hello h = decode_hello(messages[0].body);
  EXPECT_EQ(h.client_class, ClientClass::kPriority);
  EXPECT_EQ(decode_ack(messages[1].body).text, "replay");
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

TEST(Overload, QueueMemoryStaysWithinTheQueueBound) {
  // No global byte budget: the queue bound alone caps queue memory. K
  // never-reading best-effort subscribers and one never-reading priority
  // subscriber hold at most B + 1 frames each (the queue plus the one
  // half-written to the socket), the ring R more, plus the handshake acks.
  constexpr std::size_t kBestEffort = 4;  // K
  constexpr std::size_t kBound = 64;      // B
  constexpr std::size_t kReplay = 32;     // R <= B
  // Far more than a 2 KiB send buffer and a never-read socket absorb.
  constexpr std::size_t kFrames = 64 * kBound;
  // An ack is a 5-byte header, a status byte and a short text.
  constexpr std::size_t kAckBytes = 64;

  std::ostringstream jsonl;
  obs::JsonlWriter writer(jsonl);
  obs::EventLog log(writer);
  obs::set_event_log(&log);

  FrameServerConfig sc;
  sc.send_queue_messages = kBound;
  sc.replay_frames = kReplay;
  sc.send_buffer_bytes = 2048;
  FrameServer server(sc);
  // The ring counts from the first frame, subscribers or not.
  for (std::uint64_t i = 0; i < kReplay; ++i) server.publish(make_event(i));
  EXPECT_EQ(server.counters().queue_bytes_peak,
            kReplay * encoded_frame_bytes(make_event(0)));
  std::vector<std::unique_ptr<StalledSubscriber>> stalled;
  for (std::size_t i = 0; i < kBestEffort; ++i) {
    stalled.push_back(std::make_unique<StalledSubscriber>(
        server.port(), ClientClass::kBestEffort));
  }
  stalled.push_back(std::make_unique<StalledSubscriber>(
      server.port(), ClientClass::kPriority));
  wait_for_subscribers(server, kBestEffort + 1);

  std::size_t frame_bytes = 0;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    const runtime::FrameEvent event = make_event(i);
    frame_bytes = std::max(frame_bytes, encoded_frame_bytes(event));
    server.publish(event);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (server.counters().evictions == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.shutdown(/*drain=*/false);
  obs::set_event_log(nullptr);
  writer.flush();

  const auto c = server.counters();
  EXPECT_EQ(c.priority_clients, 1u);
  EXPECT_EQ(c.evictions, 1u);
  expect_ledger_closes(c);

  // Each close event carries the client's frames sent and dropped. For a
  // best-effort subscriber, what is neither was still queued at its close,
  // at most the bound plus the half-written one: drops + sent + queued
  // account for every published frame. The evicted priority subscriber
  // dropped nothing.
  std::size_t closes = 0, drops = 0, queued = 0, priority_sent = 0;
  std::string line;
  std::istringstream in(jsonl.str());
  while (std::getline(in, line)) {
    const auto parsed = obs::parse_json(line, nullptr);
    ASSERT_TRUE(parsed.has_value() && parsed->is_object()) << line;
    if (parsed->member_str("type", "") != "net") continue;
    const std::string action{parsed->member_str("action", "")};
    const auto sent = static_cast<std::size_t>(parsed->member_num("frames", 0));
    const auto dropped =
        static_cast<std::size_t>(parsed->member_num("drops", 0));
    if (action == "shutdown") {
      ++closes;
      ASSERT_LE(sent + dropped, kFrames);
      EXPECT_LE(kFrames - sent - dropped, kBound + 1);
      drops += dropped;
      queued += kFrames - sent - dropped;
    } else if (action == "evict") {
      EXPECT_EQ(dropped, 0u);
      priority_sent = sent;
    }
  }
  EXPECT_EQ(closes, kBestEffort);
  EXPECT_EQ(drops, c.queue_drops);
  const std::size_t priority_enqueued =
      c.frames_enqueued - kBestEffort * kFrames;
  EXPECT_LE(priority_enqueued, kFrames);
  EXPECT_EQ(queued + priority_enqueued - priority_sent, c.frames_discarded);

  // The bound holds, and it is not vacuous: every best-effort queue and
  // the ring filled.
  const std::size_t bound =
      ((kBestEffort + 1) * (kBound + 1) + kReplay) * frame_bytes +
      (kBestEffort + 1) * 2 * kAckBytes;
  EXPECT_LE(c.queue_bytes_peak, bound);
  EXPECT_GE(c.queue_bytes_peak, (kBestEffort * kBound + kReplay) * frame_bytes);
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
