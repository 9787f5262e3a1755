#include "net/frame_client.h"

#include <chrono>
#include <thread>

#include "net/peer.h"
#include "obs/metrics.h"

namespace lfbs::net {

namespace {

/// Outcome of one connection's read loop.
struct SessionEnd {
  bool got_bye = false;
  Bye bye;
};

/// Per-client auto seed: the name hash mixed with a process-wide
/// construction counter. Deterministic for a given construction order,
/// distinct across the N tailers a process builds — which is exactly what
/// de-lockstepping their backoff schedules needs.
std::uint64_t auto_backoff_seed(const std::string& name) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return std::hash<std::string>{}(name) ^
         (0x9e3779b97f4a7c15ull * (n + 1));
}

}  // namespace

Seconds backoff_jitter_delay(Rng& rng, Seconds cap) {
  return rng.uniform(0.0, cap);
}

FrameClient::FrameClient(FrameClientConfig config)
    : config_(std::move(config)),
      backoff_rng_(config_.backoff_seed != 0
                       ? config_.backoff_seed
                       : auto_backoff_seed(config_.name)) {}

void FrameClient::set_filter(const SubscribeFilter& filter) {
  std::lock_guard lock(filter_mutex_);
  config_.filter = filter;
}

SubscribeFilter FrameClient::filter() const {
  std::lock_guard lock(filter_mutex_);
  return config_.filter;
}

TcpConnection FrameClient::connect_with_backoff() {
  Seconds cap = config_.backoff_initial;
  std::size_t attempt = 0;
  for (;;) {
    try {
      return TcpConnection::connect(config_.host, config_.port,
                                    config_.connect_timeout);
    } catch (const SocketError&) {
      if (attempt >= config_.max_connect_attempts) throw;
      ++attempt;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          backoff_jitter_delay(backoff_rng_, cap)));
      cap = std::min(cap * 2.0, config_.backoff_max);
    }
  }
}

Bye FrameClient::run(const Callbacks& callbacks) {
  using Clock = std::chrono::steady_clock;
  const auto connect_timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config_.connect_timeout));
  bool ever_connected = false;
  std::size_t admission_retries_left = config_.max_admission_retries;
  for (;;) {
    if (stop_.load(std::memory_order_relaxed)) {
      return {ByeReason::kShuttingDown, "client stopped"};
    }
    Peer peer(connect_with_backoff(), 4096);

    // Every (re)connect rebuilds the full handshake — hello, the optional
    // relay announcement, and the *current* subscribe filter — so every
    // reconnect path (dead connection, eviction) resubscribes identically
    // to a fresh connect.
    std::vector<std::uint8_t> handshake;
    Hello hello;
    hello.role = PeerRole::kFrameSubscriber;
    hello.name = config_.name;
    hello.client_class = config_.client_class;
    encode_hello(hello, handshake);
    const bool is_relay = config_.relay_hello.gateway_id != 0;
    if (is_relay) encode_relay_hello(config_.relay_hello, handshake);
    encode_subscribe(filter(), handshake);
    if (ever_connected) {
      ++counters_.resubscribes;
      obs::metrics().counter("net.client_resubscribes").add();
    }
    bool connection_alive = true;
    try {
      peer.send(handshake);
    } catch (const SocketError&) {
      connection_alive = false;  // dead before the handshake finished
    }

    SessionEnd end;
    // hello ack + subscribe ack (+ relay-hello ack when announcing)
    std::size_t acks_pending = is_relay ? 3 : 2;
    const auto session_start = Clock::now();
    // When the message now arriving may have begun: the last handled
    // message, or the last moment nothing was buffered.
    auto message_start = session_start;
    while (connection_alive && !end.got_bye &&
           !stop_.load(std::memory_order_relaxed)) {
      // A server that accepted the dial but never answers the handshake
      // (e.g. a dying gateway whose backlog completed our connect) is a
      // dead connection, not a quiet one — without this a client could
      // poll a silent socket forever.
      if (acks_pending > 0 && Clock::now() - session_start > connect_timeout) {
        connection_alive = false;
        break;
      }
      try {
        // The same rule for every later message: one still incomplete
        // connect_timeout after its first bytes arrived means the stream
        // lost its framing (a corrupted length prefix would otherwise
        // swallow every later byte as one body that never completes).
        if (peer.buffered() > 0 &&
            Clock::now() - message_start > connect_timeout) {
          throw WireFormatError(WireError::kTruncated,
                                "message stalled incomplete past the "
                                "connect timeout");
        }
        const std::optional<Message> message = peer.receive(100);
        if (!message) {
          if (peer.closed()) {
            connection_alive = false;
            break;
          }
          if (peer.buffered() == 0) message_start = Clock::now();
          continue;
        }
        switch (message->type) {
          case MsgType::kAck: {
            const Ack ack = decode_ack(message->body);
            if (ack.status != 0) {
              throw WireFormatError(WireError::kMalformed,
                                    "server refused: " + ack.text);
            }
            if (acks_pending > 0 && --acks_pending == 0) {
              ++counters_.connects;
              if (ever_connected) {
                ++counters_.reconnects;
                obs::metrics().counter("net.client_reconnects").add();
              }
              ever_connected = true;
            }
            break;
          }
          case MsgType::kFrame: {
            const runtime::FrameEvent event = decode_frame(message->body);
            ++counters_.frames_received;
            if (callbacks.on_frame) callbacks.on_frame(event);
            break;
          }
          case MsgType::kStats: {
            const WireStats stats = decode_stats(message->body);
            ++counters_.stats_received;
            if (callbacks.on_stats) callbacks.on_stats(stats);
            break;
          }
          case MsgType::kControlPlan: {
            const ControlPlanMsg plan = decode_control_plan(message->body);
            ++counters_.control_plans_received;
            if (callbacks.on_control) callbacks.on_control(plan);
            break;
          }
          case MsgType::kBye:
            end.got_bye = true;
            end.bye = decode_bye(message->body);
            break;
          default:
            throw WireFormatError(WireError::kMalformed,
                                  "unexpected message from server");
        }
        // After the callbacks: time a slow consumer spends in them is not
        // time the wire kept a message incomplete.
        message_start = Clock::now();
      } catch (const WireFormatError&) {
        // Corrupted bytes (or a hostile peer). Under the reconnect flag a
        // garbled stream is just another dead connection: drop it and let
        // the reconnect path below rebuild the subscription from scratch.
        if (!config_.reconnect_on_protocol_error) throw;
        ++counters_.protocol_resets;
        obs::metrics().counter("net.client_protocol_resets").add();
        connection_alive = false;
      }
    }
    if (end.got_bye) {
      if (end.bye.reason == ByeReason::kAdmissionDenied) {
        ++counters_.admission_denies;
        obs::metrics().counter("net.client_admission_denies").add();
        if (admission_retries_left > 0 &&
            !stop_.load(std::memory_order_relaxed)) {
          // The server is overloaded, not broken: wait out its retry-after
          // hint as sent (backoff_initial when it sent none, or NaN), then
          // redial. connect_timeout caps the wait so a hostile hint cannot
          // park the client. Sleep in slices so stop() stays responsive.
          --admission_retries_left;
          ++counters_.retry_after_waits;
          obs::metrics().counter("net.client_retry_after_waits").add();
          Seconds wait = end.bye.retry_after > 0.0
                             ? end.bye.retry_after
                             : config_.backoff_initial;
          wait = std::min(wait, config_.connect_timeout);
          const auto deadline =
              Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(wait));
          while (Clock::now() < deadline &&
                 !stop_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
          continue;
        }
      }
      if (end.bye.reason == ByeReason::kEvicted) {
        ++counters_.evictions;
        obs::metrics().counter("net.client_evictions").add();
        if (config_.reconnect_on_evict &&
            !stop_.load(std::memory_order_relaxed)) {
          // We hit our queue bound; reconnecting immediately
          // is the "must see the live stream" behaviour the relay wants.
          // The handshake above re-applies the current filter.
          continue;
        }
      }
      return end.bye;
    }
    if (stop_.load(std::memory_order_relaxed)) {
      return {ByeReason::kShuttingDown, "client stopped"};
    }
    // Died without a Bye: transient by the Supervisor's definition. The
    // next connect_with_backoff() call spends a fresh retry budget; if the
    // server is truly gone it throws SocketError out of run().
  }
}

namespace {

/// One-shot request/reply against a gateway's control surface: dial,
/// hello, send the request, return the kControlPlan reply. No subscribe —
/// a control probe should not pull the frame stream along with it.
ControlPlanMsg control_exchange(const std::string& host, std::uint16_t port,
                                const std::vector<std::uint8_t>& request,
                                Seconds timeout) {
  Peer peer(TcpConnection::connect(host, port, timeout), 4096);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout));
  std::vector<std::uint8_t> out;
  Hello hello;
  hello.role = PeerRole::kFrameSubscriber;
  hello.name = "lfbs-control";
  encode_hello(hello, out);
  out.insert(out.end(), request.begin(), request.end());
  // A few dozen bytes into a fresh connection's send buffer: the write
  // cannot block past the deadline checked below.
  peer.send(out);

  for (;;) {
    if (std::chrono::steady_clock::now() > deadline) {
      throw SocketError("control exchange timed out awaiting reply");
    }
    const std::optional<Message> message = peer.receive(100);
    if (!message) {
      if (peer.closed()) {
        throw SocketError("connection closed before the control reply");
      }
      continue;
    }
    switch (message->type) {
      case MsgType::kAck: {
        const Ack ack = decode_ack(message->body);
        if (ack.status != 0) {
          throw WireFormatError(WireError::kMalformed,
                                "server refused: " + ack.text);
        }
        break;
      }
      case MsgType::kControlPlan:
        return decode_control_plan(message->body);
      case MsgType::kBye: {
        const Bye bye = decode_bye(message->body);
        throw SocketError("server closed the control exchange: " +
                          std::string(to_string(bye.reason)));
      }
      default:
        // Stats or stray frames can interleave on a busy server.
        break;
    }
  }
}

}  // namespace

ControlPlanMsg fetch_control(const std::string& host, std::uint16_t port,
                             Seconds timeout) {
  std::vector<std::uint8_t> request;
  encode_control_get(request);
  return control_exchange(host, port, request, timeout);
}

ControlPlanMsg send_control(const std::string& host, std::uint16_t port,
                            const ControlSet& set, Seconds timeout) {
  std::vector<std::uint8_t> request;
  encode_control_set(set, request);
  return control_exchange(host, port, request, timeout);
}

}  // namespace lfbs::net
