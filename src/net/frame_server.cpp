#include "net/frame_server.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/check.h"
#include "net/socket.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace lfbs::net {

namespace {

struct NetCounters {
  obs::Counter& connects = obs::metrics().counter("net.connects");
  obs::Counter& disconnects = obs::metrics().counter("net.disconnects");
  obs::Counter& evictions = obs::metrics().counter("net.evictions");
  obs::Counter& queue_drops = obs::metrics().counter("net.queue_drops");
  obs::Counter& frames_sent = obs::metrics().counter("net.frames_sent");
  obs::Counter& bytes_sent = obs::metrics().counter("net.bytes_sent");
  obs::Counter& protocol_errors =
      obs::metrics().counter("net.protocol_errors");
  obs::Counter& replays_sent = obs::metrics().counter("net.replays_sent");
  obs::Counter& admission_denies =
      obs::metrics().counter("net.admission_denies");
  obs::Counter& frames_discarded =
      obs::metrics().counter("net.frames_discarded");
  obs::Counter& priority_clients =
      obs::metrics().counter("net.priority_clients");
  obs::Gauge& queue_bytes_total =
      obs::metrics().gauge("net.queue_bytes_total");
};

NetCounters& net_metrics() {
  static NetCounters counters;
  return counters;
}

/// Connections the accept loop takes beyond the connection limit: a dial
/// past the limit is accepted and denied (typed, with the retry hint)
/// instead of waiting in the kernel backlog, and the denied close once
/// their bye flushes.
constexpr std::size_t kDenyHeadroom = 64;
/// Listen backlog, wide enough that a storm of dials reaches the typed
/// deny path rather than rotting in SYN retries.
constexpr int kListenBacklog = 128;
constexpr const char* kDenyReason = "connection limit reached";

}  // namespace

/// One queued outbound message; `kind` lets delivery accounting and the
/// queue bound tell frames and replies from notices.
struct FrameServer::QueuedMessage {
  std::vector<std::uint8_t> bytes;
  Outbound kind = Outbound::kNotice;
};

struct FrameServer::Client {
  std::uint64_t id = 0;
  TcpConnection conn;
  MessageReader reader;
  std::string name;
  bool greeted = false;
  bool subscribed = false;
  std::uint64_t relay_id = 0;  ///< non-zero once the peer sent a RelayHello
  ClientClass cls = ClientClass::kBestEffort;
  SubscribeFilter filter;
  std::deque<QueuedMessage> queue;
  std::size_t queued_frames = 0;  ///< frame messages currently in `queue`
  std::size_t unsent_replies = 0;  ///< replies queued or half-written
  std::size_t queue_bytes = 0;    ///< bytes in `queue` plus unfinished outbuf
  std::vector<std::uint8_t> outbuf;
  std::size_t out_off = 0;
  Outbound out_kind = Outbound::kNotice;
  std::size_t frames_sent = 0;
  std::size_t drops = 0;
  bool evict = false;    ///< set at a queue bound; the loop closes it
  bool closing = false;  ///< bye queued; close once flushed
  bool dead = false;     ///< swept at the end of the loop iteration

  explicit Client(TcpConnection connection) : conn(std::move(connection)) {}
};

struct FrameServer::Impl {
  TcpListener listener;
  WakePipe wake;

  Impl(const std::string& address, std::uint16_t port)
      : listener(address, port, kListenBacklog) {}
};

FrameServer::FrameServer(FrameServerConfig config)
    : config_(std::move(config)) {
  LFBS_CHECK_MSG(config_.admission.max_connections >= 1,
                 "the connection limit must admit at least one client");
  LFBS_CHECK_MSG(config_.send_queue_messages >= 1,
                 "the queue bound must hold at least one message");
  LFBS_CHECK_MSG(config_.replay_frames <= config_.send_queue_messages,
                 "a replay must fit one client's queue bound");
  impl_ = std::make_unique<Impl>(config_.bind_address, config_.port);
  if (obs::EventLog* log = obs::event_log()) {
    log->emit("net",
              {obs::Field::str("action", "listen"),
               obs::Field::integer("port",
                                   static_cast<std::int64_t>(port()))});
  }
  thread_ = std::thread([this] { loop(); });
}

FrameServer::~FrameServer() {
  shutdown(false);
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  impl_->wake.wake();
  if (thread_.joinable()) thread_.join();
  detach();
}

std::uint16_t FrameServer::port() const { return impl_->listener.port(); }

void FrameServer::attach(runtime::FrameBus& bus) {
  detach();
  bus_ = &bus;
  bus_subscription_ =
      bus.subscribe([this](const runtime::FrameEvent& event) {
        publish(event);
      });
}

void FrameServer::detach() {
  if (bus_ != nullptr) {
    bus_->unsubscribe(bus_subscription_);
    bus_ = nullptr;
  }
}

void FrameServer::publish(const runtime::FrameEvent& event) {
  // A federated gateway stamps its id on frames it decoded itself (origin
  // still 0); relayed frames keep their original origin untouched.
  runtime::FrameEvent stamped;
  const runtime::FrameEvent* out = &event;
  if (config_.origin_id != 0 && event.origin == 0) {
    stamped = event;
    stamped.origin = config_.origin_id;
    out = &stamped;
  }
  std::vector<std::uint8_t> bytes;
  bool encoded = false;
  {
    std::lock_guard lock(mutex_);
    if (config_.replay_frames > 0) {
      encode_frame(*out, bytes);
      encoded = true;
      ring_bytes_ += bytes.size();
      replay_ring_.push_back({*out, bytes.size()});
      if (replay_ring_.size() > config_.replay_frames) {
        ring_bytes_ -= replay_ring_.front().bytes;
        replay_ring_.pop_front();
      }
      note_peak_locked();
    }
    for (const auto& client : clients_) {
      if (client->dead || client->closing || client->evict) continue;
      if (!client->subscribed || !client->filter.accepts(*out)) continue;
      if (!encoded) {
        encode_frame(*out, bytes);
        encoded = true;
      }
      enqueue_locked(*client, bytes, Outbound::kFrame);
    }
  }
  if (encoded) impl_->wake.wake();
}

void FrameServer::publish_stats(const runtime::RuntimeStats& stats) {
  std::vector<std::uint8_t> bytes;
  encode_stats(to_wire_stats(stats), bytes);
  broadcast(bytes);
}

void FrameServer::publish_control(const ControlPlanMsg& plan) {
  std::vector<std::uint8_t> bytes;
  encode_control_plan(plan, bytes);
  broadcast(bytes);
}

void FrameServer::broadcast(const std::vector<std::uint8_t>& bytes) {
  {
    std::lock_guard lock(mutex_);
    for (const auto& client : clients_) {
      if (client->dead || client->closing || client->evict) continue;
      if (!client->subscribed) continue;
      enqueue_locked(*client, bytes, Outbound::kNotice);
    }
  }
  impl_->wake.wake();
}

void FrameServer::note_queue_bytes_locked(Client& client,
                                          std::ptrdiff_t delta) {
  client.queue_bytes = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(client.queue_bytes) + delta);
  queue_bytes_total_ = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(queue_bytes_total_) + delta);
  note_peak_locked();
}

void FrameServer::note_peak_locked() {
  counters_.queue_bytes_peak = std::max(counters_.queue_bytes_peak,
                                        queue_bytes_total_ + ring_bytes_);
  net_metrics().queue_bytes_total.set(
      static_cast<double>(queue_bytes_total_ + ring_bytes_));
}

bool FrameServer::drop_oldest_frame_locked(Client& client) {
  // Only frames go: control messages (acks, byes) are part of the protocol
  // and must survive the squeeze.
  for (auto it = client.queue.begin(); it != client.queue.end(); ++it) {
    if (it->kind != Outbound::kFrame) continue;
    const std::size_t bytes = it->bytes.size();
    client.queue.erase(it);
    --client.queued_frames;
    note_queue_bytes_locked(client, -static_cast<std::ptrdiff_t>(bytes));
    ++client.drops;
    return true;
  }
  return false;
}

void FrameServer::enqueue_locked(Client& client,
                                 const std::vector<std::uint8_t>& bytes,
                                 Outbound kind) {
  const bool is_frame = kind == Outbound::kFrame;
  // The queue bound counts frames, and separately the replies to the
  // client's own requests; notices (stats, control broadcasts, byes) are
  // part of the protocol and must get through. A peer that keeps asking
  // and never reads cannot lose a reply silently, so at the bound it is
  // evicted, like a priority client at its frame bound.
  if (kind == Outbound::kReply &&
      client.unsent_replies >= config_.send_queue_messages) {
    client.evict = true;
    return;
  }
  if (is_frame && client.queued_frames >= config_.send_queue_messages) {
    // At the bound the client's class decides. A priority consumer must
    // never silently miss a frame, so it is evicted (typed) instead; a
    // best-effort one loses its oldest queued frame.
    if (client.cls == ClientClass::kPriority ||
        !drop_oldest_frame_locked(client)) {
      client.evict = true;
      return;
    }
    ++counters_.queue_drops;
    net_metrics().queue_drops.add();
  }
  client.queue.push_back({bytes, kind});
  if (is_frame) {
    ++client.queued_frames;
    ++counters_.frames_enqueued;
  } else if (kind == Outbound::kReply) {
    ++client.unsent_replies;
  }
  note_queue_bytes_locked(client, static_cast<std::ptrdiff_t>(bytes.size()));
}

bool FrameServer::wait_for_subscriber(Seconds timeout) {
  std::unique_lock lock(mutex_);
  cv_.wait_for(lock, std::chrono::duration<double>(timeout),
               [&] { return counters_.subscribers > 0 || stop_; });
  return counters_.subscribers > 0;
}

void FrameServer::shutdown(bool drain) {
  {
    std::lock_guard lock(mutex_);
    accepting_ = false;
    // Close the listener, not just stop polling it: a half-open backlog
    // would keep completing TCP handshakes for clients redialing a dying
    // server, and those clients would then wait forever for an ack no one
    // will send. Closed, their dials fail fast and their retry budgets
    // bound them. (The loop thread only touches the listener under this
    // mutex, so closing here is safe; port() stays valid, it is cached.)
    impl_->listener.close();
    draining_ = true;
    if (!drain) {
      // Skip the queue flush: clients get a best-effort Bye and the
      // connection closes regardless of what was still queued (the close
      // accounts every discarded frame).
      for (auto& client : clients_) {
        if (!client->dead) {
          bye_and_close_locked(*client, ByeReason::kShuttingDown,
                               "server stopping", "shutdown");
        }
      }
    }
  }
  impl_->wake.wake();
  std::unique_lock lock(mutex_);
  cv_.wait_for(lock, std::chrono::duration<double>(config_.drain_timeout),
               [&] {
                 return stop_ ||
                        std::all_of(clients_.begin(), clients_.end(),
                                    [](const auto& c) { return c->dead; });
               });
  emit_overload_summary_locked();
}

FrameServer::Counters FrameServer::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

void FrameServer::emit_event(const char* action, std::uint64_t client_id,
                             std::size_t a, std::size_t b) {
  if (obs::EventLog* log = obs::event_log()) {
    log->emit("net",
              {obs::Field::str("action", action),
               obs::Field::integer("client",
                                   static_cast<std::int64_t>(client_id)),
               obs::Field::integer("frames", static_cast<std::int64_t>(a)),
               obs::Field::integer("drops", static_cast<std::int64_t>(b))});
  }
}

void FrameServer::emit_overload_summary_locked() {
  if (overload_summary_emitted_) return;
  // Only a server whose connection limit turned someone away reports.
  if (counters_.admission_denies == 0) return;
  overload_summary_emitted_ = true;
  if (obs::EventLog* log = obs::event_log()) {
    const auto n = [](std::size_t v) {
      return static_cast<std::int64_t>(v);
    };
    log->emit(
        "net",
        {obs::Field::str("action", "overload"),
         obs::Field::integer("denies", n(counters_.admission_denies)),
         obs::Field::integer("queue_drops", n(counters_.queue_drops)),
         obs::Field::integer("enqueued", n(counters_.frames_enqueued)),
         obs::Field::integer("sent", n(counters_.frames_sent)),
         obs::Field::integer("discarded", n(counters_.frames_discarded)),
         obs::Field::integer("peak_queue_bytes",
                             n(counters_.queue_bytes_peak)),
         obs::Field::num("retry_after", config_.admission.retry_after)});
  }
}

std::size_t FrameServer::alive_clients_locked() const {
  std::size_t alive = 0;
  for (const auto& client : clients_) {
    if (!client->dead) ++alive;
  }
  return alive;
}

void FrameServer::deny_locked(Client& client) {
  ++counters_.admission_denies;
  net_metrics().admission_denies.add();
  const Seconds retry_after = config_.admission.retry_after;
  if (obs::EventLog* log = obs::event_log()) {
    log->emit("net",
              {obs::Field::str("action", "admission-deny"),
               obs::Field::integer("client",
                                   static_cast<std::int64_t>(client.id)),
               obs::Field::str("reason", kDenyReason),
               obs::Field::num("retry_after", retry_after)});
  }
  std::vector<std::uint8_t> bye;
  encode_bye({ByeReason::kAdmissionDenied, kDenyReason, retry_after}, bye);
  enqueue_locked(client, bye, Outbound::kNotice);
  client.closing = true;
}

void FrameServer::close_client_locked(Client& client, const char* cause) {
  if (client.dead) return;
  client.dead = true;
  client.conn.close();
  // Whatever was still queued for this client dies with it; the ledger
  // records every frame (frames_enqueued ends up fully partitioned into
  // sent / dropped / discarded).
  const std::size_t discarded_frames =
      client.queued_frames +
      ((!client.outbuf.empty() && client.out_kind == Outbound::kFrame) ? 1
                                                                       : 0);
  if (discarded_frames > 0) {
    counters_.frames_discarded += discarded_frames;
    net_metrics().frames_discarded.add(discarded_frames);
  }
  note_queue_bytes_locked(client,
                          -static_cast<std::ptrdiff_t>(client.queue_bytes));
  client.queue.clear();
  client.queued_frames = 0;
  client.unsent_replies = 0;
  client.outbuf.clear();
  client.out_off = 0;
  ++counters_.disconnects;
  net_metrics().disconnects.add();
  if (client.subscribed) {
    client.subscribed = false;
    --counters_.subscribers;
  }
  emit_event(cause, client.id, client.frames_sent, client.drops);
}

void FrameServer::bye_and_close_locked(Client& client, ByeReason reason,
                                       const char* text, const char* cause) {
  std::vector<std::uint8_t> bye;
  encode_bye({reason, text}, bye);
  client.conn.write_some(bye.data(), bye.size());
  close_client_locked(client, cause);
}

void FrameServer::handle_incoming(Client& client) {
  std::uint8_t buf[4096];
  for (;;) {
    if (client.closing || client.dead || client.evict) return;
    const std::ptrdiff_t n = client.conn.read_some(buf, sizeof(buf));
    if (n == -1) break;  // drained
    if (n == 0) {
      close_client_locked(client, "disconnect");
      return;
    }
    try {
      client.reader.feed(buf, static_cast<std::size_t>(n));
      while (auto message = client.reader.next()) {
        // A deny is queued or an eviction is due: ignore the rest.
        if (client.closing || client.evict) break;
        if (!client.greeted) {
          const Hello hello =
              expect_hello(*message, PeerRole::kFrameSubscriber);
          client.greeted = true;
          client.name = hello.name;
          client.cls = hello.client_class;
          if (client.cls == ClientClass::kPriority) {
            ++counters_.priority_clients;
            net_metrics().priority_clients.add();
          }
          std::vector<std::uint8_t> ack;
          encode_ack({0, "lfbs-gateway"}, ack);
          enqueue_locked(client, ack, Outbound::kReply);
          emit_event("hello", client.id);
        } else if (message->type == MsgType::kRelayHello) {
          const RelayHello relay = decode_relay_hello(message->body);
          if (client.relay_id == 0) ++counters_.relays;
          client.relay_id = relay.gateway_id;
          std::vector<std::uint8_t> ack;
          encode_ack({0, "relay"}, ack);
          enqueue_locked(client, ack, Outbound::kReply);
          if (obs::EventLog* log = obs::event_log()) {
            log->emit("net",
                      {obs::Field::str("action", "relay-hello"),
                       obs::Field::integer(
                           "client", static_cast<std::int64_t>(client.id)),
                       obs::Field::integer(
                           "gateway",
                           static_cast<std::int64_t>(relay.gateway_id)),
                       obs::Field::integer(
                           "hop_limit",
                           static_cast<std::int64_t>(relay.hop_limit))});
          }
        } else if (message->type == MsgType::kSubscribe) {
          client.filter = decode_subscribe(message->body);
          if (!client.subscribed) {
            client.subscribed = true;
            ++counters_.subscribers;
          }
          std::vector<std::uint8_t> ack;
          encode_ack({0, "subscribed"}, ack);
          enqueue_locked(client, ack, Outbound::kReply);
          emit_event("subscribe", client.id);
          if (client.filter.replay_recent) {
            // Heal a resubscriber's partition gap from the ring, oldest
            // first, through the subscriber's filter and the same queue
            // bound as live traffic. The overlap with frames it already
            // saw is the consumer's to dedup (by frame identity).
            std::size_t replayed = 0;
            for (const ReplayEntry& past : replay_ring_) {
              if (client.evict) break;
              if (!client.filter.accepts(past.event)) continue;
              std::vector<std::uint8_t> bytes;
              encode_frame(past.event, bytes);
              enqueue_locked(client, bytes, Outbound::kFrame);
              ++replayed;
            }
            if (replayed > 0) {
              counters_.replays_sent += replayed;
              net_metrics().replays_sent.add(replayed);
              emit_event("replay", client.id, replayed);
            }
          }
          cv_.notify_all();
        } else if (message->type == MsgType::kControlGet ||
                   message->type == MsgType::kControlSet) {
          // Control-plane surface (v5). A gateway without a control loop
          // answers enabled=false instead of treating the probe as a
          // protocol error.
          ControlPlanMsg reply;
          if (message->type == MsgType::kControlGet) {
            if (config_.control_get) reply = config_.control_get();
            ++counters_.control_gets;
          } else {
            const ControlSet set = decode_control_set(message->body);
            if (config_.control_set) reply = config_.control_set(set);
            ++counters_.control_sets;
          }
          std::vector<std::uint8_t> bytes;
          encode_control_plan(reply, bytes);
          enqueue_locked(client, bytes, Outbound::kReply);
          emit_event(message->type == MsgType::kControlGet ? "control-get"
                                                           : "control-set",
                     client.id, reply.assignments.size());
          cv_.notify_all();
        } else if (message->type == MsgType::kBye) {
          close_client_locked(client, "disconnect");
          return;
        } else {
          throw WireFormatError(WireError::kMalformed,
                                "unexpected message from subscriber");
        }
      }
    } catch (const WireFormatError&) {
      ++counters_.protocol_errors;
      net_metrics().protocol_errors.add();
      bye_and_close_locked(client, ByeReason::kProtocolError,
                           "unparseable input", "protocol-error");
      return;
    }
  }
}

void FrameServer::pump_writes(Client& client) {
  for (;;) {
    if (client.outbuf.empty()) {
      if (client.queue.empty()) break;
      QueuedMessage message = std::move(client.queue.front());
      client.queue.pop_front();
      client.outbuf = std::move(message.bytes);
      client.out_off = 0;
      client.out_kind = message.kind;
      if (client.out_kind == Outbound::kFrame) --client.queued_frames;
    }
    const std::ptrdiff_t n =
        client.conn.write_some(client.outbuf.data() + client.out_off,
                               client.outbuf.size() - client.out_off);
    if (n == -1) return;  // kernel buffer full; poll will call us back
    if (n == 0) {
      close_client_locked(client, "disconnect");
      return;
    }
    client.out_off += static_cast<std::size_t>(n);
    net_metrics().bytes_sent.add(static_cast<std::uint64_t>(n));
    if (client.out_off == client.outbuf.size()) {
      const std::size_t done = client.outbuf.size();
      if (client.out_kind == Outbound::kFrame) {
        ++client.frames_sent;
        ++counters_.frames_sent;
        net_metrics().frames_sent.add();
      } else if (client.out_kind == Outbound::kReply) {
        --client.unsent_replies;
      }
      note_queue_bytes_locked(client,
                              -static_cast<std::ptrdiff_t>(done));
      client.outbuf.clear();
      client.out_off = 0;
      client.out_kind = Outbound::kNotice;
    }
  }
  if (client.closing && client.queue.empty() && client.outbuf.empty()) {
    close_client_locked(client, "disconnect");
  }
}

void FrameServer::loop() {
  std::vector<PollItem> items;
  std::vector<Client*> polled;
  // The fd bound: the connection limit plus kDenyHeadroom (written so that
  // a huge limit cannot overflow).
  const auto room_to_accept = [this] {
    const std::size_t limit = config_.admission.max_connections;
    return clients_.size() < limit || clients_.size() - limit < kDenyHeadroom;
  };
  for (;;) {
    items.clear();
    polled.clear();
    bool accepting;
    {
      std::lock_guard lock(mutex_);
      if (stop_) break;
      accepting = accepting_ && room_to_accept();
      items.push_back({impl_->wake.read_fd(), true, false});
      if (accepting) {
        items.push_back({impl_->listener.fd(), true, false});
      }
      for (const auto& client : clients_) {
        if (client->dead) continue;
        PollItem item;
        item.fd = client->conn.fd();
        item.want_read = true;
        item.want_write =
            !client->outbuf.empty() || !client->queue.empty();
        items.push_back(item);
        polled.push_back(client.get());
      }
    }
    poll_fds(items, 250);

    {
      std::lock_guard lock(mutex_);
      std::size_t at = 0;
      if (items[at].readable) impl_->wake.drain();
      ++at;
      if (accepting) {
        if (items[at].readable) {
          for (;;) {
            FdHandle fd = impl_->listener.accept();
            if (!fd.valid()) break;
            TcpConnection conn(std::move(fd));
            if (config_.send_buffer_bytes > 0) {
              conn.set_send_buffer(config_.send_buffer_bytes);
            }
            const bool admitted =
                alive_clients_locked() < config_.admission.max_connections;
            auto client = std::make_unique<Client>(std::move(conn));
            // Shared across every FrameServer in the process (each loop
            // runs under its own instance mutex), so the counter must be
            // atomic.
            static std::atomic<std::uint64_t> next_id{1};
            client->id = next_id.fetch_add(1, std::memory_order_relaxed);
            ++counters_.connects;
            net_metrics().connects.add();
            emit_event("connect", client->id);
            if (!admitted) {
              // Typed refusal: the dial completed, the deny (with its
              // retry-after hint) flushes, and the connection closes.
              deny_locked(*client);
            }
            clients_.push_back(std::move(client));
            if (!room_to_accept()) break;
          }
        }
        ++at;
      }
      for (std::size_t i = 0; i < polled.size(); ++i, ++at) {
        Client& client = *polled[i];
        if (client.dead) continue;
        if (items[at].error) {
          close_client_locked(client, "disconnect");
          continue;
        }
        if (items[at].readable) handle_incoming(client);
        if (client.dead) continue;
        if (items[at].writable || !client.outbuf.empty() ||
            !client.queue.empty()) {
          pump_writes(client);
        }
      }
      // Evictions decided at a queue bound (a frame in publish(), a reply
      // in handle_incoming): the client's socket is already jammed, so the
      // Bye is a single best-effort write, never a drain.
      for (auto& client : clients_) {
        if (client->evict && !client->dead) {
          ++counters_.evictions;
          net_metrics().evictions.add();
          bye_and_close_locked(*client, ByeReason::kEvicted,
                               "send queue overflow", "evict");
        }
      }
      if (draining_) {
        for (auto& client : clients_) {
          if (client->dead || client->closing) continue;
          std::vector<std::uint8_t> bye;
          encode_bye({ByeReason::kEndOfStream, "stream complete"}, bye);
          enqueue_locked(*client, bye, Outbound::kNotice);
          client->closing = true;
        }
        // Unsubscribed stragglers flush instantly; subscribed ones close
        // when pump_writes finishes their queue.
        for (auto& client : clients_) {
          if (!client->dead) pump_writes(*client);
        }
      }
      // Sweep the dead every iteration (not only while draining): under a
      // connection storm the denied-and-closed would otherwise accumulate
      // for the life of the server.
      clients_.erase(
          std::remove_if(clients_.begin(), clients_.end(),
                         [](const auto& c) { return c->dead; }),
          clients_.end());
      if (draining_ && clients_.empty()) cv_.notify_all();
    }
  }
}

}  // namespace lfbs::net
