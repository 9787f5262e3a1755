#include "net/federation/relay.h"

#include <algorithm>

#include "obs/events.h"
#include "obs/metrics.h"

namespace lfbs::net::federation {

namespace {

struct RelayMetrics {
  obs::Counter& relayed = obs::metrics().counter("federation.relay_frames");
  obs::Counter& dup_drops = obs::metrics().counter("federation.dup_drops");
  obs::Counter& loop_drops = obs::metrics().counter("federation.loop_drops");
  obs::Counter& hop_drops = obs::metrics().counter("federation.hop_drops");
};

RelayMetrics& relay_metrics() {
  static RelayMetrics metrics;
  return metrics;
}

}  // namespace

FrameDeduper::FrameDeduper(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

bool FrameDeduper::insert(std::uint64_t key) {
  std::lock_guard lock(mutex_);
  if (!seen_.insert(key).second) return false;
  order_.push_back(key);
  while (order_.size() > capacity_) {
    seen_.erase(order_.front());
    order_.pop_front();
  }
  return true;
}

std::size_t FrameDeduper::size() const {
  std::lock_guard lock(mutex_);
  return seen_.size();
}

/// One upstream gateway link: a FrameClient on its own thread.
struct FrameRelay::Link {
  RelayUpstream upstream;
  std::unique_ptr<FrameClient> client;
  std::thread thread;
  bool clean_end = false;   ///< upstream drained with Bye(kEndOfStream)
  bool failed = false;      ///< connection lost for good (SocketError)
};

FrameRelay::FrameRelay(RelayConfig config, FrameServer& server)
    : config_(std::move(config)), server_(server) {
  LFBS_CHECK_MSG(config_.gateway_id != 0,
                 "relay requires a non-zero gateway id");
}

FrameRelay::~FrameRelay() {
  stop();
  for (auto& link : links_) {
    if (link->thread.joinable()) link->thread.join();
  }
}

void FrameRelay::start() {
  std::lock_guard lock(mutex_);
  if (started_) return;
  started_ = true;
  for (const auto& upstream : config_.upstreams) {
    auto link = std::make_unique<Link>();
    link->upstream = upstream;
    FrameClientConfig cc;
    cc.host = upstream.host;
    cc.port = upstream.port;
    cc.name = config_.name;
    cc.filter = config_.filter;
    cc.filter.replay_recent = true;
    cc.connect_timeout = config_.connect_timeout;
    cc.reconnect_on_evict = true;  // relay links heal themselves
    cc.reconnect_on_protocol_error = true;
    cc.relay_hello = {config_.gateway_id, config_.hop_limit, config_.name};
    // Federation links are infrastructure: an upstream never drops a frame
    // destined for another gateway silently; a link that falls a whole
    // queue behind is evicted and heals through the replay ring.
    cc.client_class = ClientClass::kPriority;
    link->client = std::make_unique<FrameClient>(std::move(cc));
    Link* raw = link.get();
    link->thread = std::thread([this, raw] {
      FrameClient::Callbacks callbacks;
      callbacks.on_frame = [this](const runtime::FrameEvent& event) {
        on_upstream_frame(event);
      };
      try {
        const Bye bye = raw->client->run(callbacks);
        raw->clean_end = bye.reason == ByeReason::kEndOfStream;
      } catch (const std::exception&) {
        // Retry budget spent or the peer spoke garbage: the link is gone,
        // the relay keeps serving whatever its other upstreams deliver.
        raw->failed = true;
      }
      std::lock_guard lock(mutex_);
      if (raw->clean_end) {
        ++counters_.upstream_ends;
      } else {
        ++counters_.upstream_failures;
      }
    });
    links_.push_back(std::move(link));
  }
}

bool FrameRelay::join() {
  for (auto& link : links_) {
    if (link->thread.joinable()) link->thread.join();
  }
  std::lock_guard lock(mutex_);
  for (const auto& link : links_) {
    if (!link->clean_end) return false;
  }
  return !links_.empty();
}

void FrameRelay::stop() {
  std::lock_guard lock(mutex_);
  for (auto& link : links_) {
    if (link->client) link->client->stop();
  }
}

void FrameRelay::on_upstream_frame(const runtime::FrameEvent& event) {
  // Layered loop safety, cheapest check first. See the class comment.
  if (event.origin == config_.gateway_id) {
    relay_metrics().loop_drops.add();
    std::lock_guard lock(mutex_);
    ++counters_.loop_drops;
    return;
  }
  if (event.hops >= config_.hop_limit) {
    relay_metrics().hop_drops.add();
    std::lock_guard lock(mutex_);
    ++counters_.hop_drops;
    return;
  }
  const std::uint64_t key = runtime::frame_identity(event).key();
  if (!deduper_.insert(key)) {
    relay_metrics().dup_drops.add();
    std::lock_guard lock(mutex_);
    ++counters_.dup_drops;
    return;
  }
  runtime::FrameEvent forwarded = event;
  ++forwarded.hops;
  server_.publish(forwarded);
  relay_metrics().relayed.add();
  {
    std::lock_guard lock(mutex_);
    ++counters_.relayed;
  }
  if (obs::EventLog* log = obs::event_log()) {
    log->emit("federation",
              {obs::Field::str("action", "relay"),
               obs::Field::integer("origin",
                                   static_cast<std::int64_t>(event.origin)),
               obs::Field::integer("hops",
                                   static_cast<std::int64_t>(forwarded.hops)),
               obs::Field::integer("window", static_cast<std::int64_t>(
                                                 event.window_index))});
  }
}

FrameRelay::Counters FrameRelay::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

}  // namespace lfbs::net::federation
