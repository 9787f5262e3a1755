#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "net/frame_client.h"
#include "net/frame_server.h"

namespace lfbs::net::federation {

/// Bounded recently-seen set of frame identity keys — the per-hop dedup of
/// the federation plane. insert() answers "is this frame new here?"; once
/// capacity is reached the oldest keys age out FIFO, so memory is constant
/// no matter how long the gateway runs. Capacity only needs to cover the
/// frames that can plausibly still be circling (path length × in-flight
/// frames); re-admitting a frame older than that costs a duplicate
/// delivery, never a loss. Thread-safe: every upstream link thread inserts
/// concurrently.
class FrameDeduper {
 public:
  explicit FrameDeduper(std::size_t capacity = 4096);

  /// True when `key` was not in the set (and is now); false = duplicate.
  bool insert(std::uint64_t key);

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> order_;  ///< insertion order, for FIFO aging
};

struct RelayUpstream {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct RelayConfig {
  /// This relay's gateway id; must be non-zero and unique in the topology.
  std::uint64_t gateway_id = 0;
  /// Frames that already took this many hops are dropped, not republished —
  /// the hard backstop against routing loops dedup can't see (e.g. after a
  /// key aged out of a small dedup window).
  std::uint8_t hop_limit = 4;
  std::string name = "lfbs-relay";
  std::vector<RelayUpstream> upstreams;
  /// Filter sent to every upstream subscription, with replay_recent
  /// always set (see FrameRelay).
  SubscribeFilter filter;
  Seconds connect_timeout = 5.0;
};

/// Relay mode: subscribes to one or more upstream gateways and republishes
/// every *new* frame on this gateway's own FrameServer, making N gateways
/// one federated frame plane.
///
/// Loop safety is layered, cheapest test first:
///   1. origin check — a frame this gateway first published (origin ==
///      gateway_id) came back around a cycle; drop.
///   2. hop limit — hops ≥ hop_limit; drop. Bounds any path length.
///   3. dedup — the frame's FrameIdentity key (epoch, window, stream key,
///      payload CRC; origin and hops excluded, they mutate per hop) was
///      already seen here, via another upstream or an earlier lap; drop.
/// A frame that survives all three is republished with hops + 1 and its
/// origin untouched, so every subscriber anywhere in the mesh sees each
/// frame exactly once (per dedup window).
///
/// Each upstream gets its own FrameClient thread. A relay link is
/// infrastructure and heals itself: it redials after an eviction or a
/// garbled stream, and every (re)subscription asks for the upstream's
/// replay ring (FrameServerConfig::replay_frames) so frames missed while
/// the link was down are healed. The deduper suppresses the overlap — a
/// healed partition costs duplicate transfers, never duplicate deliveries.
class FrameRelay {
 public:
  struct Counters {
    std::size_t relayed = 0;      ///< frames republished downstream
    std::size_t dup_drops = 0;    ///< dropped: identity already seen
    std::size_t loop_drops = 0;   ///< dropped: own origin came back
    std::size_t hop_drops = 0;    ///< dropped: hop limit reached
    std::size_t upstream_ends = 0;    ///< upstreams that drained cleanly
    std::size_t upstream_failures = 0;  ///< upstreams lost for good
  };

  /// `server` must outlive the relay; republished frames go out through it.
  FrameRelay(RelayConfig config, FrameServer& server);
  ~FrameRelay();

  FrameRelay(const FrameRelay&) = delete;
  FrameRelay& operator=(const FrameRelay&) = delete;

  /// Starts one subscriber thread per configured upstream.
  void start();

  /// Blocks until every upstream link ended. True when all of them drained
  /// cleanly (Bye kEndOfStream); false when any was lost for good.
  bool join();

  /// Asks every upstream link to stop; join() then returns promptly.
  void stop();

  Counters counters() const;

 private:
  struct Link;

  void on_upstream_frame(const runtime::FrameEvent& event);

  RelayConfig config_;
  FrameServer& server_;
  FrameDeduper deduper_;
  mutable std::mutex mutex_;
  Counters counters_;
  std::vector<std::unique_ptr<Link>> links_;
  bool started_ = false;
};

}  // namespace lfbs::net::federation
