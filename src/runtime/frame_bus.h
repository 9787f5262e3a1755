#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/units.h"
#include "core/decode_confidence.h"
#include "protocol/frame.h"

namespace lfbs::core {
struct DecodeResult;
}

namespace lfbs::runtime {

/// One decoded frame, as delivered to FrameBus subscribers.
struct FrameEvent {
  std::size_t stream_index = 0;   ///< index of the stitched stream
  double stream_start = 0.0;      ///< stream anchor, capture samples
  BitRate rate = 0.0;             ///< the stream's estimated bitrate
  bool collided = false;          ///< stream recovered from a collision
  /// Composite decode confidence of the carrying stream in [0, 1]
  /// (DecodeConfidence::score()); consumers can gate on it per frame.
  double confidence = 1.0;
  /// Deepest fallback stage the carrying stream needed (kPrimary on a
  /// clean decode) — CRC-valid frames from a degraded stage are real but
  /// were only reachable under relaxed detection.
  core::FallbackStage fallback_stage = core::FallbackStage::kPrimary;
  protocol::ParsedFrame frame;    ///< payload + integrity flags

  // --- identity coordinates (see FrameIdentity) --------------------------
  /// Which decode run / protocol epoch produced this frame. Stamped from
  /// RuntimeConfig::epoch_index so successive runs on one gateway publish
  /// distinguishable frames.
  std::uint64_t epoch_index = 0;
  /// Processing window containing the carrying stream's anchor.
  std::uint64_t window_index = 0;
  /// Ordinal of this frame within its stream (two identical payloads from
  /// one tag stay distinct).
  std::uint64_t frame_index = 0;

  // --- relay header (federation) -----------------------------------------
  /// Gateway that decoded this frame; 0 until a gateway with a configured
  /// id publishes it. Preserved verbatim across relay hops so a relay can
  /// recognize (and drop) its own frames coming back around a cycle.
  std::uint64_t origin = 0;
  /// Relay hops taken so far; 0 straight off the decoding gateway. Each
  /// relay republish increments it, and frames at the hop limit stop.
  std::uint8_t hops = 0;
};

/// The identity of one decoded frame, stable across gateways and relay
/// hops: every coordinate survives the LFBW1 wire bit-exactly, and the
/// relay header (origin, hops) is deliberately excluded — a frame keeps
/// one identity no matter how it travelled. This is the per-hop dedup key
/// of the federation layer and the accounting key of lfbs_report.
struct FrameIdentity {
  std::uint64_t epoch = 0;        ///< FrameEvent::epoch_index
  std::uint64_t window = 0;       ///< FrameEvent::window_index
  /// Stream-and-position key: the stream's anchor/rate bit patterns and
  /// index, plus the frame's ordinal within the stream.
  std::uint64_t stream_key = 0;
  /// protocol::payload_key of the payload (CRC-16 + bit length).
  std::uint64_t payload_crc = 0;

  /// All four coordinates mixed into one 64-bit dedup key.
  std::uint64_t key() const;

  bool operator==(const FrameIdentity&) const = default;
};

FrameIdentity frame_identity(const FrameEvent& event);

/// Fan-out of decoded frames to registered callbacks. Handlers run on the
/// runtime's publishing thread (the one that called DecodeRuntime::run),
/// synchronously and in subscription order, so
/// a handler that blocks stalls delivery (by design: it is the natural
/// place for an application to apply its own backpressure).
///
/// Subscribers are isolated from each other: a handler that throws is
/// contained and counted, and the event still reaches every remaining
/// subscriber — one misbehaving consumer cannot take down the stitcher
/// thread or starve its peers.
class FrameBus {
 public:
  using Handler = std::function<void(const FrameEvent&)>;
  using SubscriberId = std::uint64_t;

  SubscriberId subscribe(Handler handler);
  void unsubscribe(SubscriberId id);

  /// Delivers one event to every current subscriber; handler exceptions
  /// are swallowed and counted.
  void publish(const FrameEvent& event);

  std::size_t published() const;
  /// Handler invocations that ended in an exception, across all publishes.
  std::size_t handler_exceptions() const;

 private:
  struct Subscriber {
    SubscriberId id;
    Handler handler;
  };
  using SubscriberList = std::vector<Subscriber>;

  mutable std::mutex mutex_;
  /// Copy-on-write: (un)subscribe builds a fresh list and swaps the
  /// pointer; publish takes a shared_ptr copy under the lock — O(1), no
  /// per-frame allocation — and iterates the immutable snapshot outside
  /// it, so handlers can still (un)subscribe re-entrantly.
  std::shared_ptr<const SubscriberList> subscribers_ =
      std::make_shared<const SubscriberList>();
  SubscriberId next_id_ = 1;
  std::size_t published_ = 0;
  std::size_t handler_exceptions_ = 0;
};

/// Publishes every frame of a stitched decode on `bus` in stream order,
/// stamping the identity coordinates (epoch, window-of-anchor at
/// `window_samples` per window, frame ordinal). Shared by the in-process
/// runtime stitcher and the federation shard merger so a sharded decode
/// publishes byte-identical events to a local run. Returns the number of
/// frames published.
std::size_t publish_frames(FrameBus& bus, const core::DecodeResult& decode,
                           std::uint64_t epoch_index,
                           std::size_t window_samples);

}  // namespace lfbs::runtime
