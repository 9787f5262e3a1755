#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/units.h"

namespace lfbs::net {

/// Overload protection for the gateway: three limits, each enforced in
/// one place by the FrameServer.
///
///   Connections (AdmissionConfig) — at most max_connections at once.
///     A dial past it gets a typed Bye(kAdmissionDenied) with a
///     retry-after hint, so a storm of dials degrades into a polite,
///     self-spacing retry schedule instead of a kernel-backlog pileup.
///
///   One queue per client (FrameServerConfig::send_queue_messages) — the
///     class a subscriber announces in its hello picks what happens at the
///     bound: a best-effort client loses its oldest queued frame
///     (queue_drops); a priority client is evicted with Bye(kEvicted) and
///     never loses a frame silently.
///
///   ResourceBudget (optional) — a global byte ceiling across every
///     per-client send queue, the replay ring, and (when shared) the shard
///     coordinator's in-flight windows. Saturation triggers tiered
///     shedding in the FrameServer and engages the runtime's
///     BackpressureGate, so memory stays flat under overload.

/// The connection limit and its deny.
struct AdmissionConfig {
  /// Connections admitted at once; must be ≥ 1. Dials beyond it get a
  /// typed Bye(kAdmissionDenied) instead of parking in the listen backlog.
  std::size_t max_connections = 64;
  /// Retry hint attached to every deny.
  Seconds retry_after = 0.5;
};

/// Parses the gateway's `--quota` grammar: comma-separated key=value
/// clauses, both optional.
///
///   conns=N          max simultaneous connections, N ≥ 1
///   retry-after=S    deny retry hint, seconds (fractional ok, ≥ 0)
///
/// Throws SpecParseError (common/kv_spec.h) on anything else, the empty
/// spec included.
AdmissionConfig parse_quota_spec(const std::string& spec);

/// Global byte ceiling shared by every component that queues memory on
/// behalf of remote peers. Atomic, so the runtime's publishing thread, the
/// server loop thread (drain/close) and a shard coordinator can charge
/// and release concurrently without sharing a lock.
///
/// try_charge is the polite path (refused at the limit, caller sheds);
/// charge is the priority path (always succeeds — priority subscribers
/// are never shed; each priority queue's send_queue_messages bounds the
/// overshoot, and the BackpressureGate throttles the producer).
class ResourceBudget {
 public:
  explicit ResourceBudget(std::size_t limit_bytes) : limit_(limit_bytes) {}

  std::size_t limit() const { return limit_; }

  bool try_charge(std::size_t bytes) {
    std::size_t used = used_.load(std::memory_order_relaxed);
    for (;;) {
      if (used + bytes > limit_) return false;
      if (used_.compare_exchange_weak(used, used + bytes,
                                      std::memory_order_relaxed)) {
        note_peak(used + bytes);
        return true;
      }
    }
  }

  void charge(std::size_t bytes) {
    const std::size_t now =
        used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    note_peak(now);
  }

  void release(std::size_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::size_t used() const { return used_.load(std::memory_order_relaxed); }
  /// Deepest the pool has ever been — the overload report's headline.
  std::size_t peak() const { return peak_.load(std::memory_order_relaxed); }

  bool saturated() const { return used() >= limit_; }
  /// Below this the backpressure gate releases; the hysteresis stops the
  /// gate from chattering at the limit.
  bool below_low_water() const { return used() < (limit_ / 4) * 3; }

 private:
  void note_peak(std::size_t now) {
    std::size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
  }

  std::size_t limit_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::size_t> peak_{0};
};

}  // namespace lfbs::net
