#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>

#include "common/check.h"
#include "common/units.h"
#include "net/wire.h"

namespace lfbs::net {

/// Overload-protection primitives for the gateway. Three layers, each
/// independently usable:
///
///   AdmissionController — who may connect/subscribe at all (connection
///     budget + per-class client counts), decided before any frame is
///     queued. Refusals are typed: Bye(kAdmissionDenied) with a
///     retry-after hint, so a storm of dials degrades into a polite,
///     self-spacing retry schedule instead of a kernel-backlog pileup.
///
///   ClassQuota / TokenBucket — what an admitted client may consume
///     (frames/sec, queued bytes), so one subscriber cannot starve the
///     rest of its class.
///
///   ResourceBudget — a global byte ceiling across every per-client send
///     queue, the replay ring, and (when shared) the shard coordinator's
///     in-flight windows. Saturation triggers tiered shedding in the
///     FrameServer and engages the runtime's BackpressureGate, so memory
///     stays flat under overload instead of growing until eviction.

/// Per-class consumption limits. 0 always means "unlimited" — the
/// defaults are inert, so enabling admission without quotas only adds
/// the connection budget.
struct ClassQuota {
  /// Max simultaneously admitted subscribers of this class.
  std::size_t max_clients = 0;
  /// Max frames/sec queued to one client of this class; excess frames
  /// are shed (typed, counted) before they cost queue memory.
  double max_frames_per_sec = 0.0;
  /// Max bytes queued to one client of this class. Best-effort clients
  /// over this bound lose their oldest frame; priority clients are
  /// evicted instead (typed) — a priority consumer must never silently
  /// miss a frame.
  std::size_t max_queue_bytes = 0;
};

struct AdmissionConfig {
  /// Master switch. Off (default) keeps the pre-admission behaviour
  /// byte-for-byte: no denies, no quotas, no class counting.
  bool enabled = false;
  /// Connections admitted simultaneously; dials beyond it get a typed
  /// Bye(kAdmissionDenied) instead of parking in the listen backlog.
  /// 0 = unlimited.
  std::size_t max_connections = 0;
  /// Retry hint attached to every deny.
  Seconds retry_after = 0.5;
  ClassQuota best_effort;
  ClassQuota priority;

  const ClassQuota& quota(ClientClass cls) const {
    return cls == ClientClass::kPriority ? priority : best_effort;
  }
};

/// What, structurally, is wrong with a quota spec string.
enum class QuotaError {
  kEmpty,     ///< spec or one of its clauses is empty
  kBadKey,    ///< unknown key
  kBadValue,  ///< value does not parse or is out of range
};

const char* to_string(QuotaError code);

/// Thrown by parse_quota_spec on a malformed spec. Derives from
/// CheckError so generic catch sites keep working; the CLI switches on
/// code() for its usage message.
class QuotaParseError : public CheckError {
 public:
  QuotaParseError(QuotaError code, const std::string& what)
      : CheckError(what), code_(code) {}
  QuotaError code() const { return code_; }

 private:
  QuotaError code_;
};

/// Parses the gateway's `--quota` grammar: comma-separated key=value
/// clauses, all optional.
///
///   conns=N          max simultaneous connections
///   retry-after=S    deny retry hint, seconds (fractional ok)
///   be-clients=N     best-effort subscriber count
///   be-fps=X         best-effort frames/sec per client
///   be-queue-kb=N    best-effort queued bytes per client, KiB
///   prio-clients=N   priority subscriber count
///   prio-fps=X       priority frames/sec per client
///   prio-queue-kb=N  priority queued bytes per client, KiB
///
/// N is an unsigned integer, S and X finite non-negative numbers (the
/// common/kv_spec parsers). The returned config has enabled=true. Throws QuotaParseError (typed)
/// on anything else.
AdmissionConfig parse_quota_spec(const std::string& spec);

/// One admission decision, ready to turn into a wire message.
struct AdmissionDecision {
  bool admitted = true;
  Seconds retry_after = 0.0;  ///< meaningful when !admitted
  const char* reason = "";    ///< human-readable deny cause
};

/// Decides who gets in, and tracks per-class admitted counts. All calls
/// take the caller's own view of active connections so there is a single
/// source of truth (the FrameServer's client list) for the connection
/// count; the controller owns only the class tallies.
///
/// Thread-safety: none — the FrameServer calls it under its own mutex.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config)
      : config_(std::move(config)) {}

  const AdmissionConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  /// At accept time, before any byte is read.
  AdmissionDecision admit_connection(std::size_t active_connections) const;

  /// At hello time, once the peer's class is known. Counts the client on
  /// success; pair with release_class when it disconnects.
  AdmissionDecision admit_class(ClientClass cls);
  void release_class(ClientClass cls);

  std::size_t admitted(ClientClass cls) const {
    return cls == ClientClass::kPriority ? priority_ : best_effort_;
  }

 private:
  AdmissionConfig config_;
  std::size_t best_effort_ = 0;
  std::size_t priority_ = 0;
};

/// Classic token bucket, refilled continuously at `rate` tokens/sec up
/// to a burst of `rate` (one second of credit). Time is an explicit
/// parameter — seconds on any monotonic clock — so tests drive it
/// deterministically. Not thread-safe; callers hold their own lock.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate, double now) : rate_(rate), tokens_(rate),
                                         last_(now) {}

  /// Takes one token if available. A zero-rate bucket always admits.
  bool try_take(double now) {
    if (rate_ <= 0.0) return true;
    if (now > last_) {
      tokens_ = std::min(rate_, tokens_ + (now - last_) * rate_);
      last_ = now;
    }
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  /// Spends one token of already-accrued credit without consulting the
  /// clock; false means the burst is gone and the caller must refill via
  /// try_take(now). Deferring the refill this way never admits more than
  /// eager refilling would — accrual keeps counting from the last refill
  /// and still clips at the burst cap — but it keeps a clock read off the
  /// publish hot path while credit lasts.
  bool try_take_burst() {
    if (rate_ <= 0.0) return true;
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  double tokens() const { return tokens_; }

 private:
  double rate_ = 0.0;
  double tokens_ = 0.0;
  double last_ = 0.0;
};

/// Global byte ceiling shared by every component that queues memory on
/// behalf of remote peers. Atomic, so the runtime's publishing thread, the
/// server loop thread (drain/close) and a shard coordinator can charge
/// and release concurrently without sharing a lock.
///
/// try_charge is the polite path (refused at the limit, caller sheds);
/// charge is the priority path (always succeeds — priority subscribers
/// are never shed, the overshoot is what the BackpressureGate exists to
/// bound).
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
