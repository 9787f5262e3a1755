#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "common/units.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/frame_bus.h"
#include "runtime/supervisor.h"

namespace lfbs::net {

struct FrameClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name = "lfbs-client";
  SubscribeFilter filter;
  /// Bounds each dial AND the handshake that follows it: a server that
  /// accepts the connection but never acks within this window counts as a
  /// dead connection (reconnect path, not a hang). It also bounds every
  /// later message: one still incomplete this long after its first bytes
  /// arrived means the stream lost its framing (WireFormatError kTruncated,
  /// see reconnect_on_protocol_error).
  Seconds connect_timeout = 5.0;
  /// Reconnect policy. The defaults are the runtime's source retry
  /// constants (runtime/supervisor.h) — a lost gateway link is the same
  /// kind of transient fault as a flaky local source, so it gets the same
  /// budget and backoff shape.
  std::size_t max_connect_attempts = runtime::kMaxSourceRetries;
  Seconds backoff_initial = runtime::kRetryBackoffInitial;
  Seconds backoff_max = runtime::kRetryBackoffMax;
  /// Seed for the full-jitter backoff (sleep = U[0, cap), cap doubling up
  /// to backoff_max); without jitter every client evicted by one server
  /// death would redial in lockstep forever. 0 (default) derives a
  /// per-client seed from the client name and a process-wide construction
  /// counter, so N tailers built in one process spread out
  /// deterministically but differently.
  std::uint64_t backoff_seed = 0;
  /// Treat a WireFormatError mid-stream (corrupted bytes, a peer speaking
  /// garbage, a message stalled past connect_timeout) like a dead
  /// connection: drop it, reconnect, resubscribe — counted in
  /// protocol_resets. Default off: a plain tail should fail loudly on a
  /// malformed server rather than retry it forever. The relay and the soak
  /// harness turn it on to ride out wire corruption.
  bool reconnect_on_protocol_error = false;
  /// Treat Bye(kEvicted) like a dead connection: reconnect (and
  /// resubscribe, with the current filter) instead of returning. What the
  /// federation relay wants — an evicted relay link should heal itself —
  /// while a plain tail keeps the old "evicted means stop" contract.
  bool reconnect_on_evict = false;
  /// When gateway_id is non-zero the client announces itself as a relay:
  /// a kRelayHello follows the hello on every (re)connect, so the upstream
  /// can log/count its downstream relays.
  RelayHello relay_hello;
  /// Service class announced in the hello. A priority subscriber never
  /// loses a frame silently: at its queue bound it is evicted
  /// (Bye(kEvicted)); best-effort ones lose their oldest frames. The relay
  /// always announces priority — federation links are infrastructure.
  ClientClass client_class = ClientClass::kBestEffort;
  /// How many typed admission denies (Bye(kAdmissionDenied)) to absorb by
  /// waiting out the server's retry-after hint (at most connect_timeout)
  /// and redialing before run() gives up and returns the deny. 0 = return
  /// on the first deny.
  std::size_t max_admission_retries = 4;
};

/// Reconnecting LFBW1 frame subscriber. run() owns the calling thread:
/// connect → hello/subscribe handshake → deliver every kFrame / kStats to
/// the callbacks until the server says Bye (the clean exits) or the retry
/// budget is spent (SocketError / WireFormatError propagate).
///
/// A connection that dies *without* a Bye — server crash, network cut — is
/// treated as transient: the client reconnects with full-jitter exponential
/// backoff and resubscribes, counting the reconnect. A reconnect can miss
/// frames published while disconnected; subscribers that set
/// SubscribeFilter::replay_recent against a server with a replay ring heal
/// the gap (deduping the overlap by frame identity), and consumers that
/// need exactly-the-full-stream check the final WireStats frame count,
/// which the gateway publishes before Bye(kEndOfStream).
class FrameClient {
 public:
  struct Counters {
    std::size_t connects = 0;    ///< successful handshakes
    std::size_t reconnects = 0;  ///< recoveries after a dead connection
    std::size_t resubscribes = 0;  ///< filters re-applied on reconnect
    std::size_t evictions = 0;   ///< Bye(kEvicted) received
    std::size_t protocol_resets = 0;  ///< reconnects after WireFormatError
    std::size_t frames_received = 0;
    std::size_t stats_received = 0;
    std::size_t control_plans_received = 0;  ///< kControlPlan broadcasts
    std::size_t admission_denies = 0;  ///< Bye(kAdmissionDenied) received
    std::size_t retry_after_waits = 0;  ///< denies absorbed by waiting the
                                        ///< server's retry-after hint
  };

  struct Callbacks {
    std::function<void(const runtime::FrameEvent&)> on_frame;
    std::function<void(const WireStats&)> on_stats;
    /// Control-plane broadcasts (v5): the gateway's scheduling state and
    /// per-tag plan, pushed after each ControlLoop step.
    std::function<void(const ControlPlanMsg&)> on_control;
  };

  explicit FrameClient(FrameClientConfig config);

  /// Blocks until the server closes the subscription. Returns the Bye that
  /// ended it, or a synthesized Bye(kShuttingDown) after stop().
  Bye run(const Callbacks& callbacks);

  /// Makes run() return at its next poll tick. Safe from any thread.
  void stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Replaces the subscription filter. Safe from any thread; the new
  /// filter is applied at the next (re)connect handshake — every
  /// reconnect path re-sends whatever filter is current, so a filter set
  /// mid-run survives evictions and dead connections.
  void set_filter(const SubscribeFilter& filter);
  SubscribeFilter filter() const;

  const Counters& counters() const { return counters_; }

 private:
  TcpConnection connect_with_backoff();

  FrameClientConfig config_;
  Counters counters_;
  Rng backoff_rng_;
  std::atomic<bool> stop_{false};
  mutable std::mutex filter_mutex_;
};

/// One full-jitter draw: uniform in [0, cap). The exact primitive
/// FrameClient sleeps on between connect attempts, exposed so tests can
/// prove the schedule's spread and per-seed determinism directly.
Seconds backoff_jitter_delay(Rng& rng, Seconds cap);

/// One-shot control-plane exchange: dial, hello as a subscriber, send
/// kControlGet (or kControlSet with `set`), return the kControlPlan
/// reply, close. The remote-operability primitive `lfbs_gateway
/// --control-get` and tests build on; throws SocketError /
/// WireFormatError on failure.
ControlPlanMsg fetch_control(const std::string& host, std::uint16_t port,
                             Seconds timeout = 5.0);
ControlPlanMsg send_control(const std::string& host, std::uint16_t port,
                            const ControlSet& set, Seconds timeout = 5.0);

}  // namespace lfbs::net
