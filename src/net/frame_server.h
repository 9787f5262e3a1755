#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"
#include "net/admission.h"
#include "net/wire.h"
#include "runtime/frame_bus.h"
#include "runtime/stats.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lfbs::net {

struct FrameServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; FrameServer::port() reports the pick.
  std::uint16_t port = 0;
  /// The connection limit: max_connections (≥ 1) at once, and the
  /// retry-after hint of the typed Bye(kAdmissionDenied) a dial past it
  /// gets.
  AdmissionConfig admission;
  /// The per-client queue bound: frames queued to one client, whatever its
  /// class. At the bound the class announced in the client's hello picks
  /// the action: best-effort loses its oldest queued frame (queue_drops),
  /// priority is evicted with Bye(kEvicted) and never loses a frame
  /// silently. Combined with the kernel send buffer this is the total
  /// slack a slow consumer gets. Must be ≥ 1, since every handshake
  /// queues an ack, and ≥ replay_frames, so a replay fits a fresh
  /// subscription and a priority resubscriber (a relay) is not evicted by
  /// its own replay. The same number bounds the unsent replies
  /// to a client's own requests (acks, kControlPlan answers): a client
  /// whose replies reach it is evicted with Bye(kEvicted), whatever its
  /// class. Messages the server sends on its own (stats digests, control
  /// broadcasts, byes) are not bounded.
  std::size_t send_queue_messages = 256;
  /// Kernel send-buffer cap per accepted connection; 0 keeps the OS
  /// default. Tests set this small to exercise the queue bound.
  std::size_t send_buffer_bytes = 0;
  /// How long shutdown(drain=true) waits for queues to flush.
  Seconds drain_timeout = 10.0;
  /// This gateway's federation id. When non-zero, frames published with
  /// origin 0 (i.e. decoded locally, not relayed) are stamped with it
  /// before they hit the wire, so downstream relays can spot their own
  /// frames coming back around a cycle. 0 = not federated; frames go out
  /// unstamped, exactly the pre-federation wire behaviour.
  std::uint64_t origin_id = 0;
  /// Bounded ring of the most recently published frames (post origin
  /// stamping), replayed — oldest first, through the subscriber's filter
  /// and queue bound — to any client whose subscribe sets
  /// SubscribeFilter::replay_recent. Partition recovery for relays and
  /// tailers: a resubscriber heals frames it missed while disconnected
  /// and dedups the overlap by frame identity. 0 (default) keeps no
  /// history and replays nothing.
  std::size_t replay_frames = 0;
  /// Fleet control plane hooks (wire v5). When set, a subscriber's
  /// kControlGet / kControlSet is answered with a kControlPlan reply;
  /// when null the server replies with enabled=false, so tools can probe
  /// a gateway for a control plane without a protocol error. Both run on
  /// the server's event-loop thread — keep them cheap (the ControlLoop's
  /// accessors are a mutex-protected state copy, which is fine).
  std::function<ControlPlanMsg()> control_get;
  std::function<ControlPlanMsg(const ControlSet&)> control_set;
};

/// TCP fan-out of decoded frames: bridges a runtime::FrameBus (or direct
/// publish() calls) to N concurrent LFBW1 subscribers.
///
/// Threading: one event-loop thread owns every socket. publish() — called
/// on the runtime's publishing thread via the attached FrameBus handler —
/// only encodes the frame, appends it to each eligible client's bounded
/// queue under the mutex, and wakes the loop; it never touches a socket,
/// so one stalled client can never block frame delivery to the bus's
/// other subscribers or to healthy network clients.
///
/// Per-subscription filters (SubscribeFilter) run server-side at publish
/// time, so a narrow consumer costs only the frames it will actually see.
/// All activity lands in net.* metrics and typed "net" events via src/obs.
class FrameServer {
 public:
  struct Counters {
    std::size_t connects = 0;
    std::size_t disconnects = 0;
    std::size_t evictions = 0;        ///< clients closed at the queue bound
    std::size_t queue_drops = 0;      ///< best-effort frames dropped at the
                                      ///< queue bound
    std::size_t frames_sent = 0;      ///< frame messages fully written
    std::size_t protocol_errors = 0;  ///< clients that sent garbage
    std::size_t subscribers = 0;      ///< currently subscribed clients
    std::size_t relays = 0;           ///< peers that announced a RelayHello
    std::size_t replays_sent = 0;     ///< ring frames queued to resubscribers
    // Overload protection. The frame ledger closes exactly after a
    // drained shutdown:
    //   frames_enqueued == frames_sent + queue_drops + frames_discarded
    std::size_t admission_denies = 0;  ///< typed Bye(kAdmissionDenied) sent
    std::size_t frames_enqueued = 0;   ///< frames admitted to client queues
    std::size_t frames_discarded = 0;  ///< queued frames dropped when their
                                       ///< client closed before delivery
    std::size_t priority_clients = 0;  ///< hellos that announced kPriority
    /// Deepest queues+ring byte total. The two limits bound it:
    /// connections × (send_queue_messages + 1) frames, plus replay_frames
    /// in the ring, plus the replies and notices in flight.
    std::size_t queue_bytes_peak = 0;
    std::size_t control_gets = 0;      ///< kControlGet messages answered
    std::size_t control_sets = 0;      ///< kControlSet messages answered
  };

  /// Binds and starts the event loop. Throws SocketError when the port
  /// cannot be bound.
  explicit FrameServer(FrameServerConfig config);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  std::uint16_t port() const;

  /// Subscribes to `bus`; every published FrameEvent is fanned out to the
  /// matching network subscribers. detach() (or destruction) unsubscribes.
  void attach(runtime::FrameBus& bus);
  void detach();

  /// Queues one frame to every subscribed client whose filter accepts it.
  /// Never blocks: at a client's queue bound its class picks the action.
  void publish(const runtime::FrameEvent& event);

  /// Queues a RuntimeStats digest to every subscriber (filters do not
  /// apply). The gateway sends one after its run drains so clients can
  /// verify they received every published frame.
  void publish_stats(const runtime::RuntimeStats& stats);

  /// Queues a control-plane state/plan broadcast to every subscriber
  /// (filters do not apply — plans are fleet-wide, not per-frame). The
  /// gateway calls this after each ControlLoop step so tailing tools see
  /// scheduling decisions as they happen.
  void publish_control(const ControlPlanMsg& plan);

  /// Blocks until at least one client has subscribed, the timeout passes,
  /// or the server stops. Returns whether a subscriber is present.
  bool wait_for_subscriber(Seconds timeout);

  /// Stops accepting, then either drains every client queue and closes
  /// each connection with Bye(kEndOfStream) — blocking up to
  /// drain_timeout — or closes immediately with Bye(kShuttingDown).
  /// Idempotent; the destructor calls shutdown(false) if needed.
  void shutdown(bool drain);

  Counters counters() const;

 private:
  /// What a queued message is, for the queue bound and delivery
  /// accounting: a frame, a reply to the client's own request, or a
  /// notice the server sends on its own.
  enum class Outbound : std::uint8_t { kNotice, kFrame, kReply };
  struct QueuedMessage;
  struct Client;

  void loop();
  void handle_incoming(Client& client);
  void pump_writes(Client& client);
  void enqueue_locked(Client& client, const std::vector<std::uint8_t>& bytes,
                      Outbound kind);
  void close_client_locked(Client& client, const char* cause);
  /// Writes one best-effort Bye(reason), then closes the client.
  void bye_and_close_locked(Client& client, ByeReason reason,
                            const char* text, const char* cause);
  /// Queues `bytes` (a non-frame message) to every subscribed client.
  void broadcast(const std::vector<std::uint8_t>& bytes);
  void emit_event(const char* action, std::uint64_t client_id,
                  std::size_t a = 0, std::size_t b = 0);
  /// Queues a typed admission deny and marks the client to close once the
  /// bye flushes.
  void deny_locked(Client& client);
  /// Drops the client's oldest queued frame. False when the client has no
  /// frame queued.
  bool drop_oldest_frame_locked(Client& client);
  void note_queue_bytes_locked(Client& client, std::ptrdiff_t delta);
  /// Folds the queues + ring byte total into queue_bytes_peak and the
  /// net.queue_bytes_total gauge.
  void note_peak_locked();
  std::size_t alive_clients_locked() const;
  /// Emits the one typed "overload" summary event whose numbers
  /// lfbs_report's == overload == section renders. Called at shutdown.
  void emit_overload_summary_locked();

  FrameServerConfig config_;
  runtime::FrameBus* bus_ = nullptr;
  runtime::FrameBus::SubscriberId bus_subscription_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Client>> clients_;
  /// Replay history plus each entry's wire size, so queue_bytes_peak can
  /// count the ring without re-encoding it.
  struct ReplayEntry {
    runtime::FrameEvent event;
    std::size_t bytes = 0;
  };
  std::deque<ReplayEntry> replay_ring_;
  std::size_t ring_bytes_ = 0;
  std::size_t queue_bytes_total_ = 0;  ///< all client queues + outbufs
  Counters counters_;
  bool overload_summary_emitted_ = false;
  bool stop_ = false;
  bool accepting_ = true;
  bool draining_ = false;

  // Owned by the loop thread after construction.
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::thread thread_;
};

}  // namespace lfbs::net
