#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "runtime/chunk.h"
#include "runtime/frame_bus.h"
#include "runtime/stats.h"

namespace lfbs::net {

/// LFBW1 — the gateway's wire protocol. Every message on a connection is
/// one length-prefixed, little-endian record:
///
///   byte  0      message type (MsgType)
///   bytes 1..4   body length, uint32 LE
///   then         body (per-type layout below)
///
/// The first message in either direction must be kHello, whose body leads
/// with the "LFBW1\0" magic and a version — so a peer speaking the wrong
/// protocol (or a future incompatible revision) is rejected before anything
/// else is parsed. Doubles travel as their IEEE-754 bit patterns, so frame
/// metadata (rates, confidences, stream anchors) survives the wire
/// bit-exactly — the loopback parity tests depend on it.
constexpr char kWireMagic[6] = {'L', 'F', 'B', 'W', '1', '\0'};
/// Version 2: kFrame grew identity coordinates and the relay header
/// (epoch/window/frame indices, origin gateway, hop count), and the
/// federation messages (kRelayHello, kShardAssign, kShardFrame) joined
/// the protocol. Version 3: kSubscribe grew the replay_recent flag
/// (partition recovery — resubscribers may ask for the server's recent
/// frame ring). Version 4 (overload protection): kHello grew the client
/// class (best-effort vs priority), kBye grew a retry-after hint
/// (admission denies tell the client when to redial), and kAck grew the
/// replay shortfall (how many ring frames the server had already shed
/// when a resubscriber asked for replay). Version 5 (fleet control
/// plane): the control messages joined the protocol — kControlGet /
/// kControlSet let a subscriber read and adjust the gateway's scheduling
/// knobs, kControlPlan carries the control state plus the current per-tag
/// rate assignments (broadcast after each planning step and as the reply
/// to get/set). Version 6: kAck lost the replay shortfall, which read 0
/// once nothing shed the replay ring, and kShardAssign lost the two stitch
/// tolerances, which only the coordinator's stitcher reads. Version 7:
/// kStats lost chunks_dropped, which read 0 once the runtime's chunk ring
/// stopped dropping. Each change is incompatible with older peers, and the
/// hello check rejects them before any frame is parsed.
constexpr std::uint16_t kWireVersion = 7;

/// Upper bound on one message body. Protects the receiver from a garbled
/// (or hostile) length prefix triggering a huge allocation — the same
/// validate-before-allocate stance signal::load_iq takes on file headers.
constexpr std::size_t kMaxMessageBody = 16u << 20;

/// What, structurally, is wrong with an incoming byte stream. Mirrors
/// signal::IqError: a malformed peer is an expected runtime condition, so
/// the codec reports it with a typed error a caller can switch on.
enum class WireError {
  kBadMagic,     ///< hello does not lead with the LFBW1 magic
  kBadVersion,   ///< hello carries an incompatible protocol version
  kTruncated,    ///< body shorter than its layout requires
  kOversized,    ///< length prefix exceeds kMaxMessageBody
  kUnknownType,  ///< message type byte not in MsgType
  kMalformed,    ///< fields present but invalid (bad enum value, bad count)
};

const char* to_string(WireError code);

/// Thrown by the decoders on malformed or truncated input. Derives from
/// CheckError so generic catch sites keep working; protocol-aware code can
/// catch WireFormatError and inspect code().
class WireFormatError : public CheckError {
 public:
  WireFormatError(WireError code, const std::string& what)
      : CheckError(what), code_(code) {}
  WireError code() const { return code_; }

 private:
  WireError code_;
};

enum class MsgType : std::uint8_t {
  kHello = 1,      ///< magic + version + role handshake, both directions
  kSubscribe = 2,  ///< client → server: frame filter
  kAck = 3,        ///< server → client: handshake / subscribe outcome
  kFrame = 4,      ///< server → client: one decoded FrameEvent
  kStats = 5,      ///< server → client: RuntimeStats snapshot
  kIqChunk = 6,    ///< pusher → ingest: one SampleChunk of raw IQ
  kIqEnd = 7,      ///< pusher → ingest: clean end-of-stream marker
  kBye = 8,        ///< server → client: reasoned connection close
  kRelayHello = 9,   ///< relay → upstream: gateway id + hop limit
  kShardAssign = 10, ///< coordinator → worker: one window's decode order
  kShardFrame = 11,  ///< worker → coordinator: one window's DecodeResult
  kControlGet = 12,  ///< client → server: read the control-plane state
  kControlSet = 13,  ///< client → server: adjust control-plane knobs
  kControlPlan = 14, ///< server → client: control state + current plan
};

/// Who a peer claims to be in its hello.
enum class PeerRole : std::uint8_t {
  kFrameServer = 0,      ///< gateway serving decoded frames
  kFrameSubscriber = 1,  ///< client tailing decoded frames
  kIqPusher = 2,         ///< capture process streaming raw IQ in
  kIqReceiver = 3,       ///< ingest endpoint accepting raw IQ
  kShardCoordinator = 4, ///< sharded-decode coordinator dispatching windows
  kShardWorker = 5,      ///< decode worker accepting shard assignments
};

/// Service class a subscriber announces in its hello. It picks what the
/// client loses at its queue bound: a best-effort client its oldest queued
/// frame, a priority client (relays, downstream federated gateways,
/// operators' own consumers) its connection — evicted with a typed bye,
/// never a frame silently.
enum class ClientClass : std::uint8_t {
  kBestEffort = 0,  ///< drops its oldest frame at the bound (default)
  kPriority = 1,    ///< evicted at the bound; never drops a frame
};

const char* to_string(ClientClass cls);

struct Hello {
  PeerRole role = PeerRole::kFrameSubscriber;
  /// IQ pushers declare their capture rate here; 0 for frame peers.
  SampleRate sample_rate = 0.0;
  std::string name;  ///< free-form peer name for logs
  /// Service class at the queue bound (v4). Trailing member so the many
  /// positional aggregate initializers predating v4 keep compiling.
  ClientClass client_class = ClientClass::kBestEffort;
};

/// Sent by a relay right after its hello, before kSubscribe: announces the
/// relay's own gateway id and how many hops its republished frames may
/// still take. The upstream acks it like a subscribe; a frame server that
/// never sees one simply treats the peer as a plain subscriber.
struct RelayHello {
  std::uint64_t gateway_id = 0;  ///< the relay's own id (non-zero)
  std::uint8_t hop_limit = 4;    ///< max hops a frame may accumulate
  std::string name;              ///< free-form relay name for logs
};

/// Per-subscription frame filter, applied server-side so a narrow consumer
/// does not pay for traffic it would discard.
struct SubscribeFilter {
  double min_confidence = 0.0;  ///< drop frames below this composite score
  BitRate min_rate = 0.0;       ///< drop streams slower than this (0 = off)
  BitRate max_rate = 0.0;       ///< drop streams faster than this (0 = off)
  bool crc_valid_only = false;  ///< deliver only CRC-clean frames
  /// Ask the server to replay its recent-frame ring (FrameServerConfig::
  /// replay_frames, newest last, filtered like live traffic) right after
  /// the subscribe ack. Partition recovery: a resubscribing consumer heals
  /// the frames it missed while disconnected and dedups the overlap by
  /// frame identity. Servers with no ring ack and replay nothing.
  bool replay_recent = false;

  bool accepts(const runtime::FrameEvent& event) const;
};

struct Ack {
  std::uint8_t status = 0;  ///< 0 = ok, anything else = refused
  std::string text;
};

enum class ByeReason : std::uint8_t {
  kEndOfStream = 0,    ///< server drained: every queued frame was delivered
  kEvicted = 1,        ///< a priority client hit its queue bound
  kProtocolError = 2,  ///< peer sent something unparseable
  kShuttingDown = 3,   ///< server stopping without a full drain
  kAdmissionDenied = 4,  ///< over the connection limit; retry later
};

const char* to_string(ByeReason reason);

struct Bye {
  ByeReason reason = ByeReason::kEndOfStream;
  std::string text;
  /// Hint accompanying kAdmissionDenied (v4): how long the refused client
  /// should wait before redialing. FrameClient waits it out (capped by its
  /// connect_timeout) instead of hammering an overloaded gateway.
  Seconds retry_after = 0.0;
};

/// RuntimeStats digest small enough to push periodically. The gateway
/// sends one after its run drains, so a tailing client can verify it
/// received every published frame from the stream alone.
struct WireStats {
  std::uint8_t health = 0;  ///< runtime::HealthState
  bool stopped_early = false;
  Seconds wall_seconds = 0.0;
  std::uint64_t samples_in = 0;
  std::uint64_t windows_decoded = 0;
  std::uint64_t frames_published = 0;
  std::uint64_t streams = 0;
  std::uint64_t faults_total = 0;
  double mean_confidence = 0.0;
};

WireStats to_wire_stats(const runtime::RuntimeStats& stats);

struct IqEnd {
  std::uint64_t total_samples = 0;
  bool truncated = false;  ///< source ended short of what it declared
};

/// Control-plane knob adjustment (v5). Every knob travels with its own
/// "set" flag so a client can adjust one knob without clobbering the
/// others — operators' tools race against each other, not just the loop.
struct ControlSet {
  bool set_frozen = false;
  bool frozen = false;  ///< the operator's advisory look-don't-touch flag
  bool set_target_goodput = false;
  double target_goodput = 0.0;  ///< stop stepping up once predicted ≥ this
  bool set_min_confidence = false;
  double min_confidence = 0.0;  ///< tags below this are pinned to base rate
  bool set_max_rate = false;
  BitRate max_rate = 0.0;  ///< manual override: cap every assignment (0=plan)
};

/// Control-plane state + the current epoch plan (v5). Broadcast to
/// subscribers after each planning step, and sent as the reply to both
/// kControlGet and kControlSet. `enabled` is false when the gateway runs
/// without a control loop — the reply then carries only zeros, so tools
/// can distinguish "no control plane" from "idle control plane".
struct ControlPlanMsg {
  bool enabled = false;
  bool frozen = false;
  double target_goodput = 0.0;
  double min_confidence = 0.0;
  BitRate max_rate = 0.0;
  std::uint64_t epoch = 0;  ///< epoch index the plan was computed for
  std::string policy;       ///< scheduling policy name ("greedy", "static")
  double predicted_goodput = 0.0;   ///< bits/s the scheduler expects
  double collision_pressure = 0.0;  ///< fleet collided-frame fraction
  struct Assignment {
    std::uint64_t tag = 0;   ///< tracker tag key
    BitRate rate = 0.0;      ///< assigned rate for the next epoch
    double goodput = 0.0;    ///< tag's observed goodput, bits/s
  };
  std::vector<Assignment> assignments;  ///< sorted by tag key
};

/// One de-framed message: type byte plus raw body, ready for decode_*.
struct Message {
  MsgType type = MsgType::kHello;
  std::vector<std::uint8_t> body;
};

// --- encoders: append one complete framed message to `out` ---------------

void encode_hello(const Hello& hello, std::vector<std::uint8_t>& out);
void encode_subscribe(const SubscribeFilter& filter,
                      std::vector<std::uint8_t>& out);
void encode_ack(const Ack& ack, std::vector<std::uint8_t>& out);
void encode_frame(const runtime::FrameEvent& event,
                  std::vector<std::uint8_t>& out);
void encode_stats(const WireStats& stats, std::vector<std::uint8_t>& out);
/// `f64` sends full double samples (bit-exact ingest, 2x the bytes);
/// otherwise samples are quantized to float32 like the LFBSIQ1 file format.
void encode_iq_chunk(const runtime::SampleChunk& chunk, bool f64,
                     std::vector<std::uint8_t>& out);
void encode_iq_end(const IqEnd& end, std::vector<std::uint8_t>& out);
void encode_bye(const Bye& bye, std::vector<std::uint8_t>& out);
void encode_relay_hello(const RelayHello& hello,
                        std::vector<std::uint8_t>& out);
/// kControlGet has an empty body; encode appends just the framed header.
void encode_control_get(std::vector<std::uint8_t>& out);
void encode_control_set(const ControlSet& set, std::vector<std::uint8_t>& out);
void encode_control_plan(const ControlPlanMsg& plan,
                         std::vector<std::uint8_t>& out);

// --- decoders: parse one message body; throw WireFormatError -------------

Hello decode_hello(std::span<const std::uint8_t> body);
SubscribeFilter decode_subscribe(std::span<const std::uint8_t> body);
Ack decode_ack(std::span<const std::uint8_t> body);
runtime::FrameEvent decode_frame(std::span<const std::uint8_t> body);
WireStats decode_stats(std::span<const std::uint8_t> body);
runtime::SampleChunk decode_iq_chunk(std::span<const std::uint8_t> body);
IqEnd decode_iq_end(std::span<const std::uint8_t> body);
Bye decode_bye(std::span<const std::uint8_t> body);
RelayHello decode_relay_hello(std::span<const std::uint8_t> body);
ControlSet decode_control_set(std::span<const std::uint8_t> body);
ControlPlanMsg decode_control_plan(std::span<const std::uint8_t> body);

/// The accept-side handshake rule: a connection's first message must be a
/// kHello from a peer in `role`. Returns the decoded hello; throws
/// WireFormatError otherwise.
Hello expect_hello(const Message& message, PeerRole role);

/// Incremental de-framer: feed() raw bytes as they arrive off a socket,
/// next() hands back complete messages in order. Tolerates any fragmenta-
/// tion (TCP gives no record boundaries); throws WireFormatError::
/// kOversized the moment a length prefix exceeds kMaxMessageBody, before
/// any allocation, and kUnknownType on a type byte outside MsgType.
class MessageReader {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  std::optional<Message> next();
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace lfbs::net
