#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "common/units.h"
#include "net/peer.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/sample_source.h"

namespace lfbs::net {

struct IqIngestConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; RemoteIqSource::port() reports
  /// How long wait_for_pusher blocks for a capture process to appear.
  Seconds accept_timeout = 30.0;
  /// A next_chunk that waits longer than this for its message is a stalled
  /// link: it throws a *transient* SourceError so the runtime supervisor
  /// applies its usual retry-with-backoff policy before failing the run.
  Seconds read_timeout = 30.0;
  /// The run's stop flag (RuntimeConfig::stop_flag; may be null), only
  /// read. wait_for_pusher and next_chunk wait in slices of at most 50 ms
  /// and give up once it is set, so a stop waits out neither an absent
  /// pusher's accept nor a silent pusher's read.
  const std::atomic<bool>* stop_flag = nullptr;
};

/// A runtime::SampleSource fed over TCP: the decoder end of remote IQ
/// ingest. Binds a listener, waits for one LFBW1 peer in the kIqPusher
/// role, then serves its kIqChunk stream through next_chunk() with exactly
/// the local-source contract:
///
///   - kIqEnd (clean close)            → std::nullopt, end of stream
///   - connection dies mid-stream      → SourceError, non-transient
///   - chunk not contiguous with the   → SourceError, non-transient
///     samples received so far
///   - no message within read_timeout  → SourceError, transient (retried)
///   - unparseable bytes               → SourceError, non-transient
///   - stop_flag set while waiting     → std::nullopt, end of stream
///
/// Pull-model like every other source: all socket work happens inside
/// next_chunk on the runtime's producer thread — no extra thread, no queue.
class RemoteIqSource : public runtime::SampleSource {
 public:
  explicit RemoteIqSource(IqIngestConfig config);

  std::uint16_t port() const { return listener_.port(); }

  /// Blocks until a pusher connects and completes its hello; returns the
  /// sample rate it declared, or std::nullopt once stop_flag is set. Must
  /// be called (successfully) before the runtime starts, since
  /// RuntimeConfig needs the rate up front. Throws SourceError
  /// (non-transient) on timeout or a bad handshake.
  std::optional<SampleRate> wait_for_pusher();

  SampleRate sample_rate() const override { return rate_; }
  std::optional<runtime::SampleChunk> next_chunk() override;

  std::uint64_t total_samples() const { return total_samples_; }
  /// Pusher declared more samples in IqEnd than it actually sent.
  bool truncated() const { return truncated_; }

 private:
  [[noreturn]] void fail_protocol(const std::string& what);
  bool stop_requested() const;

  IqIngestConfig config_;
  TcpListener listener_;
  std::optional<Peer> peer_;  ///< the pusher; empty before and after it
  SampleRate rate_ = 0.0;
  std::uint64_t total_samples_ = 0;
  bool ended_ = false;
  bool truncated_ = false;
};

/// The receiver died *mid-stream* — after it acknowledged the handshake
/// and the pusher started streaming chunks. Distinct from a connect or
/// handshake failure (plain SocketError) because the caller's stance
/// differs: the stream is partially delivered and simply redialing would
/// replay samples the receiver may have half-decoded. push_iq counts every
/// one under the `net.push_aborts` metric; `lfbs_gateway --push` maps it
/// to its own exit code.
struct PushAborted : SocketError {
  using SocketError::SocketError;
};

/// Capture-side helper: connect to a RemoteIqSource, declare `rate`, stream
/// every chunk of `source`, finish with IqEnd. `f64` sends full doubles so
/// the remote decode is bit-identical to a local one; false quantizes to
/// float32 (half the bytes, LFBSIQ1 precision). Returns samples pushed.
/// Throws SocketError / WireFormatError on connection or handshake failure,
/// PushAborted when the receiver dies after the stream started.
std::uint64_t push_iq(const std::string& host, std::uint16_t port,
                      runtime::SampleSource& source, bool f64,
                      Seconds connect_timeout = 5.0,
                      const std::string& name = "lfbs-pusher");

}  // namespace lfbs::net
