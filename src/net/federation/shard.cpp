#include "net/federation/shard.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>

#include "common/check.h"
#include "net/federation/shard_wire.h"
#include "net/peer.h"
#include "net/wire.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace lfbs::net::federation {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kIqChunkSamples = 1 << 16;

/// One worker connection plus its in-flight bookkeeping.
struct WorkerLink {
  Peer peer;
  std::size_t index = 0;  ///< position in the pool, for accounting
  bool got_bye = false;
  bool dead = false;  ///< failed over; conn closed, never touched again
  std::map<std::uint64_t, Clock::time_point> dispatched_at;
  Clock::time_point end_sent_at{};  ///< when kIqEnd went out (bye deadline)
  bool end_sent = false;

  explicit WorkerLink(TcpConnection connection)
      : peer(std::move(connection)) {}
};

}  // namespace

/// One run's pool state: the connected links, the windows in flight, and
/// every routine that moves them. Lives from begin() to finish()/cancel(),
/// all of it on the thread that called DecodeRuntime::run.
struct ShardPool::Session {
  const ShardConfig& config;
  const runtime::WindowRun& run;
  std::vector<std::unique_ptr<WorkerLink>> links;
  /// Dispatched jobs retained until their result lands, so a dead
  /// worker's in-flight work can be replayed to a survivor.
  std::map<std::uint64_t, core::WindowJob> pending;
  /// Window indices harvested from dead links awaiting re-dispatch.
  std::deque<std::uint64_t> reassign_queue;
  std::size_t rr_cursor = 0;
  std::size_t submitted = 0;
  std::size_t delivered = 0;

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Pool connect + handshake. Deliberately strict: a pool that starts
  // broken is a configuration error, not a runtime fault to ride out. No
  // ack is read here; drain_incoming skips it once the run is under way.
  Session(const ShardConfig& config_in, const runtime::WindowRun& run_in)
      : config(config_in), run(run_in) {
    links.reserve(config.workers.size());
    for (const auto& endpoint : config.workers) {
      auto link = std::make_unique<WorkerLink>(TcpConnection::connect(
          endpoint.host, endpoint.port, config.connect_timeout));
      link->index = links.size();
      std::vector<std::uint8_t> hello_bytes;
      Hello hello;
      hello.role = PeerRole::kShardCoordinator;
      hello.sample_rate = run.sample_rate;
      hello.name = config.name;
      encode_hello(hello, hello_bytes);
      link->peer.send(hello_bytes);
      links.push_back(std::move(link));
    }
  }

  // Declares a link dead: close it, harvest its outstanding windows into the
  // reassign queue, count the loss.
  void fail_link(WorkerLink& link, const char* reason) {
    static obs::Counter& workers_lost_counter =
        obs::metrics().counter("net.failover_workers_lost");
    if (link.dead) return;
    link.dead = true;
    link.peer.connection().close();
    run.supervisor.record_worker_lost(link.dispatched_at.size());
    workers_lost_counter.add();
    for (const auto& [window_index, at] : link.dispatched_at) {
      (void)at;
      reassign_queue.push_back(window_index);
    }
    if (obs::EventLog* log = obs::event_log()) {
      log->emit("federation",
                {obs::Field::str("action", "worker-lost"),
                 obs::Field::str("reason", reason),
                 obs::Field::integer("worker",
                                     static_cast<std::int64_t>(link.index)),
                 obs::Field::integer("outstanding",
                                     static_cast<std::int64_t>(
                                         link.dispatched_at.size()))});
    }
    link.dispatched_at.clear();
  }

  // Drains whatever a worker has sent, delivering results. Called
  // opportunistically while writing (deadlock avoidance: a worker blocked
  // sending us a result must never stall our IQ send forever) and in the
  // final collection loop.
  void drain_incoming(WorkerLink& link) {
    static obs::HistogramMetric& latency_hist =
        obs::metrics().histogram("federation.shard_latency_ms");
    if (link.dead) return;
    try {
      for (;;) {
        // Read until the socket would block, as a partial message does not
        // end the drain.
        const std::size_t buffered = link.peer.buffered();
        const auto message = link.peer.receive(0);
        if (!message) {
          if (link.peer.closed() || link.peer.buffered() == buffered) break;
          continue;
        }
        switch (message->type) {
          case MsgType::kAck:
          case MsgType::kStats:  // informational; workers don't send these
            break;
          case MsgType::kShardFrame: {
            ShardResult result = decode_shard_result(message->body);
            // Only a window outstanding on this link counts; anything else
            // is stale or bogus, and the deadline catches a worker that
            // never answers its real assignments.
            const auto it = link.dispatched_at.find(result.window_index);
            if (it == link.dispatched_at.end()) break;
            const double ms = std::chrono::duration<double, std::milli>(
                                  Clock::now() - it->second)
                                  .count();
            latency_hist.record(ms);
            run.latency.record(ms / 1e3);
            link.dispatched_at.erase(it);
            pending.erase(result.window_index);
            ++delivered;
            run.deliver(static_cast<std::size_t>(result.window_index),
                        std::move(result.result));
            break;
          }
          case MsgType::kBye: {
            const Bye bye = decode_bye(message->body);
            link.got_bye = true;
            if (bye.reason != ByeReason::kEndOfStream) {
              fail_link(link, "refused");
              return;
            }
            break;
          }
          default:
            throw WireFormatError(WireError::kMalformed,
                                  "unexpected message from shard worker");
        }
      }
    } catch (const WireFormatError&) {
      // A worker speaking garbage is as lost as a dead one: its results
      // cannot be trusted past this point.
      fail_link(link, "garbage");
      return;
    }
    if (link.peer.closed() && !link.got_bye) fail_link(link, "died");
  }

  // Deadline sweep: a link whose oldest in-flight window (or pending Bye) is
  // older than worker_deadline is wedged — fail it so its work moves to the
  // survivors instead of stalling the run.
  void check_deadlines() {
    const auto now = Clock::now();
    const auto deadline = std::chrono::duration<double>(config.worker_deadline);
    for (auto& link : links) {
      if (link->dead) continue;
      bool overdue = std::any_of(
          link->dispatched_at.begin(), link->dispatched_at.end(),
          [&](const auto& entry) { return now - entry.second > deadline; });
      if (!overdue && link->end_sent && !link->got_bye &&
          now - link->end_sent_at > deadline) {
        overdue = true;
      }
      if (overdue) fail_link(*link, "deadline");
    }
  }

  // Fully writes `bytes` to a worker, draining every link's reads while the
  // send buffer is full. False when the link died under the write (its
  // outstanding windows are already queued for reassignment).
  bool send_all(WorkerLink& link, const std::vector<std::uint8_t>& bytes) {
    TcpConnection& conn = link.peer.connection();
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      if (link.dead) return false;
      const std::ptrdiff_t n =
          conn.write_some(bytes.data() + sent, bytes.size() - sent);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0) {
        fail_link(link, "died mid-send");
        return false;
      }
      std::vector<PollItem> items{{conn.fd(), true, true}};
      poll_fds(items, 100);
      for (auto& other : links) drain_incoming(*other);
      check_deadlines();
    }
    return true;
  }

  // Encodes one assignment (+ its f64 IQ) and writes it to `link`.
  void transmit(WorkerLink& link, const core::WindowJob& job) {
    const core::WindowedDecoderConfig& wc = run.decoder.config();
    ShardAssign assign;
    assign.window_index = job.index;
    assign.short_capture = job.whole_capture;
    assign.sample_count = job.samples.size();
    assign.sample_rate = run.sample_rate;
    assign.window_seconds = wc.window;
    assign.seed = wc.decoder.seed;
    assign.payload_bits =
        static_cast<std::uint32_t>(wc.decoder.frame.payload_bits);
    assign.crc_kind = static_cast<std::uint8_t>(wc.decoder.frame.crc);
    std::vector<std::uint8_t> bytes;
    encode_shard_assign(assign, bytes);
    // The window's samples, window-local offsets, always f64: the worker
    // must decode the coordinator's exact bit patterns.
    const auto samples = job.samples.span();
    for (std::size_t off = 0; off < samples.size(); off += kIqChunkSamples) {
      const auto part =
          samples.subspan(off, std::min(kIqChunkSamples, samples.size() - off));
      runtime::SampleChunk chunk;
      chunk.first_sample = off;
      chunk.samples.assign(part.begin(), part.end());
      encode_iq_chunk(chunk, /*f64=*/true, bytes);
    }
    // Bookkeep before the write: if the link dies mid-send, fail_link
    // harvests this window into the reassign queue with the rest.
    link.dispatched_at.emplace(job.index, Clock::now());
    if (!send_all(link, bytes)) return;
    drain_incoming(link);
  }

  // Round-robin over the surviving links, nullptr when none remain.
  WorkerLink* pick_alive() {
    for (std::size_t tries = 0; tries < links.size(); ++tries) {
      WorkerLink* link = links[rr_cursor++ % links.size()].get();
      if (!link->dead) return link;
    }
    return nullptr;
  }

  // Re-dispatches windows harvested from dead links. Each iteration either
  // lands a window on a survivor or kills another link, so it terminates;
  // zero survivors with work outstanding is the loud failure.
  void pump_reassign() {
    static obs::Counter& reassigned_counter =
        obs::metrics().counter("net.failover_windows_reassigned");
    while (!reassign_queue.empty()) {
      const std::uint64_t window_index = reassign_queue.front();
      reassign_queue.pop_front();
      const auto it = pending.find(window_index);
      if (it == pending.end()) continue;  // result landed before the death
      WorkerLink* target = pick_alive();
      if (target == nullptr) {
        throw SocketError("shard failover: no workers left (window " +
                          std::to_string(window_index) + " outstanding)");
      }
      reassigned_counter.add();
      if (obs::EventLog* log = obs::event_log()) {
        log->emit("federation",
                  {obs::Field::str("action", "reassign"),
                   obs::Field::integer("window",
                                       static_cast<std::int64_t>(window_index)),
                   obs::Field::integer(
                       "worker", static_cast<std::int64_t>(target->index))});
      }
      transmit(*target, it->second);
    }
  }

  // Polls every link still owing results or a Bye, drains what arrived, and
  // sweeps the deadlines. A link past its Bye is left out: its closed socket
  // would read as ready forever.
  void poll_and_drain(int timeout_ms) {
    std::vector<PollItem> items;
    for (const auto& link : links) {
      if (!link->dead && !link->got_bye) {
        items.push_back({link->peer.connection().fd(), true, false});
      }
    }
    poll_fds(items, timeout_ms);
    for (auto& link : links) {
      if (!link->got_bye) drain_incoming(*link);
    }
    check_deadlines();
  }

  // Dispatches one job to its round-robin worker (or a survivor).
  void submit(core::WindowJob job) {
    static obs::Counter& windows_counter =
        obs::metrics().counter("federation.shard_windows");
    ++submitted;
    windows_counter.add();
    WorkerLink* link = links[job.index % links.size()].get();
    if (link->dead) link = pick_alive();
    if (link == nullptr) {
      throw SocketError("shard failover: no workers left to assign window " +
                        std::to_string(job.index));
    }
    const std::uint64_t index = job.index;
    const auto it = pending.emplace(index, std::move(job)).first;
    transmit(*link, it->second);
    pump_reassign();
  }

  // Collects every outstanding window, then closes the links. kIqEnd is
  // deferred until every result is in hand: a survivor may still be needed
  // to take over a dead worker's outstanding windows.
  void finish() {
    pump_reassign();
    while (delivered < submitted) {
      if (std::all_of(links.begin(), links.end(),
                      [](const auto& l) { return l->dead; })) {
        throw SocketError("shard failover: no workers left with " +
                          std::to_string(submitted - delivered) +
                          " window(s) outstanding");
      }
      poll_and_drain(250);
      pump_reassign();
    }
    for (auto& link : links) {
      if (link->dead) continue;
      std::vector<std::uint8_t> end_bytes;
      encode_iq_end({0, false}, end_bytes);
      link->end_sent = true;
      link->end_sent_at = Clock::now();
      send_all(*link, end_bytes);
    }
    while (std::any_of(links.begin(), links.end(), [](const auto& l) {
      return !l->dead && !l->got_bye;
    })) {
      poll_and_drain(250);
    }
  }
};

ShardPool::ShardPool(ShardConfig config) : config_(std::move(config)) {
  LFBS_CHECK_MSG(!config_.workers.empty(),
                 "sharded decode requires at least one worker");
}

ShardPool::~ShardPool() = default;

void ShardPool::begin(const runtime::WindowRun& run) {
  session_ = std::make_unique<Session>(config_, run);
}

void ShardPool::submit(core::WindowJob job) {
  session_->submit(std::move(job));
}

void ShardPool::finish() {
  session_->finish();
  session_.reset();
}

void ShardPool::cancel() noexcept { session_.reset(); }

// The pool's retained in-flight windows already buffer the stream; a
// deeper chunk ring would hold the capture a second time and hand the
// source out further ahead of its decode.
ShardedDecoder::ShardedDecoder(ShardConfig config)
    : runtime_({.windowed = config.windowed,
                .ring_capacity = 1,
                .epoch_index = config.epoch_index}),
      pool_(std::move(config)) {}

ShardedDecoder::Result ShardedDecoder::run(runtime::SampleSource& source) {
  return runtime_.run(source, pool_);
}

}  // namespace lfbs::net::federation
