// lfbs_soak: chaos soak of the network plane, all on loopback in one
// process. Every epoch runs the full distributed topology end to end:
//
//   shard worker pool (threads, real TCP)
//        ^ kShardAssign / kShardFrame
//   ShardedDecoder coordinator ── FrameBus ──> FrameServer A (origin 1)
//        FrameRelay (gateway 2) <─ subscribe ─┘
//             └─> FrameServer B ──> tail FrameClient
//
// and replays the same pre-built capture under a fresh epoch_index, so
// every published frame has a unique identity for exactly-once accounting.
// With --chaos SPEC the socket layer injects deterministic faults into
// every connect-side link (coordinator→worker, relay→A, tail→B); the run
// must then *heal* — shard failover, replay-ring partition recovery,
// full-jitter reconnect — or the attempt is counted failed and retried.
//
// Per successful attempt the harness asserts:
//   - closure: the tail's unique frame identities == the identities the
//     coordinator published (nothing lost, nothing invented);
//   - exactly-once: duplicates at the tail only ever come from replay
//     healing (zero without chaos), never from double publishes;
//   - bit-stability: the published frame count matches the serial
//     WindowedDecoder reference on the same capture.
// Across the run it asserts bounded memory (VmRSS may not grow more than
// --rss-limit-mb over its post-warmup baseline) and walks a health ladder
// (healthy → degraded on any failed attempt → failed past
// --max-consecutive-failures), printing every transition.
//
// With --overload the topology changes to the overload drill: one
// DecodeRuntime gateway with a connection limit (--admitted) and a
// per-client queue bound of one epoch; a 32-connection dial storm (each
// expecting a typed admission deny with a retry-after hint), 4
// deliberately slow best-effort consumers, and 1 priority subscriber. Per
// epoch the drill asserts the priority subscriber saw every published
// frame (bit-identity to the serial reference), every denied dial got
// Bye(admission-denied) with a positive retry hint, the server's frame
// ledger closes exactly (enqueued == sent + drops + discarded), and its
// peak queue bytes stay within what the two limits allow: --admitted
// queues of (bound + 1) frames plus the --replay ring, plus each
// connection's acks, stats digest and bye. Across the run RSS stays
// bounded as usual.
//
// Exit status: 0 soak completed healthy or degraded-but-recovered, 1 any
// soak assertion failed, 2 usage error. 130/143 after SIGINT/SIGTERM.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "channel/channel_model.h"
#include "cli_flags.h"
#include "common/rng.h"
#include "common/shutdown.h"
#include "core/windowed_decoder.h"
#include "net/chaos/chaos.h"
#include "net/federation/relay.h"
#include "net/federation/shard.h"
#include "net/federation/shard_worker.h"
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "obs/events.h"
#include "obs/trace.h"
#include "protocol/frame.h"
#include "reader/receiver.h"
#include "runtime/frame_bus.h"
#include "runtime/runtime.h"
#include "runtime/sample_source.h"
#include "runtime/stats.h"
#include "tag/tag.h"

using namespace lfbs;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: lfbs_soak [--epochs N] [--tags N] [--duration-ms MS]\n"
      "                 [--workers N] [--chaos SPEC] [--replay N]\n"
      "                 [--seed N] [--rss-limit-mb N]\n"
      "                 [--worker-deadline S] [--max-consecutive-failures N]\n"
      "                 [--report-every N] [--trace-out PATH]\n"
      "                 [--overload] [--storm N] [--slow-consumers N]\n"
      "                 [--admitted N]\n");
}

/// Current resident set in bytes, from /proc/self/status (0 if unreadable).
std::size_t rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<std::size_t>(atoll(line.c_str() + 6)) * 1024;
    }
  }
  return 0;
}

/// The federation tests' capture shape: `tags` tags stream frames for
/// `duration` through the full channel model — a real multi-window decode.
signal::SampleBuffer make_capture(std::size_t num_tags, Seconds duration,
                                  std::uint64_t seed) {
  Rng rng(seed);
  reader::ReceiverConfig rc;
  rc.sample_rate = 5.0 * kMsps;
  rc.noise_power = 1e-5;
  channel::ChannelModel ch;
  std::vector<tag::Tag> tags;
  protocol::FrameConfig fc;
  for (std::size_t i = 0; i < num_tags; ++i) {
    ch.add_tag(std::polar(rng.uniform(0.08, 0.2), rng.uniform(0.0, 6.2831)));
    tag::TagConfig tc;
    tc.clock.drift_ppm = 40.0;
    tc.incoming_energy = rng.uniform(0.7, 1.3);
    tags.emplace_back(tc, rng);
  }
  std::vector<signal::StateTimeline> timelines;
  for (auto& t : tags) {
    std::vector<std::vector<bool>> frames;
    const auto n = static_cast<std::size_t>((duration - 1e-3) *
                                            (100.0 * kKbps) / 113.0);
    for (std::size_t f = 0; f < n; ++f) {
      frames.push_back(protocol::build_frame(rng.bits(96), fc));
    }
    timelines.push_back(t.transmit_epoch(frames, duration, rng).timeline);
  }
  reader::Receiver receiver(rc, ch);
  return receiver.receive_epoch(timelines, duration, rng);
}

struct SoakOptions {
  std::size_t epochs = 50;
  std::size_t tags = 2;
  double duration_ms = 50.0;
  std::size_t workers = 2;
  std::string chaos_spec;
  std::size_t replay = 256;
  std::uint64_t seed = 11;
  std::size_t rss_limit_mb = 64;
  double worker_deadline = 5.0;
  std::size_t max_consecutive_failures = 20;
  std::size_t report_every = 10;
  std::string trace_out;
  // --overload drill shape.
  bool overload = false;
  std::size_t storm = 32;           ///< dial-storm connections per epoch
  std::size_t slow_consumers = 4;   ///< deliberately slow best-effort tails
  std::size_t admitted = 8;         ///< the connection limit
};

/// The soak's health ladder — healthy → degraded on any failed attempt →
/// failed; it only climbs, printing and logging every transition — plus
/// the end-of-run checks both drills share.
class HealthLadder {
 public:
  explicit HealthLadder(const SoakOptions& opt) : opt_(opt) {}

  void raise(runtime::HealthState to, const std::string& why) {
    if (to <= health_) return;
    std::fprintf(stderr, "soak: health %s -> %s (%s)\n",
                 runtime::to_string(health_), runtime::to_string(to),
                 why.c_str());
    if (obs::EventLog* log = obs::event_log()) {
      log->emit("soak", {obs::Field::str("action", "health"),
                         obs::Field::str("to", runtime::to_string(to)),
                         obs::Field::str("why", why)});
    }
    health_ = to;
  }

  /// The first completed epoch sets the (post-warmup) RSS baseline.
  void epoch_completed() {
    if (rss_baseline_ == 0) rss_baseline_ = rss_bytes();
  }

  /// Fails the soak when RSS grew past --rss-limit-mb over the baseline;
  /// returns the final RSS.
  std::size_t check_rss() {
    const std::size_t rss_final = rss_bytes();
    if (rss_baseline_ > 0 &&
        rss_final > rss_baseline_ + opt_.rss_limit_mb * 1048576) {
      raise(runtime::HealthState::kFailed,
            "rss grew from " + std::to_string(rss_baseline_ / 1048576) +
                " MB to " + std::to_string(rss_final / 1048576) + " MB");
    }
    return rss_final;
  }

  /// Fails the soak when it stopped short of --epochs uninterrupted.
  void check_all_ran(std::size_t completed, bool interrupted) {
    if (!interrupted && completed < opt_.epochs) {
      raise(runtime::HealthState::kFailed,
            "soak aborted before all epochs ran");
    }
  }

  runtime::HealthState state() const { return health_; }
  std::size_t rss_baseline() const { return rss_baseline_; }
  int exit_code() const {
    return shutdown_exit_code(health_ == runtime::HealthState::kFailed ? 1
                                                                       : 0);
  }

 private:
  const SoakOptions& opt_;
  runtime::HealthState health_ = runtime::HealthState::kHealthy;
  std::size_t rss_baseline_ = 0;
};

struct AttemptOutcome {
  bool ok = false;
  std::string error;          ///< first failure cause, empty when ok
  std::size_t published = 0;  ///< frames the coordinator put on the bus
  std::size_t delivered = 0;  ///< unique identities that reached the tail
  std::size_t duplicates = 0; ///< replay-healed re-deliveries at the tail
  std::size_t workers_lost = 0;
  std::size_t windows_reassigned = 0;
  std::size_t tail_reconnects = 0;
};

/// One end-to-end epoch: coordinator → server A → relay → server B → tail.
AttemptOutcome run_attempt(const signal::SampleBuffer& capture,
                           const core::WindowedDecoderConfig& wc,
                           const std::vector<net::federation::ShardWorkerEndpoint>& pool,
                           std::uint64_t epoch_index,
                           const SoakOptions& opt) {
  AttemptOutcome out;

  net::federation::ShardConfig shc;
  shc.windowed = wc;
  shc.workers = pool;
  shc.name = "lfbs-soak-coordinator";
  shc.epoch_index = epoch_index;
  shc.worker_deadline = opt.worker_deadline;
  net::federation::ShardedDecoder sharded(shc);

  std::mutex published_mutex;
  std::set<std::uint64_t> published_keys;
  const auto sub = sharded.bus().subscribe([&](const runtime::FrameEvent& e) {
    std::lock_guard lock(published_mutex);
    published_keys.insert(runtime::frame_identity(e).key());
  });

  net::FrameServerConfig sa;
  sa.origin_id = 1;
  sa.replay_frames = opt.replay;
  net::FrameServer server_a(sa);
  server_a.attach(sharded.bus());

  net::FrameServerConfig sb;
  sb.origin_id = 2;
  sb.replay_frames = opt.replay;
  net::FrameServer server_b(sb);

  net::federation::RelayConfig rc;
  rc.gateway_id = 2;
  rc.name = "lfbs-soak-relay";
  rc.upstreams = {{"127.0.0.1", server_a.port()}};
  net::federation::FrameRelay relay(rc, server_b);

  // Tail: replay-healing, self-reconnecting, exactly-once bookkeeping.
  net::FrameClientConfig cc;
  cc.port = server_b.port();
  cc.name = "lfbs-soak-tail";
  cc.filter.replay_recent = true;
  cc.reconnect_on_evict = true;
  cc.reconnect_on_protocol_error = true;
  net::FrameClient tail(cc);
  std::mutex tail_mutex;
  std::set<std::uint64_t> tail_keys;
  std::size_t tail_duplicates = 0;
  std::string tail_error;
  std::thread tail_thread([&] {
    net::FrameClient::Callbacks callbacks;
    callbacks.on_frame = [&](const runtime::FrameEvent& e) {
      std::lock_guard lock(tail_mutex);
      if (!tail_keys.insert(runtime::frame_identity(e).key()).second) {
        ++tail_duplicates;
      }
    };
    try {
      tail.run(callbacks);
    } catch (const std::exception& e) {
      std::lock_guard lock(tail_mutex);
      tail_error = e.what();
    }
  });

  // Deterministic spin-up: tail on B, then the relay link on A, then decode.
  server_b.wait_for_subscriber(5.0);
  relay.start();
  server_a.wait_for_subscriber(5.0);

  std::string run_error;
  runtime::RuntimeStats stats;
  try {
    runtime::MemorySource source(capture, 1 << 14);
    const auto result = sharded.run(source);
    stats.frames_published = result.stats.frames_published;
    out.workers_lost = result.stats.faults.workers_lost;
    out.windows_reassigned = result.stats.faults.windows_reassigned;
  } catch (const std::exception& e) {
    run_error = e.what();
  }

  // Teardown in stream order so every hop sees a drained Bye.
  server_a.detach();
  server_a.publish_stats(stats);
  server_a.shutdown(/*drain=*/true);
  relay.join();
  relay.stop();
  runtime::RuntimeStats relay_stats;
  relay_stats.frames_published = relay.counters().relayed;
  server_b.publish_stats(relay_stats);
  server_b.shutdown(/*drain=*/true);
  // No tail.stop(): the drained shutdown guarantees a Bye is in flight, and
  // stopping early would race the tail out of its last queued frames. If
  // the tail instead died and is redialing, the closed listener bounds its
  // retries.
  tail_thread.join();
  sharded.bus().unsubscribe(sub);

  std::lock_guard lock(tail_mutex);
  out.published = published_keys.size();
  out.delivered = tail_keys.size();
  out.duplicates = tail_duplicates;
  out.tail_reconnects = tail.counters().reconnects;
  if (!run_error.empty()) {
    out.error = "coordinator: " + run_error;
  } else if (out.published == 0) {
    out.error = "decode published no frames";
  } else if (tail_keys != published_keys) {
    out.error = "closure: tail saw " + std::to_string(out.delivered) +
                " unique frames of " + std::to_string(out.published) +
                " published";
    if (!tail_error.empty()) out.error += " (tail: " + tail_error + ")";
  }
  out.ok = out.error.empty();
  return out;
}

/// The overload drill's per-client queue bound, in frames: one epoch.
constexpr std::size_t kOverloadQueueFrames = 1024;
/// What one connection's queue may hold besides frames: a hello ack and a
/// subscribe ack, the stats digest and a bye, each under 80 bytes.
constexpr std::size_t kNoticeBytesPerClient = 256;

struct OverloadOutcome {
  bool ok = false;
  std::string error;
  std::size_t published = 0;
  std::size_t priority_delivered = 0;  ///< unique identities, priority tail
  std::size_t storm_denied = 0;        ///< dials that got the typed deny
  std::size_t storm_admitted = 0;      ///< dials that got a subscription
  net::FrameServer::Counters server;
  std::size_t queue_bytes_bound = 0;  ///< what the two limits allow
};

/// One overload epoch: DecodeRuntime gateway under the connection limit
/// and the queue bound, dial storm + slow best-effort consumers + one
/// priority subscriber.
OverloadOutcome run_overload_attempt(const signal::SampleBuffer& capture,
                                     const core::WindowedDecoderConfig& wc,
                                     const SoakOptions& opt) {
  OverloadOutcome out;

  std::mutex keys_mutex;
  std::set<std::uint64_t> published_keys;
  std::size_t frame_bytes = 0;  ///< largest published frame on the wire
  std::set<std::uint64_t> priority_keys;
  std::string priority_error;
  std::atomic<std::size_t> denied{0}, admitted{0};
  std::atomic<std::size_t> bad_denies{0};  ///< denies with no retry hint

  {
    net::FrameServerConfig sc;
    sc.origin_id = 1;
    sc.replay_frames = opt.replay;
    sc.admission.max_connections = opt.admitted;
    sc.admission.retry_after = 0.2;
    // One epoch per client: the run publishes its frames (about 350 at
    // --tags 4 --duration-ms 100) in one burst when it drains, and the
    // priority subscriber must get every one, so its queue holds them all.
    sc.send_queue_messages = kOverloadQueueFrames;
    net::FrameServer server(sc);

    runtime::RuntimeConfig rc;
    rc.windowed = wc;
    rc.workers = 2;
    runtime::DecodeRuntime rt(rc);
    server.attach(rt.bus());
    const auto sub = rt.bus().subscribe([&](const runtime::FrameEvent& e) {
      std::vector<std::uint8_t> bytes;
      net::encode_frame(e, bytes);
      std::lock_guard lock(keys_mutex);
      published_keys.insert(runtime::frame_identity(e).key());
      frame_bytes = std::max(frame_bytes, bytes.size());
    });

    // The priority subscriber: must end the epoch with every published
    // frame, no matter what the storm does.
    net::FrameClientConfig pc;
    pc.port = server.port();
    pc.name = "lfbs-soak-priority";
    pc.client_class = net::ClientClass::kPriority;
    net::FrameClient priority_tail(pc);
    std::thread priority_thread([&] {
      net::FrameClient::Callbacks callbacks;
      callbacks.on_frame = [&](const runtime::FrameEvent& e) {
        std::lock_guard lock(keys_mutex);
        priority_keys.insert(runtime::frame_identity(e).key());
      };
      try {
        priority_tail.run(callbacks);
      } catch (const std::exception& e) {
        std::lock_guard lock(keys_mutex);
        priority_error = e.what();
      }
    });

    // Slow best-effort consumers: a sleep per frame makes their queues the
    // deepest. Whatever they lose at the bound is the policy working; only
    // the ledger has to account for it.
    std::vector<std::unique_ptr<net::FrameClient>> slow_tails;
    std::vector<std::thread> slow_threads;
    for (std::size_t i = 0; i < opt.slow_consumers; ++i) {
      net::FrameClientConfig cc;
      cc.port = server.port();
      cc.name = "lfbs-soak-slow-" + std::to_string(i);
      slow_tails.push_back(std::make_unique<net::FrameClient>(cc));
      net::FrameClient* tail = slow_tails.back().get();
      slow_threads.emplace_back([tail] {
        net::FrameClient::Callbacks callbacks;
        callbacks.on_frame = [](const runtime::FrameEvent&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        };
        try {
          tail->run(callbacks);
        } catch (const std::exception&) {
          // A slow tail losing its connection under overload is the
          // policy's business, not the drill's.
        }
      });
    }

    // Let every legitimate subscriber land before the storm competes for
    // the connection limit.
    const auto sub_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    const std::size_t want_subs = 1 + opt.slow_consumers;
    while (server.counters().subscribers < want_subs &&
           std::chrono::steady_clock::now() < sub_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    // The dial storm: every connection either gets a typed deny with a
    // retry-after hint (and gives up: zero admission retries) or is
    // admitted and tails the stream to its end.
    std::vector<std::unique_ptr<net::FrameClient>> storm_clients;
    std::vector<std::thread> storm_threads;
    for (std::size_t i = 0; i < opt.storm; ++i) {
      net::FrameClientConfig cc;
      cc.port = server.port();
      cc.name = "lfbs-soak-storm-" + std::to_string(i);
      cc.max_admission_retries = 0;
      storm_clients.push_back(std::make_unique<net::FrameClient>(cc));
      net::FrameClient* client = storm_clients.back().get();
      storm_threads.emplace_back([client, &denied, &admitted, &bad_denies] {
        try {
          const net::Bye bye = client->run({});
          if (bye.reason == net::ByeReason::kAdmissionDenied) {
            denied.fetch_add(1, std::memory_order_relaxed);
            if (!(bye.retry_after > 0.0)) {
              bad_denies.fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            admitted.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception&) {
          // Dial storms racing a draining listener can lose a connection
          // without a Bye; that dial is neither denied nor admitted.
        }
      });
    }

    // Decode under fire.
    std::string run_error;
    runtime::RuntimeStats stats;
    try {
      runtime::MemorySource source(capture, 1 << 14);
      const runtime::RuntimeResult run = rt.run(source);
      stats = run.stats;
    } catch (const std::exception& e) {
      run_error = e.what();
    }

    server.detach();
    rt.bus().unsubscribe(sub);
    server.publish_stats(stats);
    server.shutdown(/*drain=*/true);
    priority_thread.join();
    for (auto& thread : slow_threads) thread.join();
    for (auto& thread : storm_threads) thread.join();
    out.server = server.counters();
    if (!run_error.empty()) out.error = "runtime: " + run_error;
  }

  out.published = published_keys.size();
  out.priority_delivered = priority_keys.size();
  out.storm_denied = denied.load();
  out.storm_admitted = admitted.load();
  out.queue_bytes_bound =
      (opt.admitted * (kOverloadQueueFrames + 1) + opt.replay) * frame_bytes +
      (1 + opt.slow_consumers + opt.storm) * kNoticeBytesPerClient;

  const auto& c = out.server;
  const std::size_t accounted =
      c.frames_sent + c.queue_drops + c.frames_discarded;
  if (!out.error.empty()) {
    // keep the runtime error
  } else if (out.published == 0) {
    out.error = "decode published no frames";
  } else if (!priority_error.empty()) {
    out.error = "priority tail: " + priority_error;
  } else if (priority_keys != published_keys) {
    out.error = "priority tail saw " +
                std::to_string(out.priority_delivered) + " unique frames of " +
                std::to_string(out.published) + " published";
  } else if (out.storm_denied == 0) {
    out.error = "dial storm produced no admission denies";
  } else if (bad_denies.load() > 0) {
    out.error = std::to_string(bad_denies.load()) +
                " denies arrived without a retry-after hint";
  } else if (out.storm_denied != c.admission_denies) {
    out.error = "deny accounting: server counted " +
                std::to_string(c.admission_denies) + ", storm received " +
                std::to_string(out.storm_denied);
  } else if (c.frames_enqueued != accounted) {
    out.error = "frame ledger does not close: enqueued " +
                std::to_string(c.frames_enqueued) + " != sent " +
                std::to_string(c.frames_sent) + " + drops " +
                std::to_string(c.queue_drops) + " + discarded " +
                std::to_string(c.frames_discarded);
  } else if (c.queue_bytes_peak > out.queue_bytes_bound) {
    out.error = "queue bytes peaked at " + std::to_string(c.queue_bytes_peak) +
                ", past the limits' bound of " +
                std::to_string(out.queue_bytes_bound);
  }
  out.ok = out.error.empty();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  SoakOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--epochs" && i + 1 < argc) {
      opt.epochs = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--tags" && i + 1 < argc) {
      opt.tags = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--duration-ms" && i + 1 < argc) {
      opt.duration_ms = tools::flag_number(arg, argv[++i]);
    } else if (arg == "--workers" && i + 1 < argc) {
      opt.workers = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--chaos" && i + 1 < argc) {
      opt.chaos_spec = argv[++i];
    } else if (arg == "--replay" && i + 1 < argc) {
      opt.replay = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      opt.seed = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--rss-limit-mb" && i + 1 < argc) {
      opt.rss_limit_mb = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--worker-deadline" && i + 1 < argc) {
      opt.worker_deadline = tools::flag_number(arg, argv[++i]);
    } else if (arg == "--max-consecutive-failures" && i + 1 < argc) {
      opt.max_consecutive_failures = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--report-every" && i + 1 < argc) {
      opt.report_every = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--trace-out" && i + 1 < argc) {
      opt.trace_out = argv[++i];
    } else if (arg == "--overload") {
      opt.overload = true;
    } else if (arg == "--storm" && i + 1 < argc) {
      opt.storm = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--slow-consumers" && i + 1 < argc) {
      opt.slow_consumers = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--admitted" && i + 1 < argc) {
      opt.admitted = tools::flag_u64(arg, argv[++i]);
    } else {
      usage();
      return 2;
    }
  }
  if (opt.overload && opt.admitted == 0) {
    usage();
    return 2;
  }
  // A replay must fit one client's queue (FrameServerConfig); the plain
  // drill's servers keep the default bound.
  if (opt.replay > net::FrameServerConfig{}.send_queue_messages) {
    std::fprintf(stderr,
                 "error: --replay %zu exceeds the per-client queue bound "
                 "(%zu frames)\n",
                 opt.replay, net::FrameServerConfig{}.send_queue_messages);
    return 2;
  }
  if (opt.epochs == 0 || opt.workers == 0) {
    usage();
    return 2;
  }

  std::unique_ptr<obs::JsonlWriter> telemetry_writer;
  std::unique_ptr<obs::EventLog> event_log;
  if (!opt.trace_out.empty()) {
    telemetry_writer = std::make_unique<obs::JsonlWriter>(opt.trace_out);
    if (!telemetry_writer->ok()) {
      std::fprintf(stderr, "error: cannot open --trace-out %s\n",
                   opt.trace_out.c_str());
      return 2;
    }
    event_log = std::make_unique<obs::EventLog>(*telemetry_writer);
    obs::set_event_log(event_log.get());
  }

  std::unique_ptr<net::ChaosEngine> chaos_engine;
  std::optional<net::ChaosScope> chaos_scope;
  if (!opt.chaos_spec.empty()) {
    chaos_engine = std::make_unique<net::ChaosEngine>(tools::flag_spec(
        "--chaos", opt.chaos_spec, net::parse_chaos_config));
    chaos_scope.emplace(*chaos_engine);
  }

  // --- capture + serial reference (once; every epoch replays it) ---------
  const signal::SampleBuffer capture =
      make_capture(opt.tags, opt.duration_ms * 1e-3, opt.seed);
  core::WindowedDecoderConfig wc;
  const core::DecodeResult reference =
      core::WindowedDecoder(wc).decode(capture);
  std::size_t reference_frames = 0;
  for (const auto& stream : reference.streams) {
    reference_frames += stream.frames.size();
  }
  if (reference_frames == 0) {
    std::fprintf(stderr, "error: soak capture decodes to no frames "
                         "(raise --tags / --duration-ms)\n");
    return 2;
  }
  std::fprintf(stderr,
               "soak: capture %.1f ms, %zu tags, %zu reference frames, "
               "%zu workers, chaos %s\n",
               opt.duration_ms, opt.tags, reference_frames, opt.workers,
               opt.chaos_spec.empty() ? "off" : opt.chaos_spec.c_str());

  // --- overload drill: its own topology and epoch loop --------------------
  if (opt.overload) {
    std::fprintf(stderr,
                 "soak: overload drill — %zu-dial storm, %zu slow consumers, "
                 "%zu admitted, %zu-frame queues\n",
                 opt.storm, opt.slow_consumers, opt.admitted,
                 kOverloadQueueFrames);
    install_shutdown_handlers();
    using runtime::HealthState;
    HealthLadder health(opt);
    std::size_t completed = 0, attempts = 0, consecutive = 0;
    std::size_t denies_total = 0, drops_total = 0;
    std::size_t peak_bytes_max = 0, bound_bytes = 0;
    bool interrupted = false;
    while (completed < opt.epochs) {
      if (shutdown_flag().load()) {
        interrupted = true;
        break;
      }
      ++attempts;
      const OverloadOutcome outcome =
          run_overload_attempt(capture, wc, opt);
      denies_total += outcome.storm_denied;
      drops_total += outcome.server.queue_drops;
      peak_bytes_max =
          std::max(peak_bytes_max, outcome.server.queue_bytes_peak);
      bound_bytes = std::max(bound_bytes, outcome.queue_bytes_bound);
      if (outcome.ok && outcome.published != reference_frames) {
        health.raise(HealthState::kFailed,
                     "overloaded gateway published " +
                         std::to_string(outcome.published) +
                         " frames, serial reference has " +
                         std::to_string(reference_frames));
        break;
      }
      if (outcome.ok) {
        ++completed;
        consecutive = 0;
        health.epoch_completed();
        if (opt.report_every > 0 && completed % opt.report_every == 0) {
          std::fprintf(
              stderr,
              "soak: %zu/%zu overload epochs, %zu denies, %zu drops, "
              "rss %.1f MB\n",
              completed, opt.epochs, denies_total, drops_total,
              rss_bytes() / 1048576.0);
        }
      } else {
        ++consecutive;
        health.raise(HealthState::kDegraded,
                     "overload attempt " + std::to_string(attempts) +
                         " failed: " + outcome.error);
        if (consecutive > opt.max_consecutive_failures) {
          health.raise(HealthState::kFailed,
                       std::to_string(consecutive) +
                           " consecutive failed attempts");
          break;
        }
      }
    }

    const std::size_t rss_final = health.check_rss();
    health.check_all_ran(completed, interrupted);
    std::fprintf(
        stderr,
        "soak: %zu/%zu overload epochs over %zu attempts — %zu typed "
        "denies, %zu drops, peak queue bytes %.1f KiB (bound %.1f KiB), "
        "rss %.1f -> %.1f MB, health %s\n",
        completed, opt.epochs, attempts, denies_total, drops_total,
        peak_bytes_max / 1024.0, bound_bytes / 1024.0,
        health.rss_baseline() / 1048576.0, rss_final / 1048576.0,
        runtime::to_string(health.state()));
    if (telemetry_writer) telemetry_writer->flush();
    obs::set_event_log(nullptr);
    return health.exit_code();
  }

  // --- persistent worker pool (threads; sessions come and go) ------------
  std::atomic<bool> pool_stop{false};
  std::vector<std::unique_ptr<net::federation::ShardWorker>> workers;
  std::vector<std::thread> worker_threads;
  std::vector<net::federation::ShardWorkerEndpoint> pool;
  for (std::size_t i = 0; i < opt.workers; ++i) {
    workers.push_back(std::make_unique<net::federation::ShardWorker>(
        net::federation::ShardWorkerConfig{
            "127.0.0.1", 0, "soak-worker-" + std::to_string(i)}));
    pool.push_back({"127.0.0.1", workers.back()->port()});
  }
  for (auto& worker : workers) {
    worker_threads.emplace_back([&pool_stop, &worker] {
      while (!pool_stop.load(std::memory_order_relaxed)) {
        try {
          worker->serve();  // one coordinator session (or a chaos casualty)
        } catch (const std::exception&) {
          // A chaos'd coordinator link can die mid-session; the worker is
          // stateless, so just go back to accepting.
        }
      }
    });
  }

  install_shutdown_handlers();

  // --- the epoch loop ----------------------------------------------------
  using runtime::HealthState;
  HealthLadder health(opt);
  std::size_t completed = 0, attempts = 0, failures = 0, consecutive = 0;
  std::size_t delivered_total = 0, duplicates_total = 0;
  std::size_t workers_lost_total = 0, reassigned_total = 0;
  bool interrupted = false;
  while (completed < opt.epochs) {
    if (shutdown_flag().load()) {
      interrupted = true;
      break;
    }
    const std::uint64_t epoch_index = attempts++;  // monotonic per attempt
    const AttemptOutcome outcome =
        run_attempt(capture, wc, pool, epoch_index, opt);
    delivered_total += outcome.delivered;
    duplicates_total += outcome.duplicates;
    workers_lost_total += outcome.workers_lost;
    reassigned_total += outcome.windows_reassigned;
    if (outcome.ok && outcome.published != reference_frames) {
      // Sharded + relayed output must stay pinned to the serial reference.
      health.raise(HealthState::kFailed,
                   "epoch " + std::to_string(epoch_index) + " published " +
                       std::to_string(outcome.published) + " frames, serial "
                       "reference has " + std::to_string(reference_frames));
      break;
    }
    if (outcome.ok) {
      ++completed;
      consecutive = 0;
      health.epoch_completed();
      if (opt.report_every > 0 && completed % opt.report_every == 0) {
        std::fprintf(stderr,
                     "soak: %zu/%zu epochs, %zu attempts, %zu dup replays, "
                     "%zu workers lost, %zu windows reassigned, rss %.1f MB\n",
                     completed, opt.epochs, attempts, duplicates_total,
                     workers_lost_total, reassigned_total,
                     rss_bytes() / 1048576.0);
      }
    } else {
      ++failures;
      ++consecutive;
      health.raise(HealthState::kDegraded,
                   "attempt " + std::to_string(epoch_index) + " failed: " +
                       outcome.error);
      if (consecutive > opt.max_consecutive_failures) {
        health.raise(HealthState::kFailed,
                     std::to_string(consecutive) +
                         " consecutive failed attempts");
        break;
      }
    }
  }

  pool_stop.store(true);
  for (auto& worker : workers) worker->stop();
  for (auto& thread : worker_threads) thread.join();

  // --- final assertions + summary ----------------------------------------
  const std::size_t rss_final = health.check_rss();
  if (opt.chaos_spec.empty() && duplicates_total > 0) {
    // Without chaos nothing reconnects, so nothing may ever replay.
    health.raise(HealthState::kFailed,
                 std::to_string(duplicates_total) +
                     " duplicate deliveries on a fault-free run");
  }
  health.check_all_ran(completed, interrupted);

  std::fprintf(stderr,
               "soak: %zu/%zu epochs over %zu attempts (%zu failed), "
               "%zu frames delivered exactly-once, %zu dup replays healed, "
               "%zu workers lost, %zu windows reassigned, "
               "rss %.1f -> %.1f MB, health %s\n",
               completed, opt.epochs, attempts, failures, delivered_total,
               duplicates_total, workers_lost_total, reassigned_total,
               health.rss_baseline() / 1048576.0, rss_final / 1048576.0,
               runtime::to_string(health.state()));
  if (chaos_engine) {
    const net::ChaosStats cs = chaos_engine->stats();
    std::fprintf(stderr,
                 "soak: chaos injected %llu faults (%llu refused, %llu "
                 "resets, %llu stalls, %llu partitions, %llu truncations, "
                 "%llu corruptions, %llu delays) across %llu sockets\n",
                 static_cast<unsigned long long>(cs.faults()),
                 static_cast<unsigned long long>(cs.connects_refused),
                 static_cast<unsigned long long>(cs.resets),
                 static_cast<unsigned long long>(cs.stalls),
                 static_cast<unsigned long long>(cs.partitions),
                 static_cast<unsigned long long>(cs.truncations),
                 static_cast<unsigned long long>(cs.corruptions),
                 static_cast<unsigned long long>(cs.delays),
                 static_cast<unsigned long long>(cs.fds_tracked));
  }

  if (telemetry_writer) telemetry_writer->flush();
  obs::set_event_log(nullptr);
  return health.exit_code();
}
