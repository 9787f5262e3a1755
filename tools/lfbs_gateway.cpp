// lfbs_gateway: network frame gateway — decode on one machine, consume on
// another. One binary, five roles:
//
// Serve (default): decode a source and fan the frames out over TCP (LFBW1)
//   lfbs_gateway <capture.lfbsiq> [--port N] [--port-file PATH] ...
//   lfbs_gateway --scenario [--tags N] [--epochs N] ...
//   lfbs_gateway --iq-listen [--iq-port N] [--iq-port-file PATH] ...
//     (--iq-listen decodes IQ pushed to it by a remote `--push` process)
//   Adding --shard HOST:PORT (repeatable) decodes via a pool of remote
//   shard workers instead of local threads — bit-identical output.
//
// Tail: subscribe to a serving gateway and print frames as they arrive
//   lfbs_gateway --connect HOST:PORT [--min-confidence X] [--crc-only]
//                [--quiet]
//
// Push: stream a capture file into a gateway running --iq-listen
//   lfbs_gateway --push HOST:PORT <capture.lfbsiq> [--f32]
//
// Relay: subscribe to upstream gateways, republish on an own frame port
//   lfbs_gateway --relay HOST:PORT [--relay HOST:PORT ...] --gateway-id N
//                [--hop-limit N] [serve options]
//   Loop-safe: own-origin frames, over-traveled frames (hop limit), and
//   identity duplicates are dropped, with counters for each.
//
// Shard worker: decode windows assigned by a --shard coordinator
//   lfbs_gateway --shard-worker [--port N] [--port-file PATH]
//
// Serve options:
//   --port N            frame port (default 0 = ephemeral, printed)
//   --port-file PATH    write the bound frame port to PATH (for scripts)
//   --wait-subscriber S wait up to S seconds for a subscriber before
//                       decoding starts (so a tail sees the whole stream)
//   --client-queue N    per-client queue bound, frames (default 256,
//                       N ≥ 1); at the bound a best-effort client loses
//                       its oldest queued frame, a priority client is
//                       evicted. N also bounds a client's unsent replies.
//   --send-buffer N     kernel send-buffer bytes per client (testing)
//   --workers N         decode worker threads (default 4)
//   --crc5 / --payload N / --windowed MS   decoder knobs (as lfbs_decode)
//   --trace-out PATH    JSONL telemetry incl. net.* events ("-" = stdout)
//
// Overload protection (serve/relay; see docs/DESIGN.md §4h), two limits
// that together cap queue memory at conns × (--client-queue + 1) frames
// plus the --replay ring:
//   --quota SPEC        the connection limit: conns=N (default 64, N ≥ 1)
//                       and retry-after=S (default 0.5). Dials past it get
//                       a typed Bye(admission-denied) with the hint.
//   --client-queue N    the per-client queue bound (above).
//   --priority          tail only: announce ClientClass::kPriority
//
// The server publishes a final stats message (frames_published et al.)
// before closing each subscriber with Bye(end-of-stream), so a tailing
// client can verify it missed nothing; --connect does that check and
// reports it.
//
// Exit status — serve: 0 at least one CRC-valid frame published, 1 none,
// 2 usage/IO error; 130/143 after SIGINT/SIGTERM (graceful drain first).
// Tail: 0 clean end-of-stream with complete delivery, 1 incomplete
// (evicted, frames missed, or server stopped early), 2 connection error.
// Push: 0 on a fully acknowledged stream, 3 when the receiver died
// mid-stream (after the handshake; counted under net.push_aborts),
// 2 on any other failure (bad dial, refused handshake, usage).
//
// Robustness knobs:
//   --replay N   serve/relay: keep the last N published frames (N at most
//                --client-queue) and replay them to subscribers that ask
//                (filter replay_recent) — the partition-recovery ring relay
//                links heal from
//   --chaos SPEC deterministic socket fault injection for this process
//                (key=value[,key=value...]; see docs/DESIGN.md §4g). Test
//                instrumentation only — faults are injected, not real.
//
// Fleet control plane (serve; see docs/DESIGN.md §4i):
//   --control SPEC       run an epoch-scheduling ControlLoop over the
//                        published frame stream (key=value[,key=value...]
//                        or the literal "on"): policy=greedy|static,
//                        seed=N, target-goodput=X, min-confidence=X,
//                        max-rate=X, budget=X, penalty=X, freeze=0|1.
//                        The loop steps once, after the run drains, over
//                        the capture's own duration, and broadcasts its
//                        plan as a kControlPlan; the plan is advisory
//                        (nothing is applied locally).
//   --control-get HOST:PORT   one-shot client: fetch and print a serving
//                        gateway's live control state/plan, then exit
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "common/rng.h"
#include "common/shutdown.h"
#include "control/control_loop.h"
#include "control/spec.h"
#include "net/chaos/chaos.h"
#include "net/federation/relay.h"
#include "net/federation/shard.h"
#include "net/federation/shard_worker.h"
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "net/iq_ingest.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runtime.h"
#include "sim/scenario.h"

using namespace lfbs;

namespace {

/// Largest TCP port; a --port of 0 asks for an ephemeral one.
constexpr std::uint64_t kMaxPort = 65535;

void usage() {
  std::fprintf(
      stderr,
      "usage: lfbs_gateway <capture.lfbsiq> [serve options]\n"
      "       lfbs_gateway --scenario [--tags N] [--epochs N] [serve "
      "options]\n"
      "       lfbs_gateway --iq-listen [--iq-port N] [--iq-port-file PATH] "
      "[serve options]\n"
      "       lfbs_gateway --connect HOST:PORT [--min-confidence X] "
      "[--crc-only] [--quiet]\n"
      "       lfbs_gateway --push HOST:PORT <capture.lfbsiq> [--f32]\n"
      "       lfbs_gateway --relay HOST:PORT [--relay HOST:PORT ...]\n"
      "                    --gateway-id N [--hop-limit N] [serve options]\n"
      "       lfbs_gateway --shard-worker [--port N] [--port-file PATH]\n"
      "serve options: [--port N] [--port-file PATH] [--wait-subscriber S]\n"
      "               [--client-queue N] [--send-buffer N] [--workers N]\n"
      "               [--crc5] [--payload N]\n"
      "               [--windowed MS] [--gateway-id N] [--shard HOST:PORT]\n"
      "               [--replay N] [--trace-out PATH] [--chaos SPEC]\n"
      "overload:      [--quota SPEC]\n"
      "               (tail: [--priority])\n"
      "control plane: [--control SPEC]   (client: --control-get HOST:PORT)\n");
}

bool split_host_port(const std::string& spec, std::string& host,
                     std::uint16_t& port) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos) return false;
  const auto p = tools::parse_u64(spec.substr(colon + 1), kMaxPort);
  if (!p || *p == 0) return false;
  host = spec.substr(0, colon);
  port = static_cast<std::uint16_t>(*p);
  return true;
}

std::string bits_hex(const std::vector<bool>& bits) {
  std::string out;
  for (std::size_t i = 0; i < bits.size(); i += 4) {
    unsigned nibble = 0;
    for (std::size_t b = 0; b < 4 && i + b < bits.size(); ++b) {
      nibble = (nibble << 1) | (bits[i + b] ? 1u : 0u);
    }
    out += "0123456789abcdef"[nibble & 0xF];
  }
  return out;
}

/// One control-plane state/plan, in the grep-friendly shape the smoke
/// scripts and a tailing operator both read.
void print_control_plan(const net::ControlPlanMsg& plan) {
  if (!plan.enabled) {
    std::printf("control: disabled\n");
    return;
  }
  std::printf(
      "control: epoch=%llu policy=%s%s tags=%zu predicted=%.6g b/s "
      "pressure=%.3f\n",
      static_cast<unsigned long long>(plan.epoch), plan.policy.c_str(),
      plan.frozen ? " (frozen)" : "", plan.assignments.size(),
      plan.predicted_goodput, plan.collision_pressure);
  for (const auto& a : plan.assignments) {
    std::printf("control: tag=%llu rate=%s predicted=%.6g b/s\n",
                static_cast<unsigned long long>(a.tag),
                format_rate(a.rate).c_str(), a.goodput);
  }
}

int run_control_get(const std::string& spec) {
  std::string host;
  std::uint16_t port = 0;
  if (!split_host_port(spec, host, port)) {
    std::fprintf(stderr, "error: --control-get wants HOST:PORT, got '%s'\n",
                 spec.c_str());
    return 2;
  }
  try {
    print_control_plan(net::fetch_control(host, port));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

int run_tail(const std::string& spec, double min_confidence, bool crc_only,
             bool quiet, bool priority) {
  net::FrameClientConfig cc;
  if (!split_host_port(spec, cc.host, cc.port)) {
    std::fprintf(stderr, "error: --connect wants HOST:PORT, got '%s'\n",
                 spec.c_str());
    return 2;
  }
  cc.name = "lfbs_gateway --connect";
  cc.filter.min_confidence = min_confidence;
  cc.filter.crc_valid_only = crc_only;
  if (priority) cc.client_class = net::ClientClass::kPriority;

  net::FrameClient client(cc);
  install_shutdown_handlers();
  std::optional<net::WireStats> final_stats;
  net::FrameClient::Callbacks callbacks;
  callbacks.on_frame = [&](const runtime::FrameEvent& event) {
    if (shutdown_flag().load()) client.stop();
    if (quiet) return;
    std::printf("frame: stream=%zu rate=%s conf=%.2f crc=%s payload=%s\n",
                event.stream_index, format_rate(event.rate).c_str(),
                event.confidence, event.frame.crc_ok ? "ok" : "BAD",
                bits_hex(event.frame.payload).c_str());
  };
  callbacks.on_stats = [&](const net::WireStats& stats) {
    final_stats = stats;
  };
  callbacks.on_control = [&](const net::ControlPlanMsg& plan) {
    if (!quiet) print_control_plan(plan);
  };

  net::Bye bye;
  try {
    bye = client.run(callbacks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const auto& counters = client.counters();
  std::fprintf(stderr, "tail: %zu frames, %zu reconnects, bye=%s\n",
               counters.frames_received, counters.reconnects,
               net::to_string(bye.reason));
  if (bye.reason != net::ByeReason::kEndOfStream) return 1;
  if (final_stats.has_value()) {
    // An unfiltered tail should have seen every published frame; a
    // filtered one cannot check completeness, only report.
    const bool filtered = min_confidence > 0.0 || crc_only;
    if (!filtered &&
        counters.frames_received != final_stats->frames_published) {
      std::fprintf(stderr,
                   "tail: INCOMPLETE — server published %llu frames, "
                   "received %zu\n",
                   static_cast<unsigned long long>(
                       final_stats->frames_published),
                   counters.frames_received);
      return 1;
    }
    if (final_stats->stopped_early) return 1;
  }
  return shutdown_exit_code(0);
}

int run_push(const std::string& spec, const std::string& capture, bool f64) {
  std::string host;
  std::uint16_t port = 0;
  if (!split_host_port(spec, host, port)) {
    std::fprintf(stderr, "error: --push wants HOST:PORT, got '%s'\n",
                 spec.c_str());
    return 2;
  }
  try {
    runtime::IqFileSource source(capture, 1 << 16);
    const std::uint64_t pushed = net::push_iq(host, port, source, f64);
    std::fprintf(stderr, "push: %llu samples at %.6g Msps (%s)\n",
                 static_cast<unsigned long long>(pushed),
                 source.sample_rate() / 1e6, f64 ? "f64" : "f32");
    return 0;
  } catch (const net::PushAborted& e) {
    // Typed: the receiver acknowledged the stream then died under it.
    // Scripts can tell this (3) from a dead/refusing receiver (2).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

/// Writes a bound port to `path` for scripts; no-op when `path` is empty.
/// False, with the error printed, when the file cannot be written.
bool write_port_file(const char* flag, const std::string& path,
                     std::uint16_t port) {
  if (path.empty()) return true;
  std::ofstream os(path);
  os << port << "\n";
  if (os.good()) return true;
  std::fprintf(stderr, "error: cannot write %s %s\n", flag, path.c_str());
  return false;
}

/// Calls `stop` when SIGINT/SIGTERM arrives, for as long as it lives.
class ShutdownWatcher {
 public:
  explicit ShutdownWatcher(std::function<void()> stop)
      : thread_([this, stop = std::move(stop)] {
          while (!done_.load() && !shutdown_flag().load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
          if (!done_.load()) stop();
        }) {}
  ~ShutdownWatcher() {
    done_.store(true);
    thread_.join();
  }
  ShutdownWatcher(const ShutdownWatcher&) = delete;
  ShutdownWatcher& operator=(const ShutdownWatcher&) = delete;

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  if (std::string(argv[1]) == "--help" || std::string(argv[1]) == "-h") {
    usage();
    return 0;
  }

  std::string capture;
  bool scenario_mode = false;
  bool iq_listen = false;
  std::string connect_spec;
  std::string push_spec;
  std::size_t tags = 8;
  std::size_t epochs = 4;
  std::uint16_t port = 0;
  std::uint16_t iq_port = 0;
  std::string port_file;
  std::string iq_port_file;
  double wait_subscriber = 0.0;
  std::size_t queue_frames = 256;
  std::size_t send_buffer = 0;
  std::size_t workers = 4;
  double window_ms = 0.0;
  double min_confidence = 0.0;
  bool crc_only = false;
  bool quiet = false;
  bool f64 = true;
  core::DecoderConfig dc;
  std::string trace_out;
  std::vector<std::string> relay_specs;
  std::vector<std::string> shard_specs;
  std::uint64_t gateway_id = 0;
  std::uint8_t hop_limit = 4;
  bool shard_worker_mode = false;
  std::size_t replay_frames = 0;
  std::string chaos_spec;
  std::string quota_spec;
  std::string control_spec;
  std::string control_get_spec;
  bool tail_priority = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scenario") {
      scenario_mode = true;
    } else if (arg == "--iq-listen") {
      iq_listen = true;
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_spec = argv[++i];
    } else if (arg == "--push" && i + 1 < argc) {
      push_spec = argv[++i];
    } else if (arg == "--tags" && i + 1 < argc) {
      tags = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--epochs" && i + 1 < argc) {
      epochs = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(
          tools::flag_u64(arg, argv[++i], kMaxPort));
    } else if (arg == "--iq-port" && i + 1 < argc) {
      iq_port = static_cast<std::uint16_t>(
          tools::flag_u64(arg, argv[++i], kMaxPort));
    } else if (arg == "--port-file" && i + 1 < argc) {
      port_file = argv[++i];
    } else if (arg == "--iq-port-file" && i + 1 < argc) {
      iq_port_file = argv[++i];
    } else if (arg == "--wait-subscriber" && i + 1 < argc) {
      wait_subscriber = tools::flag_number(arg, argv[++i]);
    } else if (arg == "--client-queue" && i + 1 < argc) {
      queue_frames = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--quota" && i + 1 < argc) {
      quota_spec = argv[++i];
    } else if (arg == "--control" && i + 1 < argc) {
      control_spec = argv[++i];
    } else if (arg == "--control-get" && i + 1 < argc) {
      control_get_spec = argv[++i];
    } else if (arg == "--priority") {
      tail_priority = true;
    } else if (arg == "--send-buffer" && i + 1 < argc) {
      send_buffer = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--crc5") {
      dc.frame.crc = protocol::CrcKind::kCrc5;
    } else if (arg == "--payload" && i + 1 < argc) {
      dc.frame.payload_bits = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--windowed" && i + 1 < argc) {
      window_ms = tools::flag_number(arg, argv[++i]);
    } else if (arg == "--min-confidence" && i + 1 < argc) {
      min_confidence = tools::flag_number(arg, argv[++i]);
    } else if (arg == "--crc-only") {
      crc_only = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--f32") {
      f64 = false;
    } else if (arg == "--relay" && i + 1 < argc) {
      relay_specs.push_back(argv[++i]);
    } else if (arg == "--shard" && i + 1 < argc) {
      shard_specs.push_back(argv[++i]);
    } else if (arg == "--gateway-id" && i + 1 < argc) {
      gateway_id = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--hop-limit" && i + 1 < argc) {
      hop_limit =
          static_cast<std::uint8_t>(tools::flag_u64(arg, argv[++i], 255));
    } else if (arg == "--shard-worker") {
      shard_worker_mode = true;
    } else if (arg == "--replay" && i + 1 < argc) {
      replay_frames = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--chaos" && i + 1 < argc) {
      chaos_spec = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      capture = arg;
    } else {
      usage();
      return 2;
    }
  }
  if (queue_frames == 0) {
    // Every handshake queues an ack, so a zero bound would evict every
    // client before it subscribed.
    std::fprintf(stderr, "error: --client-queue wants an integer >= 1, "
                         "got '0'\n");
    return 2;
  }
  if (replay_frames > queue_frames) {
    std::fprintf(stderr, "error: --replay %zu exceeds --client-queue %zu\n",
                 replay_frames, queue_frames);
    return 2;
  }

  // Every spec is parsed up front, so a malformed one is a typed usage
  // error (exit 2, clause named) before anything binds.
  net::AdmissionConfig admission;
  if (!quota_spec.empty()) {
    admission = tools::flag_spec("--quota", quota_spec, net::parse_quota_spec);
  }
  std::optional<control::ControlLoopConfig> control_cfg;
  if (!control_spec.empty()) {
    control_cfg = tools::flag_spec("--control", control_spec,
                                   control::parse_control_spec);
  }
  // Serve and relay mode run the same frame server.
  const auto server_config = [&] {
    net::FrameServerConfig sc;
    sc.port = port;
    sc.send_queue_messages = queue_frames;
    sc.send_buffer_bytes = send_buffer;
    sc.origin_id = gateway_id;
    sc.replay_frames = replay_frames;
    sc.admission = admission;
    return sc;
  };

  // Chaos install covers every role — tail, push, relay, serve, worker —
  // so soak scripts can point the same --chaos spec at any process.
  std::unique_ptr<net::ChaosEngine> chaos_engine;
  std::optional<net::ChaosScope> chaos_scope;
  if (!chaos_spec.empty()) {
    chaos_engine = std::make_unique<net::ChaosEngine>(
        tools::flag_spec("--chaos", chaos_spec, net::parse_chaos_config));
    chaos_scope.emplace(*chaos_engine);
  }

  // Telemetry likewise: every role can --trace-out its net.* / chaos
  // events (the soak scripts read the pusher's abort event from here).
  std::unique_ptr<obs::JsonlWriter> telemetry_writer;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::EventLog> event_log;
  if (!trace_out.empty()) {
    telemetry_writer = std::make_unique<obs::JsonlWriter>(trace_out);
    if (!telemetry_writer->ok()) {
      std::fprintf(stderr, "error: cannot open --trace-out %s\n",
                   trace_out.c_str());
      return 2;
    }
    tracer = std::make_unique<obs::Tracer>();
    tracer->set_sink(telemetry_writer.get());
    obs::set_tracer(tracer.get());
    event_log = std::make_unique<obs::EventLog>(*telemetry_writer);
    obs::set_event_log(event_log.get());
  }
  const auto flush_telemetry = [&] {
    if (tracer) tracer->flush();
    if (telemetry_writer) telemetry_writer->flush();
    obs::set_tracer(nullptr);
    obs::set_event_log(nullptr);
  };

  // --- client roles: tail / push / control probe --------------------------
  if (!connect_spec.empty() || !push_spec.empty() ||
      !control_get_spec.empty()) {
    int code;
    if (!control_get_spec.empty()) {
      code = run_control_get(control_get_spec);
    } else if (!connect_spec.empty()) {
      code = run_tail(connect_spec, min_confidence, crc_only, quiet,
                      tail_priority);
    } else if (capture.empty()) {
      std::fprintf(stderr, "error: --push needs a capture file\n");
      code = 2;
    } else {
      code = run_push(push_spec, capture, f64);
    }
    flush_telemetry();
    return code;
  }
  const int source_modes = (capture.empty() ? 0 : 1) +
                           (scenario_mode ? 1 : 0) + (iq_listen ? 1 : 0);
  if (!shard_worker_mode && relay_specs.empty() && source_modes != 1) {
    usage();
    return 2;
  }

  // --- shard worker: one coordinator session, then exit ------------------
  if (shard_worker_mode) {
    try {
      net::federation::ShardWorkerConfig wc;
      wc.port = port;
      net::federation::ShardWorker worker(wc);
      std::fprintf(stderr, "gateway: shard worker on port %u\n",
                   worker.port());
      if (!write_port_file("--port-file", port_file, worker.port())) return 2;
      install_shutdown_handlers();
      const ShutdownWatcher watcher([&] { worker.stop(); });
      const std::size_t windows = worker.serve();
      std::fprintf(stderr, "gateway: shard worker decoded %zu windows\n",
                   windows);
      flush_telemetry();
      return shutdown_exit_code(0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      flush_telemetry();
      return 2;
    }
  }

  // --- serve / relay -------------------------------------------------------
  int exit_code = 2;

  // --- relay: republish upstream gateways on an own frame port ------------
  if (!relay_specs.empty()) {
    try {
      if (gateway_id == 0) {
        std::fprintf(stderr, "error: --relay requires --gateway-id N\n");
        return 2;
      }
      net::FrameServer server(server_config());
      std::fprintf(stderr, "gateway: relay %llu serving frames on port %u\n",
                   static_cast<unsigned long long>(gateway_id),
                   server.port());
      if (!write_port_file("--port-file", port_file, server.port())) return 2;

      net::federation::RelayConfig rc;
      rc.gateway_id = gateway_id;
      rc.hop_limit = hop_limit;
      rc.name = "lfbs_gateway --relay";
      rc.filter.min_confidence = min_confidence;
      rc.filter.crc_valid_only = crc_only;
      for (const auto& spec : relay_specs) {
        net::federation::RelayUpstream upstream;
        if (!split_host_port(spec, upstream.host, upstream.port)) {
          std::fprintf(stderr, "error: --relay wants HOST:PORT, got '%s'\n",
                       spec.c_str());
          return 2;
        }
        rc.upstreams.push_back(upstream);
      }
      net::federation::FrameRelay relay(rc, server);

      install_shutdown_handlers();
      const ShutdownWatcher watcher([&] { relay.stop(); });
      // Wait for a downstream tail BEFORE subscribing upstream: an
      // upstream holding its decode on --wait-subscriber releases it the
      // moment we connect, and those frames must not land on an empty
      // FrameServer.
      if (wait_subscriber > 0.0 &&
          !server.wait_for_subscriber(wait_subscriber)) {
        std::fprintf(stderr,
                     "gateway: no subscriber within %.1fs, relaying anyway\n",
                     wait_subscriber);
      }
      relay.start();
      const bool clean = relay.join();

      const auto counters = relay.counters();
      runtime::RuntimeStats stats;
      stats.frames_published = counters.relayed;
      server.publish_stats(stats);
      server.shutdown(/*drain=*/true);
      std::fprintf(stderr,
                   "gateway: relayed %zu frames (%zu dup, %zu loop, %zu hop "
                   "drops), %zu upstream ends, %zu failures\n",
                   counters.relayed, counters.dup_drops, counters.loop_drops,
                   counters.hop_drops, counters.upstream_ends,
                   counters.upstream_failures);
      exit_code = clean ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      exit_code = 2;
    }
    flush_telemetry();
    return shutdown_exit_code(exit_code);
  }

  try {
    runtime::RuntimeConfig rc;
    rc.windowed.decoder = dc;
    if (window_ms > 0.0) rc.windowed.window = window_ms * 1e-3;
    rc.workers = workers;
    rc.stop_flag = &shutdown_flag();

    // The scenario comes before the server: its decoder config carries the
    // rate plan the control loop plans over, and the loop must exist before
    // the server binds, because clients can send control-get/-set the
    // moment it does.
    Rng rng(2025);
    std::unique_ptr<sim::Scenario> scenario;
    if (scenario_mode) {
      sim::ScenarioConfig scenario_config;
      scenario_config.num_tags = tags;
      scenario = std::make_unique<sim::Scenario>(scenario_config, rng);
      rc.windowed.decoder = scenario->default_decoder();
    }
    std::optional<control::ControlLoop> control_loop;
    net::FrameServerConfig sc = server_config();
    if (control_cfg.has_value()) {
      control_loop.emplace(*control_cfg, rc.windowed.decoder.rate_plan);
      sc.control_get = [&control_loop] { return control_loop->wire_state(); };
      sc.control_set = [&control_loop](const net::ControlSet& set) {
        return control_loop->apply_control_set(set);
      };
    }
    net::FrameServer server(sc);
    std::fprintf(stderr, "gateway: serving frames on port %u\n",
                 server.port());
    if (!write_port_file("--port-file", port_file, server.port())) return 2;
    if (control_loop) {
      std::fprintf(stderr, "gateway: control plane on (policy=%s%s)\n",
                   control_loop->policy_name(),
                   control_loop->frozen() ? ", frozen" : "");
    }

    install_shutdown_handlers();
    // Build the source last: --iq-listen blocks here for a pusher.
    std::unique_ptr<runtime::SampleSource> source;
    if (!capture.empty()) {
      source = std::make_unique<runtime::IqFileSource>(capture, 1 << 16);
    } else if (scenario) {
      runtime::ScenarioSource::Config scfg;
      scfg.epochs = epochs;
      scfg.chunk_samples = 1 << 14;
      source = std::make_unique<runtime::ScenarioSource>(*scenario, rng, scfg);
    } else {
      net::IqIngestConfig ic;
      ic.port = iq_port;
      ic.stop_flag = &shutdown_flag();
      auto remote = std::make_unique<net::RemoteIqSource>(ic);
      std::fprintf(stderr, "gateway: listening for IQ on port %u\n",
                   remote->port());
      if (!write_port_file("--iq-port-file", iq_port_file, remote->port())) {
        return 2;
      }
      const std::optional<SampleRate> rate = remote->wait_for_pusher();
      if (!rate.has_value()) {
        std::fprintf(stderr,
                     "gateway: interrupted before a pusher connected\n");
        flush_telemetry();
        return shutdown_exit_code(1);
      }
      std::fprintf(stderr, "gateway: pusher connected at %.6g Msps\n",
                   *rate / 1e6);
      source = std::move(remote);
    }

    // One serve path: the runtime decodes on its worker threads, or on
    // remote worker processes when --shard names a pool; the sharded
    // result is bit-identical to the local one.
    std::optional<net::federation::ShardPool> shards;
    if (!shard_specs.empty()) {
      net::federation::ShardConfig shc;
      shc.name = "lfbs_gateway --shard";
      for (const auto& spec : shard_specs) {
        net::federation::ShardWorkerEndpoint endpoint;
        if (!split_host_port(spec, endpoint.host, endpoint.port)) {
          std::fprintf(stderr, "error: --shard wants HOST:PORT, got '%s'\n",
                       spec.c_str());
          return 2;
        }
        shc.workers.push_back(endpoint);
      }
      shards.emplace(std::move(shc));
    }
    runtime::DecodeRuntime rt(rc);
    server.attach(rt.bus());
    // Feed every published frame to the tracker. Frames are published only
    // once the stitch finishes, so the loop steps once, after the run
    // drains: it closes the run as one epoch lasting the capture's own
    // duration and broadcasts the plan before the stats digest, so a tail
    // always sees control → stats → bye.
    runtime::FrameBus::SubscriberId control_tap = 0;
    if (control_loop) {
      control_tap = rt.bus().subscribe([&](const runtime::FrameEvent& event) {
        control_loop->tracker().observe_frame(event);
      });
    }
    if (wait_subscriber > 0.0 &&
        !server.wait_for_subscriber(wait_subscriber)) {
      std::fprintf(stderr,
                   "gateway: no subscriber within %.1fs, serving anyway\n",
                   wait_subscriber);
    }
    const runtime::RuntimeResult run =
        shards ? rt.run(*source, *shards) : rt.run(*source);
    if (control_loop) {
      rt.bus().unsubscribe(control_tap);
      const Seconds captured =
          static_cast<double>(run.stats.samples_in + run.stats.samples_gap) /
          source->sample_rate();
      const control::EpochPlan plan =
          control_loop->step(rc.epoch_index, captured);
      server.publish_control(control_loop->wire_state());
      std::fprintf(stderr,
                   "gateway: control epoch=%llu policy=%s tags=%zu "
                   "predicted=%.6g b/s\n",
                   static_cast<unsigned long long>(plan.epoch),
                   plan.policy.c_str(), plan.assignments.size(),
                   plan.predicted_goodput_bps);
    }
    server.detach();
    const runtime::RuntimeStats& stats = run.stats;
    if (shards) {
      std::fprintf(stderr,
                   "gateway: sharded %zu windows over %zu workers "
                   "(p99 %.2f ms)\n",
                   stats.windows_decoded, shard_specs.size(),
                   stats.window_latency_p99_ms);
    }
    // Final digest first, then a drained Bye(end-of-stream): a tail can
    // check frames_received against frames_published from the stream.
    server.publish_stats(stats);
    server.shutdown(/*drain=*/true);

    const auto net_counters = server.counters();
    std::fprintf(
        stderr,
        "gateway: %zu frames published, %zu sent over %zu connections "
        "(%zu drops, %zu evictions), health %s%s\n",
        stats.frames_published, net_counters.frames_sent,
        net_counters.connects, net_counters.queue_drops,
        net_counters.evictions, runtime::to_string(stats.health),
        stats.stopped_early ? ", interrupted" : "");

    exit_code = run.decode.valid_frames() > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    exit_code = 2;
  }

  flush_telemetry();
  return shutdown_exit_code(exit_code);
}
