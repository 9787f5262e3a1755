// Extension bench: the gateway's publish path, the one hot path perfbench
// does not measure (its workloads time decode and delivery, not what
// FrameServer::publish costs the thread that calls it).
//
// It measures, in thread-CPU time of the publishing thread:
//   - publish_kfps: FrameServer::publish rate on the default config;
//   - publish_control_overhead_pct: the control plane's FleetTracker bus
//     tap on vs off.
// Both come from 5 interleaved pairs: the rate is the best plain run, the
// overhead the minimum over the pairs. Decode speed is perfbench's job
// (perfbench/run.py); scripts/perf_gate.py gates both against the parent
// commit.
//
// Usage: bench_runtime_throughput [--json PATH]
//   --json writes the two numbers above as one JSON object.
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "control/fleet_tracker.h"
#include "net/frame_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/frame_bus.h"
#include "sim/table.h"

#include <algorithm>

using namespace lfbs;

namespace {

/// CPU seconds consumed by the calling thread. The publish-path contract
/// is about what FrameServer::publish costs the publishing thread, so the
/// measurement excludes scheduler noise by construction.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Publish rate (frames/sec) of FrameServer::publish with one subscribed
/// client that never reads. publish() runs on the caller (stitcher)
/// thread and never touches a socket; with the subscriber parked, the
/// event loop blocks in poll and the timed loop is exactly the path the
/// decode pipeline pays per frame: encode + bounded enqueue (steady-state:
/// each publish also drops the oldest queued frame).
double publish_rate_once(control::FleetTracker* tracker) {
  runtime::FrameEvent event;
  event.stream_start = 1234.5;
  event.rate = 100.0 * kKbps;
  event.frame.payload = std::vector<bool>(96, true);
  event.frame.anchor_ok = true;
  event.frame.crc_ok = true;

  {
    net::FrameServerConfig sc;
    sc.drain_timeout = 0.1;
    sc.send_buffer_bytes = 4096;  // park the event loop early
    net::FrameServer server(sc);
    // A raw subscriber that handshakes and then never reads.
    net::TcpConnection conn =
        net::TcpConnection::connect("127.0.0.1", server.port(), 5.0);
    std::vector<std::uint8_t> handshake;
    net::Hello hello;
    hello.role = net::PeerRole::kFrameSubscriber;
    hello.name = "parked";
    net::encode_hello(hello, handshake);
    net::encode_subscribe({}, handshake);
    std::size_t sent = 0;
    while (sent < handshake.size()) {
      const std::ptrdiff_t n = conn.write_some(handshake.data() + sent,
                                               handshake.size() - sent);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    server.wait_for_subscriber(5.0);

    constexpr std::size_t kFrames = 50000;
    const double t0 = thread_cpu_seconds();
    for (std::size_t i = 0; i < kFrames; ++i) {
      event.window_index = i;
      server.publish(event);
      // The serve-mode control plane's whole cost on this thread: one
      // FleetTracker fold per published frame (the gateway's bus tap).
      if (tracker != nullptr) tracker->observe_frame(event);
    }
    const double elapsed = thread_cpu_seconds() - t0;
    server.shutdown(/*drain=*/false);
    conn.close();
    return static_cast<double>(kFrames) / elapsed;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_runtime_throughput [--json PATH]\n");
      return 2;
    }
  }

  sim::print_banner(
      "Extension: gateway publish path",
      "FrameServer::publish rate and the cost of the control-plane tap",
      "one parked subscriber, 50000 frames per run, thread-CPU time of the "
      "publishing thread");

  // Control-plane sensing overhead: a serving gateway with --control taps
  // the frame bus and folds every published frame into the FleetTracker on
  // this same publishing thread; sensing must be nearly free, the
  // scheduling work happens off the publish path once the run drains.
  // Interleaved pairs: alternating the two configs inside one loop keeps
  // slow system phases (frequency scaling, a background task) from landing
  // entirely on one side of the comparison, and taking the minimum
  // per-pair ratio makes the estimate robust — a real regression (extra
  // work on every publish) shows up in every pair, one noisy rep does not.
  double plain_fps = 0.0, tapped_fps = 0.0;
  double overhead_pct = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const double plain = publish_rate_once(nullptr);
    control::FleetTracker tracker;
    const double tapped = publish_rate_once(&tracker);
    plain_fps = std::max(plain_fps, plain);
    tapped_fps = std::max(tapped_fps, tapped);
    overhead_pct = std::min(overhead_pct, (plain / tapped - 1.0) * 100.0);
  }
  std::printf(
      "publish path: %.0f kframes/s plain, %.0f kframes/s with the "
      "control-plane tracker tapping the bus (%.2f%% overhead)\n",
      plain_fps / 1e3, tapped_fps / 1e3, overhead_pct);
  const std::string json =
      "{\n  \"publish_kfps\": " + sim::fmt(plain_fps / 1e3, 1) +
      ",\n  \"publish_control_overhead_pct\": " +
      sim::fmt(overhead_pct, 2) + "\n}\n";

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
