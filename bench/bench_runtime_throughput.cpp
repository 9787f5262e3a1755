// Extension bench: effective decode throughput of the concurrent runtime
// (src/runtime) versus worker count, against the serial WindowedDecoder
// baseline on the same capture.
//
// The paper's reader drinks 25 Msps continuously (§2); a deployment's
// decode pipeline has to keep its effective samples/sec above the ADC rate
// or fall behind without bound. Windows are independent until the stitch,
// so throughput should scale with workers until the serial stitch or the
// memory system saturates (on a single-core host the curve is flat — the
// interesting column is then bit-identical output at every width).
//
// Usage: bench_runtime_throughput [--json PATH] [--duration MS]
//   --json writes {"serial_msps": ..., "workers": {"1": ..., ...}} for
//   scripts/run_all.sh to archive as BENCH_runtime.json.
#include <chrono>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "channel/channel_model.h"
#include "control/fleet_tracker.h"
#include "core/windowed_decoder.h"
#include "net/frame_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/frame.h"
#include "reader/receiver.h"
#include "runtime/runtime.h"
#include "sim/table.h"
#include "tag/tag.h"

#include <algorithm>

using namespace lfbs;

namespace {

/// A long continuous multi-tag capture (the windowed decoder's habitat).
signal::SampleBuffer make_capture(std::size_t num_tags, Seconds duration) {
  Rng rng(424242);
  reader::ReceiverConfig rc;
  rc.sample_rate = 5.0 * kMsps;
  rc.noise_power = 1e-5;
  channel::ChannelModel ch;
  std::vector<tag::Tag> tags;
  protocol::FrameConfig fc;
  for (std::size_t i = 0; i < num_tags; ++i) {
    ch.add_tag(std::polar(rng.uniform(0.08, 0.2), rng.uniform(0.0, 6.2831)));
    tag::TagConfig tc;
    tc.clock.drift_ppm = 150.0;
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

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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
/// decode pipeline pays per frame: encode + quota check + bounded enqueue
/// (steady-state: each publish also drops the oldest queued frame).
double publish_rate_once(bool admission,
                         control::FleetTracker* tracker = nullptr) {
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
    if (admission) {
      sc.admission.enabled = true;
      sc.admission.max_connections = 8;
      // Generous quotas: the admission machinery runs on every publish
      // but never sheds by quota — this isolates its bookkeeping cost.
      sc.admission.best_effort.max_frames_per_sec = 1e12;
      sc.admission.best_effort.max_queue_bytes = std::size_t{1} << 30;
    }
    net::FrameServer server(sc);
    // A raw subscriber that handshakes and then never reads.
    net::TcpConnection conn =
        net::TcpConnection::connect("127.0.0.1", server.port(), 5.0);
    std::vector<std::uint8_t> handshake;
    net::Hello hello;
    hello.role = net::PeerRole::kFrameSubscriber;
    hello.name = admission ? "admitted" : "plain";
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
  double duration_ms = 160.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--duration" && i + 1 < argc) {
      duration_ms = atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_runtime_throughput [--json PATH] "
                   "[--duration MS]\n");
      return 2;
    }
  }

  sim::print_banner(
      "Extension: streaming runtime throughput",
      "effective decode samples/sec vs window-worker count",
      "3 tags at 100 kbps, 5 Msps, windowed at 20 ms; serial baseline is "
      "core::WindowedDecoder::decode on the same capture");

  const auto capture = make_capture(3, duration_ms * 1e-3);
  std::printf("capture: %zu samples (%.0f ms at %.1f Msps)\n\n",
              capture.size(), duration_ms, capture.sample_rate() / 1e6);

  core::WindowedDecoderConfig wc;

  // Serial baseline (best of 2 to shed first-touch noise).
  double serial_seconds = 1e30;
  core::DecodeResult serial;
  for (int rep = 0; rep < 2; ++rep) {
    const double t0 = now_seconds();
    serial = core::WindowedDecoder(wc).decode(capture);
    serial_seconds = std::min(serial_seconds, now_seconds() - t0);
  }
  const double serial_msps =
      static_cast<double>(capture.size()) / serial_seconds / 1e6;

  sim::Table table({"pipeline", "workers", "wall (ms)", "effective Msps",
                    "speedup", "streams", "identical to serial"});
  table.add_row({"serial", "-", sim::fmt(serial_seconds * 1e3, 1),
                 sim::fmt(serial_msps, 2), "1.00x",
                 std::to_string(serial.streams.size()), "-"});

  std::string json = "{\n  \"serial_msps\": " + sim::fmt(serial_msps, 3) +
                     ",\n  \"workers\": {";
  bool first = true;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    runtime::RuntimeConfig rc;
    rc.windowed = wc;
    rc.workers = workers;
    double best = 1e30;
    runtime::RuntimeResult run;
    for (int rep = 0; rep < 2; ++rep) {
      runtime::DecodeRuntime rt(rc);
      run = rt.decode(capture);
      best = std::min(best, run.stats.wall_seconds);
    }
    const double msps = static_cast<double>(capture.size()) / best / 1e6;
    bool identical = run.decode.streams.size() == serial.streams.size();
    for (std::size_t i = 0; identical && i < serial.streams.size(); ++i) {
      identical = run.decode.streams[i].bits == serial.streams[i].bits;
    }
    table.add_row({"runtime", std::to_string(workers),
                   sim::fmt(best * 1e3, 1), sim::fmt(msps, 2),
                   sim::fmt(msps / serial_msps, 2) + "x",
                   std::to_string(run.decode.streams.size()),
                   identical ? "yes" : "NO"});
    json += std::string(first ? "" : ",") + "\n    \"" +
            std::to_string(workers) + "\": " + sim::fmt(msps, 3);
    first = false;
    if (!identical) {
      table.print();
      std::fprintf(stderr,
                   "FAIL: runtime at %zu workers diverged from serial\n",
                   workers);
      return 1;
    }
  }
  json += "\n  }";
  table.print();
  std::printf(
      "\nnote: speedup tracks available cores; a single-core host shows "
      "~1x while the paper's 25 Msps budget needs the multi-core curve.\n");

  // Telemetry overhead: the same decode with the tracer attached (bounded
  // ring, no sink). Metrics are always on, so the baseline above already
  // pays for them; the span machinery must cost no more than a couple of
  // percent, and the traced output must stay bit-identical to serial.
  {
    runtime::RuntimeConfig rc;
    rc.windowed = wc;
    rc.workers = 2;
    double plain = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      runtime::DecodeRuntime rt(rc);
      plain = std::min(plain, rt.decode(capture).stats.wall_seconds);
    }
    obs::Tracer tracer;
    obs::set_tracer(&tracer);
    double traced = 1e30;
    runtime::RuntimeResult traced_run;
    for (int rep = 0; rep < 3; ++rep) {
      runtime::DecodeRuntime rt(rc);
      traced_run = rt.decode(capture);
      traced = std::min(traced, traced_run.stats.wall_seconds);
    }
    obs::set_tracer(nullptr);
    const double overhead_pct = (traced - plain) / plain * 100.0;
    bool identical =
        traced_run.decode.streams.size() == serial.streams.size();
    for (std::size_t i = 0; identical && i < serial.streams.size(); ++i) {
      identical = traced_run.decode.streams[i].bits == serial.streams[i].bits;
    }
    std::printf(
        "tracer overhead at 2 workers: %.1f%% (%zu spans, %zu dropped), "
        "traced output %s serial\n",
        overhead_pct, tracer.recorded(), tracer.dropped(),
        identical ? "identical to" : "DIVERGED from");
    // Per-window latency distribution off the shared registry histogram —
    // the same obs::Histogram the runtime's percentile summary uses.
    const obs::MetricsSnapshot snap = obs::metrics().snapshot();
    if (const obs::Histogram* h =
            snap.histogram("runtime.window_latency_ms")) {
      std::printf(
          "window latency (all runs): %llu windows, p50 %.1f ms, p99 %.1f "
          "ms\n",
          static_cast<unsigned long long>(h->count()), h->percentile(0.50),
          h->percentile(0.99));
      // The regression gate (scripts/check_bench_regression.sh) compares
      // these against the committed BENCH_summary.json baseline.
      json += ",\n  \"window_latency_p50_ms\": " +
              sim::fmt(h->percentile(0.50), 3) +
              ",\n  \"window_latency_p99_ms\": " +
              sim::fmt(h->percentile(0.99), 3);
    }
    json += ",\n  \"tracer_overhead_pct\": " + sim::fmt(overhead_pct, 2) +
            ",\n  \"tracer_spans\": " + std::to_string(tracer.recorded());
    if (!identical) {
      std::fprintf(stderr, "FAIL: traced runtime diverged from serial\n");
      return 1;
    }
  }
  // Publish-path admission overhead: the gateway's overload protection
  // (per-class token bucket, quota bookkeeping, budget hooks) rides on
  // every FrameServer::publish — it must cost the publishing thread almost
  // nothing when nothing is being shed. Clamped at 0 because the gate's
  // extractor reads non-negative numbers, and a negative overhead is just
  // measurement noise anyway.
  {
    // Interleaved pairs: alternating the two configs inside one loop
    // keeps slow system phases (frequency scaling, a background task)
    // from landing entirely on one side of the comparison, and taking
    // the minimum per-pair ratio makes the estimate robust — a real
    // regression (extra work on every publish) shows up in every pair,
    // one noisy rep does not.
    double plain_fps = 0.0, admitted_fps = 0.0;
    double overhead_pct = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
      const double plain = publish_rate_once(false);
      const double admitted = publish_rate_once(true);
      plain_fps = std::max(plain_fps, plain);
      admitted_fps = std::max(admitted_fps, admitted);
      overhead_pct = std::min(overhead_pct, (plain / admitted - 1.0) * 100.0);
    }
    overhead_pct = std::max(0.0, overhead_pct);
    std::printf(
        "publish path: %.0f kframes/s plain, %.0f kframes/s with admission "
        "on (%.2f%% overhead)\n",
        plain_fps / 1e3, admitted_fps / 1e3, overhead_pct);
    json += ",\n  \"publish_kfps\": " + sim::fmt(admitted_fps / 1e3, 1) +
            ",\n  \"publish_admission_overhead_pct\": " +
            sim::fmt(overhead_pct, 2);
  }
  // Control-plane sensing overhead: a serving gateway with --control taps
  // the frame bus and folds every published frame into the FleetTracker on
  // this same publishing thread. Same interleaved-pairs / min-over-pairs
  // methodology as the admission stanza; the regression gate caps the
  // result absolutely (≤2%) — sensing must be nearly free, the scheduling
  // work happens off the publish path at epoch boundaries.
  {
    double tapped_fps = 0.0;
    double overhead_pct = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
      const double plain = publish_rate_once(false);
      control::FleetTracker tracker;
      const double tapped = publish_rate_once(false, &tracker);
      tapped_fps = std::max(tapped_fps, tapped);
      overhead_pct = std::min(overhead_pct, (plain / tapped - 1.0) * 100.0);
    }
    overhead_pct = std::max(0.0, overhead_pct);
    std::printf(
        "publish path: %.0f kframes/s with the control-plane tracker "
        "tapping the bus (%.2f%% overhead)\n",
        tapped_fps / 1e3, overhead_pct);
    json += ",\n  \"publish_control_overhead_pct\": " +
            sim::fmt(overhead_pct, 2);
  }
  json += "\n}\n";

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
