// lfbs_decode: decode an LFBSIQ1 capture file and print what was heard.
//
// Usage:
//   lfbs_decode <capture.lfbsiq> [--crc5] [--payload N] [--max-rate KBPS]
//               [--windowed MS] [--workers N] [--edge-only] [--no-fallback]
//               [--min-confidence X] [--resample MSPS] [--inject-faults SPEC]
//               [--trace-out PATH] [--trace-chrome PATH] [--metrics-out PATH]
//               [--stats-interval SEC] [--stats-json PATH]
//
// --workers N streams the file through the concurrent decode runtime
// (src/runtime) with N window workers instead of the serial decoder; the
// frames are identical, and a stats line reports the pipeline's throughput.
// (--workers with --resample falls back to an in-memory source, since
// resampling needs the whole capture first.)
//
// --inject-faults SPEC runs a fault drill on the streaming path: the
// capture replays through a deterministic FaultInjectingSource (e.g.
// "seed=7,drop=0.05,corrupt=0.01,error=0.01") and the health / fault
// stats report how the pipeline degraded. Implies --workers 1 when no
// worker count was given; incompatible with --resample.
//
// --min-confidence X hides streams whose composite decode confidence
// (edge SNR + Viterbi margin + cluster separation, in [0,1]) falls below
// X; their frames do not count toward the exit status.
//
// Observability (see README "Observability"):
//   --trace-out PATH      JSONL telemetry: stage spans, frame events,
//                         health transitions ("-" = stdout)
//   --trace-chrome PATH   Chrome trace-event JSON (chrome://tracing); holds
//                         the most recent spans up to the tracer's ring
//   --metrics-out PATH    Prometheus text exposition of the run's metrics
//   --stats-interval SEC  periodic stats line on stderr + snapshot events
//   --stats-json PATH     one final JSON document: decode diagnostics,
//                         runtime stats + fault counters
//
// Exit status: 0 when at least one CRC-valid frame was decoded (from a
// stream above the confidence floor); 1 when the decode ran but produced
// no such frame; 2 on a usage error or a malformed/unreadable capture
// (one-line diagnostic).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "cli_flags.h"
#include "common/check.h"
#include "common/shutdown.h"
#include "core/windowed_decoder.h"
#include "dsp/resample.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/fault_injector.h"
#include "runtime/runtime.h"
#include "signal/iq_io.h"
#include "sim/table.h"

using namespace lfbs;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: lfbs_decode <capture.lfbsiq> [--crc5] [--payload N] "
               "[--max-rate KBPS] [--windowed MS] [--workers N] "
               "[--edge-only] [--no-fallback] [--min-confidence X] "
               "[--resample MSPS] [--inject-faults SPEC]\n"
               "               [--trace-out PATH] [--trace-chrome PATH] "
               "[--metrics-out PATH] [--stats-interval SEC] "
               "[--stats-json PATH]\n"
               "exit status: 0 = at least one CRC-valid frame (above the "
               "--min-confidence floor)\n"
               "             1 = decode ran, no such frame\n"
               "             2 = usage error or malformed capture\n");
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Writes the --stats-json document: decode diagnostics, and the runtime's
/// stats and fault counters (streaming path only). Schema documented in
/// README ("Observability").
bool write_stats_json(const std::string& path, const std::string& capture,
                      double sample_rate, std::size_t sample_count,
                      const core::DecodeResult& result,
                      const std::optional<runtime::RuntimeStats>& stats) {
  std::ofstream os(path);
  if (!os.is_open()) return false;

  const std::size_t attempted = result.frames_attempted();
  const std::size_t failed = result.frames_failed();
  os << "{\n  \"capture\": {\"path\": \"" << obs::json_escape(capture)
     << "\", \"samples\": " << sample_count
     << ", \"sample_rate\": " << num(sample_rate) << "},\n";
  os << "  \"decode\": {\"streams\": " << result.streams.size()
     << ", \"frames_valid\": " << (attempted - failed)
     << ", \"frames_failed\": " << failed
     << ", \"edges\": " << result.diagnostics.edges
     << ", \"groups\": " << result.diagnostics.groups
     << ", \"collision_groups\": " << result.diagnostics.collision_groups
     << ", \"unresolved_groups\": " << result.diagnostics.unresolved_groups
     << ", \"erasures\": " << result.diagnostics.erasures
     << ", \"fallback_passes\": " << result.diagnostics.fallback_passes
     << ", \"fallback_recoveries\": "
     << result.diagnostics.fallback_recoveries << "}";

  if (stats.has_value()) {
    const runtime::RuntimeStats& s = *stats;
    const runtime::FaultCounters& f = s.faults;
    os << ",\n  \"runtime\": {\"health\": \"" << runtime::to_string(s.health)
       << "\", \"wall_seconds\": " << num(s.wall_seconds)
       << ", \"effective_msps\": " << num(s.effective_msps())
       << ", \"windows_decoded\": " << s.windows_decoded
       << ", \"frames_published\": " << s.frames_published
       << ", \"window_latency_ms\": {\"p50\": "
       << num(s.window_latency_p50_ms)
       << ", \"p90\": " << num(s.window_latency_p90_ms)
       << ", \"p99\": " << num(s.window_latency_p99_ms)
       << ", \"max\": " << num(s.window_latency_max_ms) << "}"
       << ", \"samples_gap\": " << s.samples_gap
       << ", \"ring_high_watermark\": " << s.ring_high_watermark
       << ", \"mean_confidence\": " << num(s.mean_confidence)
       << ", \"degraded_streams\": " << s.degraded_streams
       << ",\n    \"faults\": {\"source_transient_errors\": "
       << f.source_transient_errors
       << ", \"source_retries\": " << f.source_retries
       << ", \"source_failures\": " << f.source_failures
       << ", \"worker_exceptions\": " << f.worker_exceptions
       << ", \"subscriber_exceptions\": " << f.subscriber_exceptions
       << ", \"samples_scrubbed\": " << f.samples_scrubbed
       << ", \"low_confidence_streams\": " << f.low_confidence_streams
       << "}}";
  }
  os << "\n}\n";
  return os.good();
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
  const std::string path = argv[1];
  core::DecoderConfig dc;
  double window_ms = 0.0;
  double min_confidence = 0.0;
  double resample_msps = 0.0;
  std::size_t workers = 0;
  runtime::FaultPlan fault_plan;
  bool inject_faults = false;
  std::string trace_out;
  std::string trace_chrome;
  std::string metrics_out;
  std::string stats_json;
  double stats_interval = 0.0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--crc5") {
      dc.frame.crc = protocol::CrcKind::kCrc5;
    } else if (arg == "--payload" && i + 1 < argc) {
      dc.frame.payload_bits = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--max-rate" && i + 1 < argc) {
      dc.max_rate = tools::flag_number(arg, argv[++i]) * kKbps;
      if (!dc.rate_plan.is_valid(dc.max_rate)) {
        dc.rate_plan.rates.push_back(dc.max_rate);
      }
    } else if (arg == "--windowed" && i + 1 < argc) {
      window_ms = tools::flag_number(arg, argv[++i]);
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = tools::flag_u64(arg, argv[++i]);
    } else if (arg == "--resample" && i + 1 < argc) {
      resample_msps = tools::flag_number(arg, argv[++i]);
    } else if (arg == "--inject-faults" && i + 1 < argc) {
      fault_plan = tools::flag_spec(arg, argv[++i], runtime::parse_fault_plan);
      inject_faults = true;
    } else if (arg == "--edge-only") {
      dc.collision_recovery = false;
      dc.error_correction = false;
    } else if (arg == "--no-fallback") {
      dc.robustness.fallback = false;
    } else if (arg == "--min-confidence" && i + 1 < argc) {
      min_confidence = tools::flag_number(arg, argv[++i]);
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--trace-chrome" && i + 1 < argc) {
      trace_chrome = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--stats-json" && i + 1 < argc) {
      stats_json = argv[++i];
    } else if (arg == "--stats-interval" && i + 1 < argc) {
      stats_interval = tools::flag_number(arg, argv[++i]);
    } else {
      usage();
      return 2;
    }
  }

  core::WindowedDecoderConfig wc;
  wc.decoder = dc;
  if (window_ms > 0.0) wc.window = window_ms * 1e-3;

  if (inject_faults && resample_msps > 0.0) {
    std::fprintf(stderr,
                 "error: --inject-faults needs the streaming path; drop "
                 "--resample\n");
    return 2;
  }
  if (inject_faults && workers == 0) workers = 1;

  // Telemetry wiring: a null tracer/event-log (no flags) keeps every
  // instrumented hot path at one pointer load and branch.
  std::unique_ptr<obs::JsonlWriter> telemetry_writer;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::EventLog> event_log;
  if (!trace_out.empty() || !trace_chrome.empty()) {
    tracer = std::make_unique<obs::Tracer>();
  }
  if (!trace_out.empty()) {
    telemetry_writer = std::make_unique<obs::JsonlWriter>(trace_out);
    if (!telemetry_writer->ok()) {
      std::fprintf(stderr, "error: cannot open --trace-out %s\n",
                   trace_out.c_str());
      return 2;
    }
    // Spans and structured events share the writer, so the JSONL file is
    // one interleaved, time-ordered telemetry stream.
    tracer->set_sink(telemetry_writer.get());
    event_log = std::make_unique<obs::EventLog>(*telemetry_writer);
    obs::set_event_log(event_log.get());
  }
  if (tracer) obs::set_tracer(tracer.get());

  std::unique_ptr<obs::SnapshotEmitter> emitter;
  if (stats_interval > 0.0) {
    emitter = std::make_unique<obs::SnapshotEmitter>(stats_interval, [&] {
      const obs::MetricsSnapshot snap = obs::metrics().snapshot();
      if (obs::EventLog* log = obs::event_log()) log->snapshot(snap);
      if (!metrics_out.empty()) obs::write_prometheus_file(snap, metrics_out);
      const std::uint64_t* windows = snap.counter("runtime.windows_decoded");
      const std::uint64_t* frames = snap.counter("bus.published");
      const std::uint64_t* passes = snap.counter("core.decode_passes");
      std::fprintf(stderr,
                   "stats: windows=%llu frames=%llu decode_passes=%llu\n",
                   static_cast<unsigned long long>(windows ? *windows : 0),
                   static_cast<unsigned long long>(frames ? *frames : 0),
                   static_cast<unsigned long long>(passes ? *passes : 0));
    });
  }

  core::DecodeResult result;
  std::optional<runtime::RuntimeStats> run_stats;
  double sample_rate = 0.0;
  std::size_t sample_count = 0;
  try {
    if (workers > 0 && resample_msps <= 0.0) {
      // Stream the file through the concurrent runtime: the capture is
      // never fully resident, and windows decode on `workers` threads.
      runtime::RuntimeConfig rc;
      rc.windowed = wc;
      rc.workers = workers;
      // Ctrl-C during a streaming decode stops ingest, drains the windows
      // already in flight, and still prints stats / writes --stats-json;
      // the process then exits 128+signal (130 for SIGINT).
      install_shutdown_handlers();
      rc.stop_flag = &shutdown_flag();
      runtime::IqFileSource file_source(path, 1 << 16);
      sample_rate = file_source.sample_rate();
      sample_count = file_source.total_samples();
      std::printf("%s: %zu samples at %.6g Msps (%.3f ms)\n", path.c_str(),
                  sample_count, sample_rate / 1e6,
                  static_cast<double>(sample_count) / sample_rate * 1e3);
      if (file_source.truncated()) {
        std::fprintf(stderr,
                     "warning: truncated capture — header declares %llu "
                     "samples, file holds %llu; decoding what exists\n",
                     static_cast<unsigned long long>(
                         file_source.declared_samples()),
                     static_cast<unsigned long long>(
                         file_source.total_samples()));
      }
      runtime::FaultInjectingSource faulty(file_source, fault_plan);
      runtime::SampleSource& source =
          inject_faults ? static_cast<runtime::SampleSource&>(faulty)
                        : file_source;
      runtime::DecodeRuntime rt(rc);
      auto run = rt.run(source);
      result = std::move(run.decode);
      run_stats = run.stats;
      std::printf(
          "runtime: %zu workers, %zu windows, %.2f effective Msps, "
          "window p50/p99 %.1f/%.1f ms, ring high-water %zu\n",
          workers, run.stats.windows_decoded, run.stats.effective_msps(),
          run.stats.window_latency_p50_ms, run.stats.window_latency_p99_ms,
          run.stats.ring_high_watermark);
      if (inject_faults) {
        const auto& in = faulty.injected();
        const auto& f = run.stats.faults;
        std::printf(
            "injected: drops=%zu truncated=%zu corrupted=%llu stalls=%zu "
            "errors=%zu early-eof=%zu\n",
            in.chunks_dropped, in.chunks_truncated,
            static_cast<unsigned long long>(in.samples_corrupted),
            in.stalls, in.errors_thrown, in.premature_eofs);
        std::printf(
            "health: %s (retries=%zu source-failures=%zu "
            "worker-exceptions=%zu scrubbed=%llu gap-samples=%llu)\n",
            runtime::to_string(run.stats.health), f.source_retries,
            f.source_failures, f.worker_exceptions,
            static_cast<unsigned long long>(f.samples_scrubbed),
            static_cast<unsigned long long>(run.stats.samples_gap));
      }
    } else {
      signal::SampleBuffer buffer = signal::load_iq(path);
      if (resample_msps > 0.0 &&
          std::abs(resample_msps * 1e6 - buffer.sample_rate()) > 1.0) {
        auto samples = dsp::resample_linear(
            buffer.span(), buffer.sample_rate(), resample_msps * 1e6);
        std::printf("resampled %.6g -> %.6g Msps\n",
                    buffer.sample_rate() / 1e6, resample_msps);
        buffer = signal::SampleBuffer(resample_msps * 1e6, std::move(samples));
      }
      sample_rate = buffer.sample_rate();
      sample_count = buffer.size();
      std::printf("%s: %zu samples at %.6g Msps (%.3f ms)\n", path.c_str(),
                  buffer.size(), buffer.sample_rate() / 1e6,
                  buffer.duration() * 1e3);
      if (workers > 0) {
        runtime::RuntimeConfig rc;
        rc.windowed = wc;
        rc.workers = workers;
        install_shutdown_handlers();
        rc.stop_flag = &shutdown_flag();
        runtime::DecodeRuntime rt(rc);
        auto run = rt.decode(buffer);
        result = std::move(run.decode);
        run_stats = run.stats;
        std::printf("runtime: %zu workers, %zu windows, %.2f effective "
                    "Msps\n",
                    workers, run.stats.windows_decoded,
                    run.stats.effective_msps());
      } else if (window_ms > 0.0) {
        result = core::WindowedDecoder(wc).decode(buffer);
      } else {
        result = core::LfDecoder(dc).decode(buffer);
      }
    }
  } catch (const signal::IqFormatError& e) {
    // Malformed / truncated capture: one line naming the defect, not a
    // backtrace.
    std::fprintf(stderr, "error: %s [%s]\n", e.what(),
                 signal::to_string(e.code()));
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // Telemetry finalization. Serial paths have no FrameBus, so their frame
  // events are emitted here — every frame appears in the JSONL stream on
  // either path.
  if (emitter) emitter->stop();  // fires one final snapshot tick
  if (obs::EventLog* log = obs::event_log();
      log != nullptr && !run_stats.has_value()) {
    for (std::size_t i = 0; i < result.streams.size(); ++i) {
      const auto& s = result.streams[i];
      for (const auto& f : s.frames) {
        log->emit(
            "frame",
            {obs::Field::integer("stream_index",
                                 static_cast<std::int64_t>(i)),
             obs::Field::num("stream_start", s.start_sample),
             obs::Field::num("rate", s.rate),
             obs::Field::flag("collided", s.collided),
             obs::Field::num("confidence", s.confidence.score()),
             obs::Field::integer(
                 "fallback_stage",
                 static_cast<std::int64_t>(s.confidence.stage)),
             obs::Field::flag("crc_ok", f.crc_ok),
             obs::Field::flag("anchor_ok", f.anchor_ok)});
      }
    }
  }
  if (tracer && !trace_chrome.empty()) {
    // Export before the final flush: with a JSONL sink attached the ring
    // only holds spans not yet auto-flushed.
    std::ofstream os(trace_chrome);
    if (os.is_open()) {
      tracer->export_chrome(os);
    } else {
      std::fprintf(stderr, "warning: cannot open --trace-chrome %s\n",
                   trace_chrome.c_str());
    }
  }
  if (tracer) tracer->flush();
  if (telemetry_writer) telemetry_writer->flush();
  if (!metrics_out.empty() &&
      !obs::write_prometheus_file(obs::metrics().snapshot(), metrics_out)) {
    std::fprintf(stderr, "warning: cannot open --metrics-out %s\n",
                 metrics_out.c_str());
  }
  if (!stats_json.empty() &&
      !write_stats_json(stats_json, path, sample_rate, sample_count, result,
                        run_stats)) {
    std::fprintf(stderr, "warning: cannot write --stats-json %s\n",
                 stats_json.c_str());
  }
  obs::set_tracer(nullptr);
  obs::set_event_log(nullptr);

  if (run_stats.has_value() && run_stats->stopped_early) {
    std::fprintf(stderr,
                 "interrupted: stopped ingest after %llu samples; decoded "
                 "everything in flight\n",
                 static_cast<unsigned long long>(run_stats->samples_in));
  }
  std::printf("edges=%zu groups=%zu collisions=%zu unresolved=%zu\n",
              result.diagnostics.edges, result.diagnostics.groups,
              result.diagnostics.collision_groups,
              result.diagnostics.unresolved_groups);
  if (result.diagnostics.fallback_passes > 0) {
    std::printf("fallback: %zu degraded passes, %zu streams recovered, "
                "%zu erasures\n",
                result.diagnostics.fallback_passes,
                result.diagnostics.fallback_recoveries,
                result.diagnostics.erasures);
  }

  sim::Table table({"stream", "start (us)", "rate", "SNR (dB)", "conf",
                    "stage", "collided", "bits", "frames ok/total",
                    "first payload (hex)"});
  std::size_t valid_total = 0;
  std::size_t hidden = 0;
  for (std::size_t i = 0; i < result.streams.size(); ++i) {
    const auto& s = result.streams[i];
    const double conf = s.confidence.score();
    if (conf < min_confidence) {
      ++hidden;
      continue;
    }
    std::size_t ok = 0;
    std::string first;
    for (const auto& f : s.frames) {
      if (f.valid()) {
        if (first.empty()) first = bits_hex(f.payload);
        ++ok;
      }
    }
    valid_total += ok;
    table.add_row({std::to_string(i),
                   sim::fmt(s.start_sample / sample_rate * 1e6, 1),
                   format_rate(s.rate), sim::fmt(s.snr_db, 1),
                   sim::fmt(conf, 2), core::to_string(s.confidence.stage),
                   s.collided ? "yes" : "no", std::to_string(s.bits.size()),
                   std::to_string(ok) + "/" + std::to_string(s.frames.size()),
                   first.empty() ? "-" : first});
  }
  table.print();
  if (hidden > 0) {
    std::printf("(%zu stream%s below --min-confidence %.2f hidden)\n", hidden,
                hidden == 1 ? "" : "s", min_confidence);
  }
  return shutdown_exit_code(valid_total > 0 ? 0 : 1);
}
