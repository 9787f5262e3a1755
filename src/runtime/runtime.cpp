#include "runtime/runtime.h"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/chunk.h"
#include "runtime/ring_buffer.h"

namespace lfbs::runtime {

namespace {

/// Streams whose composite decode confidence lands below this floor (or
/// that needed a degraded fallback stage) are reported to the supervisor
/// and degrade run health — the channel, not the software, is the fault,
/// but the operator should see it in the same place.
constexpr double kConfidenceFloor = 0.2;

/// Handoff from the executor back into window order: results arrive from
/// any thread in any order, the driver takes them strictly in sequence.
class ReorderInbox {
 public:
  void deliver(std::size_t index, core::DecodeResult result) {
    std::lock_guard lock(mutex_);
    ready_.emplace(index, std::move(result));
  }

  /// Window `index`'s result if it has arrived.
  std::optional<core::DecodeResult> take(std::size_t index) {
    std::lock_guard lock(mutex_);
    const auto it = ready_.find(index);
    if (it == ready_.end()) return std::nullopt;
    core::DecodeResult result = std::move(it->second);
    ready_.erase(it);
    return result;
  }

 private:
  std::mutex mutex_;
  std::map<std::size_t, core::DecodeResult> ready_;
};

/// The in-process executor: `workers` threads decode jobs off a bounded
/// queue, independently and in any order — each window's decoder seed is
/// keyed by window index, so results do not depend on which worker ran
/// it. One run per instance.
class WorkerPool final : public WindowExecutor {
 public:
  WorkerPool(std::size_t workers,
             std::function<void(std::size_t)> decode_fault_hook)
      : workers_(workers),
        decode_fault_hook_(std::move(decode_fault_hook)),
        jobs_(std::max<std::size_t>(2 * workers, 4)) {}
  ~WorkerPool() override { cancel(); }

  void begin(const WindowRun& run) override {
    threads_.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
      threads_.emplace_back([this, &run, w] { work(run, w); });
    }
  }

  void submit(core::WindowJob job) override { jobs_.push(std::move(job)); }

  void finish() override { cancel(); }

  void cancel() noexcept override {
    jobs_.close();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  void work(const WindowRun& run, std::size_t w) {
    while (auto job = jobs_.pop()) {
      const auto start = std::chrono::steady_clock::now();
      LFBS_OBS_SPAN(window_span, "window", "runtime");
      window_span.attr("index", static_cast<double>(job->index));
      window_span.attr("worker", static_cast<double>(w));
      // Exception containment: a throwing window decode yields an empty
      // (zero-filled) window result, exactly what a silent window would
      // produce — the stitcher carries surviving threads across it — and
      // the run degrades instead of terminating the process.
      core::DecodeResult result;
      try {
        if (decode_fault_hook_) decode_fault_hook_(job->index);
        result = run.decoder.decode_job(*job);
      } catch (const std::exception&) {
        result = core::DecodeResult{};
        run.supervisor.record_worker_exception();
      }
      run.latency.record(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count());
      run.deliver(job->index, std::move(result));
    }
  }

  std::size_t workers_;
  std::function<void(std::size_t)> decode_fault_hook_;
  BoundedRing<core::WindowJob> jobs_;
  std::vector<std::thread> threads_;
};

}  // namespace

DecodeRuntime::DecodeRuntime(RuntimeConfig config)
    : config_(std::move(config)) {
  LFBS_CHECK(config_.windowed.window > 0.0);
}

RuntimeResult DecodeRuntime::run(SampleSource& source) {
  WorkerPool pool(std::max<std::size_t>(1, config_.workers),
                  config_.decode_fault_hook);
  return run(source, pool);
}

RuntimeResult DecodeRuntime::run(SampleSource& source,
                                 WindowExecutor& executor) {
  LFBS_OBS_SPAN(run_span, "run", "runtime");
  static obs::Counter& runs = obs::metrics().counter("runtime.runs");
  static obs::Counter& windows_counter =
      obs::metrics().counter("runtime.windows_decoded");
  static obs::Counter& frames_counter =
      obs::metrics().counter("runtime.frames_published");
  runs.add();
  const SampleRate fs = source.sample_rate();
  LFBS_CHECK_MSG(fs > 0.0, "sample source must declare a sample rate");
  const core::WindowedDecoder decoder(config_.windowed);
  const std::size_t window_samples = decoder.window_samples(fs);

  BoundedRing<SampleChunk> ring(
      std::max<std::size_t>(1, config_.ring_capacity));
  ReorderInbox inbox;
  LatencyRecorder latency;
  Supervisor supervisor(config_.stop_flag);
  const std::size_t bus_exceptions_before = bus_.handler_exceptions();
  std::atomic<std::size_t> windows_decoded{0};
  const WindowRun window_run{
      decoder, fs, supervisor, latency,
      [&](std::size_t index, core::DecodeResult result) {
        ++windows_decoded;
        windows_counter.add();
        inbox.deliver(index, std::move(result));
      }};
  RuntimeResult out;

  const auto t0 = std::chrono::steady_clock::now();
  executor.begin(window_run);

  // The publishing thread (this one): chunk ring → slicer → executor,
  // folding results back in window order as they arrive.
  core::WindowSlicer slicer(decoder, fs);
  core::WindowStitcher stitcher(config_.windowed, fs);
  std::size_t windows_dispatched = 0;
  std::size_t stitched = 0;
  bool whole_capture = false;
  const auto submit = [&](core::WindowJob job) {
    ++windows_dispatched;
    whole_capture = job.whole_capture;
    executor.submit(std::move(job));
  };
  const auto stitch_ready = [&] {
    while (auto result = inbox.take(stitched)) {
      if (whole_capture) {
        out.decode = std::move(*result);
      } else {
        stitcher.add_window(std::move(*result), stitched * window_samples);
      }
      ++stitched;
    }
  };

  // Ingest thread: source → chunk ring, blocking while the ring is full.
  // Reads go through the supervisor — retry with backoff on transient
  // errors, scrub non-finite samples — so a flaky source degrades the run
  // instead of wedging or killing it. A stop request ends ingest early but
  // everything already ingested still decodes and publishes.
  std::atomic<bool> failed{false};
  std::thread ingest([&] {
    while (!failed.load()) {
      auto chunk = supervisor.next_chunk(source);
      if (!chunk) break;
      supervisor.scrub(*chunk);
      ring.push(std::move(*chunk));
    }
    ring.close();
  });

  try {
    while (auto chunk = ring.pop()) {
      slicer.push(chunk->first_sample, chunk->samples, submit);
      stitch_ready();
    }
    slicer.finish(submit);
    executor.finish();
  } catch (...) {
    // The executor cannot go on: stop ingest, drop outstanding work, and
    // fail the run without publishing.
    failed.store(true);
    ring.close();
    executor.cancel();
    ingest.join();
    throw;
  }
  ingest.join();
  stitch_ready();
  LFBS_CHECK_MSG(stitched == windows_dispatched,
                 "window executor finished without every result");
  if (!whole_capture) out.decode = stitcher.finish();
  const std::size_t frames_published =
      publish_frames(bus_, out.decode, config_.epoch_index, window_samples);
  frames_counter.add(frames_published);

  // A gap in the source's stream, zero-filled by the slicer, is a
  // contained fault: the output is no longer the full capture's decode.
  if (slicer.samples_gap() > 0) supervisor.record_data_loss();
  supervisor.record_subscriber_exceptions(bus_.handler_exceptions() -
                                          bus_exceptions_before);

  out.stats.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  out.stats.chunks_in = ring.pushed();
  out.stats.ring_high_watermark = ring.high_watermark();
  out.stats.samples_in = slicer.samples_in();
  out.stats.samples_gap = slicer.samples_gap();
  out.stats.windows_dispatched = windows_dispatched;
  out.stats.windows_decoded = windows_decoded.load();
  out.stats.streams = out.decode.streams.size();
  out.stats.frames_published = frames_published;

  // Decode-confidence digest: the supervisor treats low-confidence output
  // as a contained fault so the health state reflects decode quality, not
  // just software faults.
  if (!out.decode.streams.empty()) {
    double sum = 0.0;
    std::size_t low = 0;
    for (const auto& stream : out.decode.streams) {
      const double score = stream.confidence.score();
      sum += score;
      const bool degraded =
          stream.confidence.stage != core::FallbackStage::kPrimary;
      if (degraded) ++out.stats.degraded_streams;
      if (score < kConfidenceFloor || degraded) ++low;
    }
    out.stats.mean_confidence =
        sum / static_cast<double>(out.decode.streams.size());
    supervisor.record_low_confidence(low);
  }

  out.stats.health = supervisor.health();
  out.stats.faults = supervisor.counters();
  out.stats.stopped_early = supervisor.stopped();
  latency.summarize(out.stats);
  obs::metrics().gauge("runtime.ring_high_watermark")
      .set(static_cast<double>(out.stats.ring_high_watermark));
  run_span.attr("windows", static_cast<double>(out.stats.windows_decoded));
  run_span.attr("frames", static_cast<double>(out.stats.frames_published));
  return out;
}

RuntimeResult DecodeRuntime::decode(const signal::SampleBuffer& buffer,
                                    std::size_t chunk_samples) {
  MemorySource source(buffer, chunk_samples);
  return run(source);
}

}  // namespace lfbs::runtime
