// Decoder performance benchmarks (google-benchmark). Not a paper figure:
// sanity that the software decoder keeps up with the 25 Msps stream the
// paper's USRP front end produces, plus microbenchmarks of the hot stages.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/collision_separator.h"
#include "core/decode_stages.h"
#include "core/lf_decoder.h"
#include "core/windowed_decoder.h"
#include "dsp/kmeans.h"
#include "dsp/peaks.h"
#include "dsp/stats.h"
#include "dsp/viterbi.h"
#include "protocol/frame.h"
#include "signal/edge_detector.h"
#include "sim/scenario.h"

using namespace lfbs;

namespace {

signal::SampleBuffer make_epoch(std::size_t tags, std::uint64_t seed) {
  Rng rng(seed);
  reader::ReceiverConfig rc;
  channel::ChannelModel ch;
  std::vector<tag::Tag> tag_objs;
  for (std::size_t i = 0; i < tags; ++i) {
    ch.add_tag(std::polar(rng.uniform(0.06, 0.2), rng.uniform(0.0, 6.2831)));
    tag::TagConfig tc;
    tc.incoming_energy = rng.uniform(0.7, 1.3);
    tag_objs.emplace_back(tc, rng);
  }
  reader::Receiver receiver(rc, ch);
  protocol::FrameConfig fc;
  std::vector<signal::StateTimeline> timelines;
  for (auto& t : tag_objs) {
    timelines.push_back(
        t.transmit_epoch({protocol::build_frame(rng.bits(96), fc)}, 1.5e-3,
                         rng)
            .timeline);
  }
  return receiver.receive_epoch(timelines, 1.5e-3, rng);
}

/// perfbench stream3's scenario: 3 tags at 100 kbps with 150 ppm crystals,
/// 5 Msps front end, frames back to back for `duration`.
signal::SampleBuffer make_capture3(Seconds duration, std::uint64_t seed) {
  Rng rng(seed);
  reader::ReceiverConfig rc;
  rc.sample_rate = 5.0 * kMsps;
  rc.noise_power = 1e-5;
  channel::ChannelModel ch;
  std::vector<tag::Tag> tags;
  for (std::size_t i = 0; i < 3; ++i) {
    ch.add_tag(std::polar(rng.uniform(0.08, 0.2), rng.uniform(0.0, 6.2831)));
    tag::TagConfig tc;
    tc.clock.drift_ppm = 150.0;
    tc.incoming_energy = rng.uniform(0.7, 1.3);
    tags.emplace_back(tc, rng);
  }
  const protocol::FrameConfig fc;
  const auto frames_per_tag = static_cast<std::size_t>(
      (duration - 1e-3) * (100.0 * kKbps) /
      static_cast<double>(fc.frame_bits()));
  std::vector<signal::StateTimeline> timelines;
  for (auto& t : tags) {
    std::vector<std::vector<bool>> frames;
    for (std::size_t f = 0; f < frames_per_tag; ++f) {
      frames.push_back(protocol::build_frame(rng.bits(fc.payload_bits), fc));
    }
    timelines.push_back(t.transmit_epoch(frames, duration, rng).timeline);
  }
  const reader::Receiver receiver(rc, ch);
  return receiver.receive_epoch(timelines, duration, rng);
}

void BM_FullDecode16Tags(benchmark::State& state) {
  const auto buffer = make_epoch(16, 11);
  const core::LfDecoder decoder{core::DecoderConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.decode(buffer));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buffer.size()));
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(buffer.size()),
      benchmark::Counter::kIsRate);
}
// A decode fans its groups out to the process's pool: time it by the wall
// clock, and count every thread's CPU in the CPU column.
BENCHMARK(BM_FullDecode16Tags)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// The stages of one decode pass over a 16-tag epoch, each with the stage
// objects LfDecoder builds (PassContext): at 25 Msps, edge detection runs
// the auto-scaled detector (window 3, guard 1, min_separation 5). Edge
// detection splits its buffer into chunks on the process's pool, so it is
// timed like the full decode.
void edge_detection(benchmark::State& state,
                    const signal::SampleBuffer& buffer) {
  const core::DecoderConfig cfg;
  const core::PassContext ctx(buffer, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detect_edges(ctx));
  }
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(buffer.size()),
      benchmark::Counter::kIsRate);
}

void BM_EdgeDetection(benchmark::State& state) {
  edge_detection(state, make_epoch(16, 12));
}
BENCHMARK(BM_EdgeDetection)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// One stream3 window (20 ms at 5 Msps, 100,000 samples), the window size
// the runtime decodes.
void BM_EdgeDetectionCapture3(benchmark::State& state) {
  edge_detection(state, make_capture3(20e-3, 16));
}
BENCHMARK(BM_EdgeDetectionCapture3)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_GroupStreams(benchmark::State& state) {
  const auto buffer = make_epoch(16, 12);
  const core::DecoderConfig cfg;
  const core::PassContext ctx(buffer, cfg);
  const core::Edges edges = core::detect_edges(ctx);
  state.counters["edges"] = static_cast<double>(edges.size());
  state.counters["groups"] =
      static_cast<double>(core::group_streams(ctx, edges).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::group_streams(ctx, edges));
  }
}
BENCHMARK(BM_GroupStreams)->Unit(benchmark::kMicrosecond);

void BM_ExtractSlots(benchmark::State& state) {
  // One iteration extracts the slots of every group of the epoch.
  const auto buffer = make_epoch(16, 12);
  const core::DecoderConfig cfg;
  const core::PassContext ctx(buffer, cfg);
  const core::Edges edges = core::detect_edges(ctx);
  const core::Groups groups = core::group_streams(ctx, edges);
  state.counters["groups"] = static_cast<double>(groups.size());
  for (auto _ : state) {
    for (const core::StreamGroup& group : groups) {
      benchmark::DoNotOptimize(core::extract_slots(ctx, edges, group));
    }
  }
}
BENCHMARK(BM_ExtractSlots)->Unit(benchmark::kMicrosecond);

// The same two stages over one stream3 window (20 ms at 5 Msps), where a
// group holds hundreds of edges (`largest`) instead of the epoch's 70, so
// per-member costs dominate.
void BM_GroupStreamsCapture3(benchmark::State& state) {
  const auto buffer = make_capture3(20e-3, 16);
  const core::DecoderConfig cfg;
  const core::PassContext ctx(buffer, cfg);
  const core::Edges edges = core::detect_edges(ctx);
  const core::Groups groups = core::group_streams(ctx, edges);
  std::size_t largest = 0;
  for (const core::StreamGroup& group : groups) {
    largest = std::max(largest, group.edge_indices.size());
  }
  state.counters["edges"] = static_cast<double>(edges.size());
  state.counters["groups"] = static_cast<double>(groups.size());
  state.counters["largest"] = static_cast<double>(largest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::group_streams(ctx, edges));
  }
}
BENCHMARK(BM_GroupStreamsCapture3)->Unit(benchmark::kMicrosecond);

void BM_ExtractSlotsCapture3(benchmark::State& state) {
  // One iteration extracts the slots of every group of the window.
  const auto buffer = make_capture3(20e-3, 16);
  const core::DecoderConfig cfg;
  const core::PassContext ctx(buffer, cfg);
  const core::Edges edges = core::detect_edges(ctx);
  const core::Groups groups = core::group_streams(ctx, edges);
  state.counters["groups"] = static_cast<double>(groups.size());
  for (auto _ : state) {
    for (const core::StreamGroup& group : groups) {
      benchmark::DoNotOptimize(core::extract_slots(ctx, edges, group));
    }
  }
}
BENCHMARK(BM_ExtractSlotsCapture3)->Unit(benchmark::kMicrosecond);

void BM_MedianMad(benchmark::State& state) {
  // 37,500: one 1.5 ms epoch at 25 Msps, the values of |dS| whose median
  // and MAD set edge detection's threshold. 1,024: one NoiseTracker block.
  Rng rng(13);
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
  for (double& x : xs) x = std::abs(Complex{rng.gaussian(), rng.gaussian()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::median_mad(xs));
  }
}
// Inputs of 8,192 values or more select per chunk on the process's pool.
BENCHMARK(BM_MedianMad)
    ->Arg(1024)
    ->Arg(37500)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMicrosecond);

void BM_FindPeaks(benchmark::State& state) {
  // Peak picking over the |dS| series of one stream3 window (20 ms at
  // 5 Msps, 100,000 samples) at edge detection's own threshold.
  const auto buffer = make_capture3(20e-3, 14);
  const signal::EdgeDetectorConfig cfg;
  std::vector<double> ds(buffer.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    ds[i] = magnitude(signal::EdgeDetector::differential_at(
        buffer.span(), static_cast<SampleIndex>(i), cfg.window, cfg.guard));
  }
  const dsp::MedianMad robust = dsp::median_mad(ds);
  const dsp::PeakOptions opts{
      .min_value = robust.median + cfg.threshold_sigma * dsp::kMadToSigma *
                                       robust.mad,
      .min_distance = cfg.min_separation};
  state.counters["peaks"] =
      static_cast<double>(dsp::find_peaks(ds, opts).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::find_peaks(ds, opts));
  }
}
BENCHMARK(BM_FindPeaks)->Unit(benchmark::kMillisecond);

void BM_ScanFrames(benchmark::State& state) {
  // The stitcher's CRC resynchronization over the longest stitched thread
  // of one 100 ms stream3 capture.
  const auto buffer = make_capture3(100e-3, 15);
  std::vector<bool> bits;
  for (const auto& s :
       core::WindowedDecoder(core::WindowedDecoderConfig{}).decode(buffer)
           .streams) {
    if (s.bits.size() > bits.size()) bits = s.bits;
  }
  const protocol::FrameConfig fc;
  state.counters["bits"] = static_cast<double>(bits.size());
  state.counters["frames"] =
      static_cast<double>(protocol::scan_frames(bits, fc).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::scan_frames(bits, fc));
  }
}
BENCHMARK(BM_ScanFrames)->Unit(benchmark::kMicrosecond);

/// A 27-cluster fit of 1200 boundary differentials of tags with the given
/// edge vectors, each boundary drawing independent levels.
struct ThreeWayFit {
  std::vector<Complex> points;
  dsp::KMeansResult fit;
};

ThreeWayFit make_three_way_fit(const std::vector<Complex>& evecs,
                               std::uint64_t seed) {
  Rng rng(seed);
  ThreeWayFit out;
  std::vector<int> level(evecs.size(), 0);
  for (std::size_t k = 0; k < 1200; ++k) {
    Complex sum{rng.gaussian(0.0, 0.004), rng.gaussian(0.0, 0.004)};
    for (std::size_t t = 0; t < evecs.size(); ++t) {
      const int next = rng.bernoulli(0.5) ? 1 : 0;
      sum += static_cast<double>(next - level[t]) * evecs[t];
      level[t] = next;
    }
    out.points.push_back(sum);
  }
  out.fit = dsp::kmeans(out.points, 27, rng);
  return out;
}

void BM_SeparateThree(benchmark::State& state) {
  // Arg 0: two tags' data force-fit with 27 clusters, which no axis triple
  // can pass (the screen's case). Arg 1: a clean three-tag fit, accepted.
  const bool three = state.range(0) == 1;
  const ThreeWayFit in =
      three ? make_three_way_fit({{0.11, 0.01}, {-0.02, 0.09}, {-0.07, -0.06}},
                                 77)
            : make_three_way_fit({{0.1, 0.02}, {-0.03, 0.09}}, 78);
  const core::CollisionSeparator sep;
  const bool accepted = sep.separate_three(in.points, in.fit).has_value();
  state.SetLabel(accepted ? "accepted" : "rejected");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sep.separate_three(in.points, in.fit));
  }
}
BENCHMARK(BM_SeparateThree)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_KMeans9(benchmark::State& state) {
  Rng rng(5);
  std::vector<Complex> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  for (auto _ : state) {
    Rng krng(7);
    benchmark::DoNotOptimize(dsp::kmeans(points, 9, krng));
  }
}
BENCHMARK(BM_KMeans9)->Unit(benchmark::kMicrosecond);

void BM_Viterbi4State(benchmark::State& state) {
  const double e = std::log(0.5);
  const double no = dsp::kImpossible;
  const double transition[4][4] = {{no, e, e, no},
                                    {e, no, no, e},
                                    {no, e, e, no},
                                    {e, no, no, e}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::viterbi<4>(
        400, [](std::size_t s) { return s == 0 ? 0.0 : dsp::kImpossible; },
        [&](std::size_t, std::size_t from, std::size_t to, double score) {
          return score + transition[from][to];
        },
        [](std::size_t s, std::size_t st) {
          return -0.1 * static_cast<double>((s * 31 + st) % 7);
        }));
  }
}
BENCHMARK(BM_Viterbi4State)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
