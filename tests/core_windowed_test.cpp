// Tests for the windowed (streaming) decoder: cross-window stitching,
// polarity resolution, gap filling — and the resynchronizing frame scanner
// it relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/windowed_decoder.h"
#include "protocol/frame.h"
#include "test_support.h"

namespace lfbs::core {
namespace {

std::size_t recovered(const DecodeResult& result,
                      const std::vector<std::vector<bool>>& payloads) {
  std::multiset<std::vector<bool>> pool;
  for (const auto& p : result.valid_payloads()) pool.insert(p);
  std::size_t n = 0;
  for (const auto& p : payloads) {
    const auto it = pool.find(p);
    if (it != pool.end()) {
      pool.erase(it);
      ++n;
    }
  }
  return n;
}

TEST(WindowedDecoder, ShortCaptureFallsThroughToPlain) {
  const auto cap = make_capture(1, 2e-3, 150.0, 11);
  WindowedDecoderConfig wc;  // 20 ms window >> 2 ms capture
  const auto win = WindowedDecoder(wc).decode(cap.buffer);
  const auto plain = LfDecoder(wc.decoder).decode(cap.buffer);
  ASSERT_EQ(win.streams.size(), plain.streams.size());
  for (std::size_t i = 0; i < win.streams.size(); ++i) {
    EXPECT_EQ(win.streams[i].bits, plain.streams[i].bits);
  }
}

TEST(WindowedDecoder, StitchesSingleTagAcrossManyWindows) {
  // 100 ms of continuous streaming = 5 windows of 20 ms.
  const auto cap = make_capture(1, 100e-3, 150.0, 12);
  WindowedDecoderConfig wc;
  const auto result = WindowedDecoder(wc).decode(cap.buffer);
  // One stitched thread, not five fragments.
  std::size_t long_threads = 0;
  for (const auto& s : result.streams) {
    if (s.bits.size() > 2000) ++long_threads;
  }
  EXPECT_EQ(long_threads, 1u);
  // Nearly all frames recovered across every seam.
  EXPECT_GE(recovered(result, cap.payloads), cap.payloads.size() - 2);
}

TEST(WindowedDecoder, TwoTagsStayOnSeparateThreads) {
  const auto cap = make_capture(2, 80e-3, 150.0, 13);
  WindowedDecoderConfig wc;
  const auto result = WindowedDecoder(wc).decode(cap.buffer);
  EXPECT_GE(recovered(result, cap.payloads),
            cap.payloads.size() * 8 / 10);
}

TEST(WindowedDecoder, BoundedMemoryEquivalence) {
  // The streaming decoder must recover a comparable share of frames to the
  // single-shot decoder on a capture that fits in memory.
  const auto cap = make_capture(3, 60e-3, 150.0, 14);
  WindowedDecoderConfig wc;
  const auto win = WindowedDecoder(wc).decode(cap.buffer);
  const auto plain = LfDecoder(wc.decoder).decode(cap.buffer);
  const std::size_t win_n = recovered(win, cap.payloads);
  const std::size_t plain_n = recovered(plain, cap.payloads);
  EXPECT_GE(win_n + cap.payloads.size() / 5, plain_n);
}

/// The jobs WindowedDecoder::decode's serial loop cuts from `buffer`: the
/// whole capture when it is short, else every window at least a quarter
/// window long.
std::vector<WindowJob> serial_jobs(const WindowedDecoder& decoder,
                                   const signal::SampleBuffer& buffer) {
  const SampleRate fs = buffer.sample_rate();
  if (buffer.empty() || decoder.is_short_capture(buffer.size(), fs)) {
    return {WindowJob{0, true, buffer}};
  }
  const std::size_t w = decoder.window_samples(fs);
  std::vector<WindowJob> jobs;
  for (std::size_t offset = 0; offset < buffer.size(); offset += w) {
    const std::size_t end = std::min(buffer.size(), offset + w);
    if (end - offset < w / 4) break;
    const auto view = buffer.slice(offset, end);
    jobs.push_back({jobs.size(), false,
                    signal::SampleBuffer(
                        fs, std::vector<Complex>(view.begin(), view.end()))});
  }
  return jobs;
}

TEST(WindowSlicer, EmitsTheSerialLatticeUnderAnyChunking) {
  // 16 ms windows at 1 kHz: 16-sample windows, so the 1.5-window
  // hold-back (24 samples) and the quarter-window tail (4 samples) are
  // crossed from both sides many times over the random lengths below.
  WindowedDecoderConfig wc;
  wc.window = 16e-3;
  const WindowedDecoder decoder(wc);
  const SampleRate fs = 1e3;
  ASSERT_EQ(decoder.window_samples(fs), 16u);

  Rng rng(2024);
  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto length = static_cast<std::size_t>(rng.uniform_int(0, 90));
    // The chunk stream, and the zero-filled capture it describes: a gap
    // is zeros, an overlapping head is dropped in favour of what came
    // first.
    std::vector<std::pair<std::uint64_t, std::vector<Complex>>> chunks;
    std::vector<Complex> capture;
    std::uint64_t real = 0;
    while (capture.size() < length) {
      std::uint64_t first = capture.size();
      const double kind = rng.uniform();
      if (kind < 0.2) {
        first += static_cast<std::uint64_t>(rng.uniform_int(1, 20));
      } else if (kind < 0.4 && !capture.empty()) {
        first -= static_cast<std::uint64_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(std::min<std::size_t>(
                   capture.size(), 12))));
      }
      std::vector<Complex> samples;
      const auto n = rng.uniform_int(0, 25);
      for (std::int64_t i = 0; i < n; ++i) {
        samples.emplace_back(rng.gaussian(), rng.gaussian());
      }
      capture.resize(std::max<std::size_t>(capture.size(), first));
      for (std::size_t i = 0; i < samples.size(); ++i) {
        if (first + i < capture.size()) continue;
        capture.push_back(samples[i]);
        ++real;
      }
      chunks.emplace_back(first, std::move(samples));
    }

    WindowSlicer slicer(decoder, fs);
    std::vector<WindowJob> jobs;
    const auto collect = [&](WindowJob job) { jobs.push_back(std::move(job)); };
    for (const auto& [first, samples] : chunks) {
      slicer.push(first, samples, collect);
    }
    slicer.finish(collect);

    EXPECT_EQ(slicer.samples_in(), real);
    EXPECT_EQ(slicer.samples_gap(), capture.size() - real);
    const auto expected =
        serial_jobs(decoder, signal::SampleBuffer(fs, capture));
    ASSERT_EQ(jobs.size(), expected.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(jobs[j].index, expected[j].index);
      EXPECT_EQ(jobs[j].whole_capture, expected[j].whole_capture);
      EXPECT_EQ(jobs[j].samples.sample_rate(), fs);
      const auto got = jobs[j].samples.span();
      const auto want = expected[j].samples.span();
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "job " << j;
    }
  }
}

TEST(ScanFrames, ResynchronizesAfterBitSlip) {
  Rng rng(15);
  protocol::FrameConfig fc;
  const auto p1 = rng.bits(96);
  const auto p2 = rng.bits(96);
  auto bits = protocol::build_frame(p1, fc);
  bits.push_back(false);  // one slipped bit between the frames
  const auto f2 = protocol::build_frame(p2, fc);
  bits.insert(bits.end(), f2.begin(), f2.end());

  // The rigid parser loses the second frame; the scanner recovers it.
  const auto rigid = protocol::parse_stream(bits, fc);
  std::size_t rigid_ok = 0;
  for (const auto& f : rigid) {
    if (f.valid()) ++rigid_ok;
  }
  EXPECT_EQ(rigid_ok, 1u);
  const auto scanned = protocol::scan_frames(bits, fc);
  ASSERT_EQ(scanned.size(), 2u);
  EXPECT_EQ(scanned[0].payload, p1);
  EXPECT_EQ(scanned[1].payload, p2);
}

TEST(ScanFrames, EmptyAndGarbage) {
  Rng rng(16);
  protocol::FrameConfig fc;
  EXPECT_TRUE(protocol::scan_frames({}, fc).empty());
  // 2000 random bits: expected CRC-16 false positives ~ 2000/65536 << 1.
  const auto garbage = rng.bits(2000);
  EXPECT_LE(protocol::scan_frames(garbage, fc).size(), 1u);
}

}  // namespace
}  // namespace lfbs::core
