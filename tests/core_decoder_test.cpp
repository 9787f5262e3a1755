// Property-style tests of the full LfDecoder against the physical tag +
// channel + receiver simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "channel/channel_model.h"
#include "core/lf_decoder.h"
#include "protocol/frame.h"
#include "reader/receiver.h"
#include "signal/iq_io.h"
#include "tag/tag.h"

namespace lfbs::core {
namespace {

struct OneTagResult {
  bool recovered = false;
  BitRate detected_rate = 0.0;
};

OneTagResult run_one_tag(BitRate rate, SampleRate fs, double noise_power,
                         double drift_ppm, std::uint64_t seed) {
  Rng rng(seed);
  reader::ReceiverConfig rc;
  rc.sample_rate = fs;
  rc.noise_power = noise_power;
  channel::ChannelModel ch;
  ch.add_tag(std::polar(0.12, rng.uniform(0.0, 6.2831)));
  reader::Receiver receiver(rc, ch);

  tag::TagConfig tc;
  tc.rate = rate;
  tc.clock.drift_ppm = drift_ppm;
  tag::Tag tag(tc, rng);

  protocol::FrameConfig fc;
  const auto payload = rng.bits(fc.payload_bits);
  const Seconds duration = 113.0 / rate + 0.3e-3;
  const auto tx =
      tag.transmit_epoch({protocol::build_frame(payload, fc)}, duration, rng);
  const auto buffer = receiver.receive_epoch({{tx.timeline}}, duration, rng);

  DecoderConfig dc;
  dc.frame = fc;
  if (!dc.rate_plan.is_valid(rate)) dc.rate_plan.rates.push_back(rate);
  dc.max_rate = dc.rate_plan.max();
  const LfDecoder decoder(dc);
  const auto result = decoder.decode(buffer);

  OneTagResult out;
  for (const auto& s : result.streams) {
    for (const auto& f : s.frames) {
      if (f.valid() && f.payload == payload) {
        out.recovered = true;
        out.detected_rate = s.rate;
      }
    }
  }
  return out;
}

/// Sweep: every paper rate at two reader sample rates must decode and
/// report the right bitrate.
class RateFsSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RateFsSweep, SingleTagRoundTrip) {
  const auto [rate_kbps, fs_msps] = GetParam();
  const auto r = run_one_tag(rate_kbps * kKbps, fs_msps * kMsps, 1e-5,
                             150.0, 777);
  EXPECT_TRUE(r.recovered) << rate_kbps << " kbps @ " << fs_msps << " Msps";
  EXPECT_NEAR(r.detected_rate, rate_kbps * kKbps, rate_kbps * kKbps * 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRates, RateFsSweep,
    ::testing::Combine(::testing::Values(2.0, 10.0, 50.0, 100.0),
                       ::testing::Values(5.0, 25.0)));

/// The paper claims ~200 ppm drift tolerance (§4.1).
class DriftSweep : public ::testing::TestWithParam<double> {};

TEST_P(DriftSweep, ToleratesCrystalDrift) {
  int recovered = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    if (run_one_tag(100.0 * kKbps, 25.0 * kMsps, 1e-5, GetParam(), seed)
            .recovered) {
      ++recovered;
    }
  }
  EXPECT_GE(recovered, 4) << GetParam() << " ppm";
}

INSTANTIATE_TEST_SUITE_P(Ppm, DriftSweep,
                         ::testing::Values(0.0, 50.0, 150.0, 200.0));

TEST(LfDecoder, EmptyBufferYieldsNothing) {
  const LfDecoder decoder{DecoderConfig{}};
  const auto result = decoder.decode(signal::SampleBuffer{});
  EXPECT_TRUE(result.streams.empty());
}

TEST(LfDecoder, PureNoiseYieldsNoValidFrames) {
  Rng rng(11);
  signal::SampleBuffer buf(25.0 * kMsps, 40000);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = {rng.gaussian(0.0, 0.01), rng.gaussian(0.0, 0.01)};
  }
  const LfDecoder decoder{DecoderConfig{}};
  const auto result = decoder.decode(buf);
  EXPECT_EQ(result.valid_payloads().size(), 0u);
}

TEST(LfDecoder, DecodeIsDeterministic) {
  Rng rng(12);
  reader::ReceiverConfig rc;
  channel::ChannelModel ch;
  ch.add_tag({0.1, 0.05});
  ch.add_tag({-0.06, 0.09});
  reader::Receiver receiver(rc, ch);
  protocol::FrameConfig fc;
  tag::TagConfig tc;
  std::vector<signal::StateTimeline> timelines;
  for (int i = 0; i < 2; ++i) {
    tag::Tag tag(tc, rng);
    timelines.push_back(
        tag.transmit_epoch({protocol::build_frame(rng.bits(96), fc)}, 1.5e-3,
                           rng)
            .timeline);
  }
  const auto buffer = receiver.receive_epoch(timelines, 1.5e-3, rng);
  const LfDecoder decoder{DecoderConfig{}};
  const auto a = decoder.decode(buffer);
  const auto b = decoder.decode(buffer);
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    EXPECT_EQ(a.streams[i].bits, b.streams[i].bits);
  }
}

// A capture with one NaN and one +Inf sample loads with both zeroed, and
// decodes exactly as the same capture with those samples set to zero.
TEST(LfDecoder, NonFiniteSamplesLoadAsZero) {
  Rng rng(15);
  reader::ReceiverConfig rc;
  channel::ChannelModel ch;
  ch.add_tag({0.1, 0.05});
  ch.add_tag({-0.06, 0.09});
  reader::Receiver receiver(rc, ch);
  protocol::FrameConfig fc;
  tag::TagConfig tc;
  std::vector<signal::StateTimeline> timelines;
  for (int i = 0; i < 2; ++i) {
    tag::Tag tag(tc, rng);
    timelines.push_back(
        tag.transmit_epoch({protocol::build_frame(rng.bits(96), fc)}, 1.5e-3,
                           rng)
            .timeline);
  }
  signal::SampleBuffer poisoned =
      receiver.receive_epoch(timelines, 1.5e-3, rng);
  signal::SampleBuffer zeroed = poisoned;
  const std::size_t nan_at = 20000, inf_at = 31000;
  ASSERT_GT(poisoned.size(), inf_at);
  poisoned[nan_at] = {std::nan(""), poisoned[nan_at].imag()};
  poisoned[inf_at] = {poisoned[inf_at].real(), HUGE_VAL};
  zeroed[nan_at] = Complex{};
  zeroed[inf_at] = Complex{};
  const std::string poisoned_path = ::testing::TempDir() + "poisoned.lfbsiq";
  const std::string zeroed_path = ::testing::TempDir() + "zeroed.lfbsiq";
  signal::save_iq(poisoned, poisoned_path);
  signal::save_iq(zeroed, zeroed_path);
  const signal::SampleBuffer loaded = signal::load_iq(poisoned_path);
  const signal::SampleBuffer reference = signal::load_iq(zeroed_path);
  ASSERT_EQ(loaded.size(), reference.size());
  EXPECT_EQ(loaded[nan_at], Complex{});
  EXPECT_EQ(loaded[inf_at], Complex{});
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    ASSERT_EQ(loaded[i], reference[i]) << "sample " << i;
  }

  const LfDecoder decoder{DecoderConfig{}};
  const DecodeResult want = decoder.decode(reference);
  DecodeResult got;
  ASSERT_NO_THROW(got = decoder.decode(loaded));
  EXPECT_GT(want.valid_frames(), 0u);
  ASSERT_EQ(got.streams.size(), want.streams.size());
  for (std::size_t i = 0; i < got.streams.size(); ++i) {
    EXPECT_EQ(got.streams[i].bits, want.streams[i].bits);
    EXPECT_EQ(got.streams[i].start_sample, want.streams[i].start_sample);
  }
  EXPECT_EQ(got.valid_payloads(), want.valid_payloads());
}

TEST(LfDecoder, ForcedCollisionSeparates) {
  // Two tags with identical start offsets: every edge collides; the IQ
  // stage must recover both payloads (§3.4).
  Rng rng(13);
  reader::ReceiverConfig rc;
  rc.noise_power = 1e-5;
  channel::ChannelModel ch;
  ch.add_tag(std::polar(0.12, 0.7));
  ch.add_tag(std::polar(0.10, 2.6));
  reader::Receiver receiver(rc, ch);

  protocol::FrameConfig fc;
  std::vector<std::vector<bool>> payloads;
  std::vector<signal::StateTimeline> timelines;
  for (int i = 0; i < 2; ++i) {
    payloads.push_back(rng.bits(fc.payload_bits));
    timelines.push_back(signal::nrz_timeline(
        protocol::build_frame(payloads[i], fc), 60e-6, 1e-5));
  }
  const auto buffer = receiver.receive_epoch(timelines, 1.4e-3, rng);
  DecoderConfig dc;
  dc.frame = fc;
  const LfDecoder decoder(dc);
  const auto result = decoder.decode(buffer);
  const auto valid = result.valid_payloads();
  for (const auto& p : payloads) {
    EXPECT_NE(std::find(valid.begin(), valid.end(), p), valid.end());
  }
  EXPECT_GE(result.diagnostics.collision_groups, 1u);
}

TEST(LfDecoder, CollisionRecoveryToggleMatters) {
  // The same forced collision with collision_recovery off must NOT recover
  // both payloads — this is the Fig 9 "Edge" vs "Edge+IQ" distinction.
  Rng rng(13);  // same seed as above
  reader::ReceiverConfig rc;
  rc.noise_power = 1e-5;
  channel::ChannelModel ch;
  ch.add_tag(std::polar(0.12, 0.7));
  ch.add_tag(std::polar(0.10, 2.6));
  reader::Receiver receiver(rc, ch);
  protocol::FrameConfig fc;
  std::vector<std::vector<bool>> payloads;
  std::vector<signal::StateTimeline> timelines;
  for (int i = 0; i < 2; ++i) {
    payloads.push_back(rng.bits(fc.payload_bits));
    timelines.push_back(signal::nrz_timeline(
        protocol::build_frame(payloads[i], fc), 60e-6, 1e-5));
  }
  const auto buffer = receiver.receive_epoch(timelines, 1.4e-3, rng);
  DecoderConfig dc;
  dc.frame = fc;
  dc.collision_recovery = false;
  const LfDecoder decoder(dc);
  const auto valid = decoder.decode(buffer).valid_payloads();
  std::size_t recovered = 0;
  for (const auto& p : payloads) {
    if (std::find(valid.begin(), valid.end(), p) != valid.end()) ++recovered;
  }
  EXPECT_LT(recovered, 2u);
}

TEST(LfDecoder, MultipleFramesPerStream) {
  Rng rng(14);
  reader::ReceiverConfig rc;
  channel::ChannelModel ch;
  ch.add_tag({0.12, 0.04});
  reader::Receiver receiver(rc, ch);
  protocol::FrameConfig fc;
  tag::TagConfig tc;
  tag::Tag tag(tc, rng);
  std::vector<std::vector<bool>> frames;
  std::vector<std::vector<bool>> payloads;
  for (int i = 0; i < 3; ++i) {
    payloads.push_back(rng.bits(fc.payload_bits));
    frames.push_back(protocol::build_frame(payloads[i], fc));
  }
  const auto tx = tag.transmit_epoch(frames, 4e-3, rng);
  const auto buffer = receiver.receive_epoch({{tx.timeline}}, 4e-3, rng);
  DecoderConfig dc;
  dc.frame = fc;
  const LfDecoder decoder(dc);
  const auto valid = decoder.decode(buffer).valid_payloads();
  EXPECT_EQ(valid.size(), 3u);
}

TEST(LfDecoder, ReportsDiagnostics) {
  const auto r = run_one_tag(100.0 * kKbps, 25.0 * kMsps, 1e-5, 150.0, 99);
  EXPECT_TRUE(r.recovered);
}

}  // namespace
}  // namespace lfbs::core
