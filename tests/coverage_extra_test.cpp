// Coverage for smaller public surfaces not exercised elsewhere: windowed
// polarity stitching, Buzz goodput, Gen 2 timing identities, and assorted
// edge cases.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/buzz.h"
#include "common/check.h"
#include "baseline/gen2.h"
#include "core/windowed_decoder.h"
#include "dsp/kmeans.h"
#include "reader/receiver.h"
#include "tag/tag.h"
#include "protocol/rate_control.h"
#include "sim/table.h"

namespace lfbs {
namespace {

TEST(WindowedPolarity, FlipDetectionViaEdgeVector) {
  // Build two window-streams of the same thread where the second decoded
  // with inverted polarity (its first edge in the window was falling): the
  // stitcher must flip its bits using the edge-vector sign.
  using core::DecodedStream;
  // This is exercised through the public API indirectly; here we verify
  // the edge-vector convention itself: a decoded stream's edge_vector
  // approximates the tag's channel coefficient (stable sign across
  // windows when polarity is right).
  Rng rng(3);
  const Complex h{0.1, 0.04};
  reader::ReceiverConfig rc;
  rc.sample_rate = 5.0 * kMsps;
  channel::ChannelModel ch;
  ch.add_tag(h);
  reader::Receiver receiver(rc, ch);
  protocol::FrameConfig fc;
  tag::TagConfig tc;
  tag::Tag tag(tc, rng);
  const auto tx = tag.transmit_epoch(
      {protocol::build_frame(rng.bits(96), fc)}, 1.5e-3, rng);
  const auto buffer = receiver.receive_epoch({{tx.timeline}}, 1.5e-3, rng);
  core::DecoderConfig dc;
  dc.frame = fc;
  const auto result = core::LfDecoder(dc).decode(buffer);
  ASSERT_FALSE(result.streams.empty());
  // edge_vector ≈ +h (anchor normalization makes rising = +h).
  EXPECT_LT(std::abs(result.streams[0].edge_vector - h), 0.35 * std::abs(h));
}

TEST(BuzzGoodput, ZeroOnFailureOrNoAirTime) {
  baseline::Buzz buzz(baseline::BuzzConfig{}, {Complex{0.1, 0.0}});
  baseline::BuzzTransferResult r;
  r.air_time = 0.0;
  EXPECT_DOUBLE_EQ(buzz.goodput(r), 0.0);
  r.air_time = 1e-3;
  r.success = false;
  EXPECT_DOUBLE_EQ(buzz.goodput(r), 0.0);
  r.success = true;
  EXPECT_NEAR(buzz.goodput(r), 96.0 / 1e-3, 1e-6);
}

TEST(Gen2Timings, CommandDurationsOrdered) {
  const baseline::Gen2Timings t;
  // QueryRep is the shortest command; Query the longest of the openers.
  EXPECT_LT(t.query_rep(), t.query_adjust());
  EXPECT_LT(t.query_adjust(), t.query());
  EXPECT_LT(t.ack(), t.query());
  // An EPC reply dominates a whole singleton exchange's tag side.
  EXPECT_GT(t.epc_reply(), 5.0 * t.rn16() / 2.0);
}

TEST(StreamGroupDetail, PositionOf) {
  core::StreamGroup g;
  g.intercept = 100.0;
  g.slope = 250.5;
  EXPECT_DOUBLE_EQ(g.position_of(0), 100.0);
  EXPECT_DOUBLE_EQ(g.position_of(4), 100.0 + 4 * 250.5);
}

TEST(FrameConfigDetail, BitAccounting) {
  protocol::FrameConfig crc16;
  EXPECT_EQ(crc16.frame_bits(), 1u + 96u + 16u);
  protocol::FrameConfig crc5;
  crc5.crc = protocol::CrcKind::kCrc5;
  crc5.payload_bits = 24;
  EXPECT_EQ(crc5.frame_bits(), 1u + 24u + 5u);
}

TEST(WindowedConfigDetail, Validation) {
  core::WindowedDecoderConfig bad;
  bad.window = -1.0;
  EXPECT_THROW(core::WindowedDecoder{bad}, CheckError);
}

TEST(DecodeResultDetail, FrameAccounting) {
  core::DecodeResult result;
  core::DecodedStream s;
  protocol::ParsedFrame good;
  good.anchor_ok = true;
  good.crc_ok = true;
  protocol::ParsedFrame bad;
  s.frames = {good, bad, good};
  result.streams.push_back(s);
  EXPECT_EQ(result.frames_attempted(), 3u);
  EXPECT_EQ(result.frames_failed(), 1u);
  EXPECT_EQ(result.valid_payloads().size(), 2u);
}

TEST(WindowedGapFill, CoastsOverEdgeFreeWindow) {
  // A 24-bit constant run leaves an entire 10 ms processing window without
  // edges; the stitcher must keep one thread alive across it (coasting on
  // timing) rather than fragmenting the stream. Bit-perfect recovery
  // through such holes is only guaranteed by the single-shot decoder —
  // which is asserted too — the windowed mode's contract is thread
  // continuity at the correct rate.
  Rng rng(44);
  reader::ReceiverConfig rc;
  rc.sample_rate = 5.0 * kMsps;
  rc.noise_power = 1e-6;
  channel::ChannelModel ch;
  ch.add_tag({0.12, 0.05});
  reader::Receiver receiver(rc, ch);
  std::vector<bool> payload(96, false);
  for (int i = 0; i < 36; ++i) payload[i] = rng.bernoulli(0.5);
  for (int i = 60; i < 96; ++i) payload[i] = rng.bernoulli(0.5);
  for (int i = 36; i < 60; ++i) payload[i] = true;
  protocol::FrameConfig fc;
  tag::TagConfig tc;
  tc.rate = 2.0 * kKbps;  // 113 bits -> 56.5 ms, spanning several windows
  tag::Tag tag(tc, rng);
  const Seconds duration = 113.0 / (2.0 * kKbps) + 1e-3;
  const auto tx = tag.transmit_epoch({protocol::build_frame(payload, fc)},
                                     duration, rng);
  const auto buffer = receiver.receive_epoch({{tx.timeline}}, duration, rng);

  core::WindowedDecoderConfig wc;
  wc.decoder.frame = fc;
  wc.window = 10e-3;
  const auto windowed = core::WindowedDecoder(wc).decode(buffer);
  // One dominant thread at the right rate spanning most of the capture.
  std::size_t longest = 0;
  BitRate longest_rate = 0.0;
  for (const auto& s2 : windowed.streams) {
    if (s2.bits.size() > longest) {
      longest = s2.bits.size();
      longest_rate = s2.rate;
    }
  }
  EXPECT_GE(longest, 100u);
  EXPECT_NEAR(longest_rate, 2.0 * kKbps, 1.0);

  // The single-shot decoder recovers the frame exactly.
  const auto plain = core::LfDecoder(wc.decoder).decode(buffer);
  bool found = false;
  for (const auto& p : plain.valid_payloads()) {
    if (p == payload) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RateControllerDetail, RaiseStopsAtPlanCeiling) {
  protocol::RateController rc(protocol::RatePlan::paper_rates(),
                              100.0 * kKbps);
  for (int i = 0; i < 12; ++i) {
    EXPECT_FALSE(rc.on_epoch(100, 0).has_value());  // nothing above 100 kbps
  }
  EXPECT_DOUBLE_EQ(rc.current_max(), 100.0 * kKbps);
}

TEST(TableDetail, RowArityEnforced) {
  sim::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckError);
}

TEST(ChannelPlacementDetail, DistancePhaseDeterminism) {
  Rng r1(5), r2(5);
  channel::ChannelModel a, b;
  channel::TagPlacement p;
  p.distance_m = 1.7;
  p.orientation_rad = 0.3;
  a.add_tag(p, r1);
  b.add_tag(p, r2);
  EXPECT_EQ(a.coefficient(0), b.coefficient(0));
}

}  // namespace
}  // namespace lfbs
