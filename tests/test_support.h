// Helpers shared by the long-capture tests (windowed decoder, runtime,
// runtime faults, federation, chaos): one multi-window capture builder and
// one bit-identity check between two decode results.
#pragma once

#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <vector>

#include "channel/channel_model.h"
#include "core/lf_decoder.h"
#include "protocol/frame.h"
#include "reader/receiver.h"
#include "tag/tag.h"

namespace lfbs {

struct LongCapture {
  signal::SampleBuffer buffer{1e6, std::size_t{0}};
  std::vector<std::vector<bool>> payloads;
};

/// A multi-window capture: `num_tags` tags with `drift_ppm` crystals stream
/// back-to-back 96-bit frames for `duration` at 5 Msps through the full
/// channel model. `payloads` lists every transmitted payload.
inline LongCapture make_capture(std::size_t num_tags, Seconds duration,
                                double drift_ppm, std::uint64_t seed) {
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
    tc.clock.drift_ppm = drift_ppm;
    tc.incoming_energy = rng.uniform(0.7, 1.3);
    tags.emplace_back(tc, rng);
  }
  LongCapture cap;
  std::vector<signal::StateTimeline> timelines;
  for (auto& t : tags) {
    std::vector<std::vector<bool>> frames;
    const auto n = static_cast<std::size_t>((duration - 1e-3) *
                                            (100.0 * kKbps) / 113.0);
    for (std::size_t f = 0; f < n; ++f) {
      cap.payloads.push_back(rng.bits(96));
      frames.push_back(protocol::build_frame(cap.payloads.back(), fc));
    }
    timelines.push_back(t.transmit_epoch(frames, duration, rng).timeline);
  }
  reader::Receiver receiver(rc, ch);
  cap.buffer = receiver.receive_epoch(timelines, duration, rng);
  return cap;
}

/// Bit-for-bit equality of two decodes: every stream's position, rate,
/// bits, edge vector, SNR and confidence, every frame, and the diagnostics.
inline void expect_identical(const core::DecodeResult& a,
                             const core::DecodeResult& b) {
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    const auto& s = a.streams[i];
    const auto& t = b.streams[i];
    EXPECT_EQ(s.start_sample, t.start_sample) << "stream " << i;
    EXPECT_EQ(s.rate, t.rate) << "stream " << i;
    EXPECT_EQ(s.collided, t.collided) << "stream " << i;
    EXPECT_EQ(s.bits, t.bits) << "stream " << i;
    EXPECT_EQ(s.edge_vector, t.edge_vector) << "stream " << i;
    EXPECT_EQ(s.snr_db, t.snr_db) << "stream " << i;
    EXPECT_EQ(s.confidence.edge_snr_db, t.confidence.edge_snr_db);
    EXPECT_EQ(s.confidence.edge_confidence, t.confidence.edge_confidence);
    EXPECT_EQ(s.confidence.path_margin, t.confidence.path_margin);
    EXPECT_EQ(s.confidence.cluster_separation,
              t.confidence.cluster_separation);
    EXPECT_EQ(s.confidence.erasures, t.confidence.erasures);
    EXPECT_EQ(s.confidence.stage, t.confidence.stage);
    ASSERT_EQ(s.frames.size(), t.frames.size()) << "stream " << i;
    for (std::size_t f = 0; f < s.frames.size(); ++f) {
      EXPECT_EQ(s.frames[f].payload, t.frames[f].payload);
      EXPECT_EQ(s.frames[f].anchor_ok, t.frames[f].anchor_ok);
      EXPECT_EQ(s.frames[f].crc_ok, t.frames[f].crc_ok);
    }
  }
  EXPECT_EQ(a.diagnostics.edges, b.diagnostics.edges);
  EXPECT_EQ(a.diagnostics.groups, b.diagnostics.groups);
  EXPECT_EQ(a.diagnostics.collision_groups, b.diagnostics.collision_groups);
  EXPECT_EQ(a.diagnostics.unresolved_groups,
            b.diagnostics.unresolved_groups);
  EXPECT_EQ(a.diagnostics.erasures, b.diagnostics.erasures);
  EXPECT_EQ(a.diagnostics.fallback_passes, b.diagnostics.fallback_passes);
  EXPECT_EQ(a.diagnostics.fallback_recoveries,
            b.diagnostics.fallback_recoveries);
}

}  // namespace lfbs
