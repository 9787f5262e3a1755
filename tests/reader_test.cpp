// Tests for the reader library: the receive front end.
#include <gtest/gtest.h>

#include "channel/channel_model.h"
#include "core/lf_decoder.h"
#include "common/check.h"
#include "protocol/frame.h"
#include "reader/receiver.h"
#include "tag/tag.h"

namespace lfbs::reader {
namespace {

TEST(Receiver, ComposesTagsThroughChannel) {
  Rng rng(1);
  channel::ChannelModel ch;
  ch.set_environment({0.5, 0.0});
  ch.add_tag({0.1, 0.0});
  ReceiverConfig rc;
  rc.sample_rate = 1e6;
  rc.noise_power = 0.0;
  const Receiver receiver(rc, ch);

  signal::StateTimeline tl(0.0);
  tl.add(500e-6, 1.0);
  const auto buffer = receiver.receive_epoch({{tl}}, 1e-3, rng);
  ASSERT_EQ(buffer.size(), 1000u);
  EXPECT_NEAR(buffer[100].real(), 0.5, 1e-9);  // before toggle: environment
  EXPECT_NEAR(buffer[900].real(), 0.6, 1e-9);  // after toggle: env + tag
}

TEST(Receiver, RequiresOneTimelinePerTag) {
  Rng rng(2);
  channel::ChannelModel ch;
  ch.add_tag({0.1, 0.0});
  ch.add_tag({0.2, 0.0});
  const Receiver receiver(ReceiverConfig{}, ch);
  EXPECT_THROW(receiver.receive_epoch({{signal::StateTimeline{}}}, 1e-3, rng),
               CheckError);
}

TEST(Receiver, SparseCompositionMatchesDense) {
  // The sparse (difference-array) composition must agree with the dense
  // per-tag render path, up to ramp-discretization at the handful of
  // samples inside each transition.
  Rng rng(77);
  channel::ChannelModel ch;
  std::vector<tag::Tag> tags;
  protocol::FrameConfig fc;
  const std::size_t n = 6;
  for (std::size_t i = 0; i < n; ++i) {
    ch.add_tag(std::polar(rng.uniform(0.08, 0.2), rng.uniform(0.0, 6.2831)));
    tag::TagConfig tc;
    tc.incoming_energy = rng.uniform(0.7, 1.3);
    tags.emplace_back(tc, rng);
  }
  std::vector<signal::StateTimeline> timelines;
  std::size_t transitions = 0;
  for (auto& t : tags) {
    timelines.push_back(
        t.transmit_epoch({protocol::build_frame(rng.bits(96), fc)}, 1.5e-3,
                         rng)
            .timeline);
    transitions += timelines.back().transitions().size();
  }

  ReceiverConfig dense_cfg;
  dense_cfg.noise_power = 0.0;
  ReceiverConfig sparse_cfg = dense_cfg;
  sparse_cfg.sparse_threshold = 1;  // force the sparse path
  const Receiver dense(dense_cfg, ch);
  const Receiver sparse(sparse_cfg, ch);
  Rng r1(1), r2(1);
  const auto a = dense.receive_epoch(timelines, 1.5e-3, r1);
  const auto b = sparse.receive_epoch(timelines, 1.5e-3, r2);
  ASSERT_EQ(a.size(), b.size());

  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > 1e-9) ++mismatched;
  }
  // Only ramp-interior samples may differ; each transition spans ~4.
  EXPECT_LE(mismatched, transitions * 4);
  // And the sparse capture decodes identically well.
  core::DecoderConfig dc;
  dc.frame = fc;
  EXPECT_EQ(core::LfDecoder(dc).decode(b).valid_payloads().size(),
            core::LfDecoder(dc).decode(a).valid_payloads().size());
}

}  // namespace
}  // namespace lfbs::reader
