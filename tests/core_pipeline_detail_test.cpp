// Focused tests for decode-pipeline internals that the end-to-end suites
// exercise only indirectly: weak-anchor trimming, outlier pruning, the
// collision ladder's goodness-of-fit thresholds, Viterbi priors, the
// decode_group branches (three-tag joint path, over-merge split, fit
// reuse), the pass's group fan-out against a serial composition of its
// stages, cancel_interference, the fallback ladder's identity rules, and
// the one tag identity every matcher shares.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <thread>
#include <utility>

#include "channel/channel_model.h"
#include "channel/noise.h"
#include "common/rng.h"
#include "core/collision_detector.h"
#include "core/decode_stages.h"
#include "core/error_corrector.h"
#include "core/stream_detector.h"
#include "core/tag_identity.h"
#include "core/windowed_decoder.h"
#include "obs/metrics.h"
#include "reader/receiver.h"
#include "signal/sample_buffer.h"
#include "signal/waveform.h"
#include "sim/scenario.h"
#include "tag/tag.h"
#include "test_support.h"

namespace lfbs::core {
namespace {

StreamDetectorConfig paper_config() {
  StreamDetectorConfig cfg;
  cfg.lattice_period = 250.0;
  cfg.base_tolerance = 3.5;
  cfg.merge_radius = 5.0;
  cfg.valid_steps = {200, 100, 50, 20, 10, 2, 1};
  return cfg;
}

TEST(StreamDetectorDetail, PrunesOffLatticeSeed) {
  // A spurious edge 20 samples off the true phase seeds the group; once the
  // genuine edges dominate the fit, the seed's residual exposes it.
  std::vector<signal::Edge> edges;
  edges.push_back({.position = 480.0, .differential = {0.02, 0.0},
                   .strength = 0.02});
  for (int k = 0; k < 30; ++k) {
    edges.push_back({.position = 750.0 + 250.0 * k,
                     .differential = {0.1, 0.0}, .strength = 0.1});
  }
  const StreamDetector det(paper_config());
  const auto groups = det.detect(edges);
  ASSERT_EQ(groups.size(), 1u);
  // The surviving group must be re-anchored on the true stream: intercept
  // near 750, not 480, and the spurious edge pruned.
  EXPECT_NEAR(std::fmod(groups[0].intercept, 250.0), 0.0, 3.0);
  EXPECT_EQ(groups[0].edge_indices.size(), 30u);
}

TEST(StreamDetectorDetail, TrimsWeakLeadingEdges) {
  // A weak noise edge exactly on the lattice, four slots early: strength
  // trimming must drop it so the anchor is the real first edge.
  std::vector<signal::Edge> edges;
  edges.push_back({.position = 1000.0, .differential = {0.01, 0.0},
                   .strength = 0.01});
  for (int k = 4; k < 34; ++k) {
    edges.push_back({.position = 1000.0 + 250.0 * k,
                     .differential = {0.1, 0.0}, .strength = 0.1});
  }
  const StreamDetector det(paper_config());
  const auto groups = det.detect(edges);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].edge_indices.size(), 30u);
  EXPECT_NEAR(groups[0].intercept, 2000.0, 3.0);
  EXPECT_EQ(groups[0].start_index, 0);
}

TEST(StreamDetectorDetail, KeepsStrongLeadingEdge) {
  // Same geometry but the early edge is as strong as the rest: it is a
  // legitimate (sparse) anchor and must be kept.
  std::vector<signal::Edge> edges;
  edges.push_back({.position = 1000.0, .differential = {0.1, 0.0},
                   .strength = 0.1});
  for (int k = 4; k < 34; ++k) {
    edges.push_back({.position = 1000.0 + 250.0 * k,
                     .differential = {0.1, 0.0}, .strength = 0.1});
  }
  const StreamDetector det(paper_config());
  const auto groups = det.detect(edges);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].edge_indices.size(), 31u);
  EXPECT_NEAR(groups[0].intercept, 1000.0, 3.0);
}

TEST(CollisionLadder, ResidualFractionControlsEscalation) {
  // Two tags at similar strength: the strict default escalates to 9; an
  // absurdly lax residual_fraction accepts 3 clusters and stays "single".
  Rng rng(5);
  std::vector<Complex> points;
  const Complex e1{0.1, 0.02}, e2{-0.03, 0.09};
  int l1 = 0, l2 = 0;
  for (int k = 0; k < 300; ++k) {
    const int n1 = rng.bernoulli(0.5) ? 1 : 0;
    const int n2 = rng.bernoulli(0.5) ? 1 : 0;
    points.push_back(static_cast<double>(n1 - l1) * e1 +
                     static_cast<double>(n2 - l2) * e2 +
                     Complex{rng.gaussian(0, 0.003), rng.gaussian(0, 0.003)});
    l1 = n1;
    l2 = n2;
  }
  CollisionDetectorConfig strict;
  EXPECT_EQ(CollisionDetector(strict).assess(points, rng).colliders, 2u);
  CollisionDetectorConfig lax;
  lax.residual_fraction = 10.0;
  EXPECT_EQ(CollisionDetector(lax).assess(points, rng).colliders, 1u);
}

TEST(CollisionLadder, ThreeWayCanBeDisabled) {
  Rng rng(6);
  std::vector<Complex> points;
  const Complex e[3] = {{0.1, 0.02}, {-0.03, 0.09}, {0.06, -0.08}};
  int l[3] = {0, 0, 0};
  for (int k = 0; k < 900; ++k) {
    Complex sum{rng.gaussian(0, 0.002), rng.gaussian(0, 0.002)};
    for (int t = 0; t < 3; ++t) {
      const int nt = rng.bernoulli(0.5) ? 1 : 0;
      sum += static_cast<double>(nt - l[t]) * e[t];
      l[t] = nt;
    }
    points.push_back(sum);
  }
  CollisionDetectorConfig no3;
  no3.consider_three_way = false;
  const auto assess = CollisionDetector(no3).assess(points, rng);
  EXPECT_LE(assess.colliders, 2u);
}

TEST(ErrorCorrectorDetail, EdgeProbabilityPriorBiasesHolds) {
  // With a strong "no toggle" prior, a borderline observation resolves to
  // holding the level; with a strong "toggle" prior, to an edge.
  const Complex e{0.1, 0.0};
  // The middle observation sits exactly between the "falling" and
  // "constant" emission means, so only the transition prior can break the
  // tie.
  const std::vector<Complex> points = {e, -0.5 * e, Complex{}};
  ThreeClusterLabels labels;
  labels.rising = e;
  labels.falling = -e;
  labels.constant = {};
  labels.states = {1, 0, 0};

  ErrorCorrector::Config hold_prior;
  hold_prior.edge_probability = 0.02;
  const auto hold_bits = ErrorCorrector(hold_prior).correct(points, labels);
  ErrorCorrector::Config edge_prior;
  edge_prior.edge_probability = 0.98;
  const auto edge_bits = ErrorCorrector(edge_prior).correct(points, labels);
  // Bit 1 differs between the two priors (anchor bit 0 = 1; the middle
  // observation is exactly between "stay 1" and "fall to 0 then rise").
  EXPECT_TRUE(hold_bits[1]);
  EXPECT_FALSE(edge_bits[1]);
}

// --- decode_group, cancel_interference and the ladder ----------------------

/// Sorted payloads, for order-free comparison.
std::vector<std::vector<bool>> sorted(std::vector<std::vector<bool>> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// A 16-tag 1.5 ms epoch at 25 Msps, one random frame per tag.
struct Epoch {
  signal::SampleBuffer buffer;
  DecoderConfig decoder;
  std::vector<std::vector<bool>> payloads;
};

Epoch sixteen_tag_epoch(std::uint64_t seed) {
  Rng rng(seed);
  sim::ScenarioConfig sc;
  sc.num_tags = 16;
  sim::Scenario scenario(sc, rng);
  std::vector<std::vector<std::vector<bool>>> per_tag(sc.num_tags);
  Epoch e;
  for (auto& p : per_tag) {
    p.push_back(rng.bits(96));
    e.payloads.push_back(p.back());
  }
  e.buffer = scenario.capture_epoch(per_tag, rng);
  e.decoder = scenario.default_decoder();
  e.decoder.robustness.fallback = false;
  return e;
}

TEST(DecodeGroupDetail, ThreeTagGroupTakesTheJointPath) {
  // Three tags on one lattice, anchors three bit periods apart: one
  // collision group whose 27-cluster geometry separates, decoded by the
  // 8-state joint Viterbi into three CRC-valid streams.
  Rng rng(5);
  reader::ReceiverConfig rc;
  channel::ChannelModel ch;
  ch.add_tag({0.11, 0.01});
  ch.add_tag({-0.02, 0.09});
  ch.add_tag({-0.07, -0.06});
  const protocol::FrameConfig fc;
  std::vector<std::vector<bool>> payloads;
  std::vector<signal::StateTimeline> timelines;
  for (int t = 0; t < 3; ++t) {
    payloads.push_back(rng.bits(fc.payload_bits));
    timelines.push_back(signal::nrz_timeline(
        protocol::build_frame(payloads.back(), fc), 100.4e-6 + t * 30e-6,
        10e-6));
  }
  const auto buffer =
      reader::Receiver(rc, ch).receive_epoch(timelines, 1.5e-3, rng);
  DecoderConfig dc;
  dc.robustness.fallback = false;
  const DecodeResult r = LfDecoder(dc).decode(buffer);
  EXPECT_EQ(r.diagnostics.groups, 1u);
  EXPECT_EQ(r.diagnostics.collision_groups, 1u);
  EXPECT_EQ(r.diagnostics.unresolved_groups, 0u);
  ASSERT_EQ(r.streams.size(), 3u);
  for (const DecodedStream& s : r.streams) EXPECT_TRUE(s.collided);
  EXPECT_EQ(sorted(r.valid_payloads()), sorted(payloads));
}

TEST(DecodeGroupDetail, OverMergedGroupSplitsIntoTwoStreams) {
  // In this epoch one group fuses two tags whose lattice phases nearly
  // coincide and resists IQ separation; its bimodal edge-position
  // residuals split it into two streams over two slot sets of its own.
  const Epoch e = sixteen_tag_epoch(118);
  const PassContext ctx(e.buffer, e.decoder);
  const Edges edges = detect_edges(ctx);
  const Groups groups = group_streams(ctx, edges);
  std::size_t splits = 0;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const BoundarySlots slots = extract_slots(ctx, edges, groups[gi]);
    const GroupDecode out = decode_group(ctx, edges, groups[gi], slots,
                                         derive_seed(e.decoder.seed, gi));
    if (out.split_slots.empty()) continue;
    ++splits;
    ASSERT_EQ(out.split_slots.size(), 2u);
    ASSERT_EQ(out.streams.size(), 2u);
    EXPECT_EQ(out.collision_groups, 1u);
    for (std::size_t h = 0; h < 2; ++h) {
      const PendingStream& ps = out.streams[h];
      EXPECT_TRUE(ps.collided);
      EXPECT_EQ(ps.slots_ref, 1 + h);
      EXPECT_FALSE(out.split_slots[h].diffs.empty());
    }
  }
  EXPECT_GE(splits, 1u);
}

TEST(DecodeGroupDetail, SingleStreamGroupFitsOnce) {
  // A group the assessment finds single decodes its bits from the
  // assessment's own k=3 fit; with collision recovery off, decode_single
  // makes that one fit itself.
  const Epoch e = sixteen_tag_epoch(3);
  const obs::Counter& kmeans_runs = obs::metrics().counter("dsp.kmeans_runs");
  for (const bool recovery : {true, false}) {
    DecoderConfig cfg = e.decoder;
    cfg.collision_recovery = recovery;
    const PassContext ctx(e.buffer, cfg);
    const Edges edges = detect_edges(ctx);
    const Groups groups = group_streams(ctx, edges);
    std::size_t singles = 0;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const BoundarySlots slots = extract_slots(ctx, edges, groups[gi]);
      if (slots.diffs.size() < 3) continue;
      const std::uint64_t before = kmeans_runs.value();
      const GroupDecode out = decode_group(ctx, edges, groups[gi], slots,
                                           derive_seed(cfg.seed, gi));
      const bool single = out.streams.size() == 1 &&
                          !out.streams[0].collided &&
                          out.collision_groups == 0 &&
                          out.unresolved_groups == 0;
      if (!single) continue;
      ++singles;
      EXPECT_EQ(kmeans_runs.value() - before, 1u)
          << "group " << gi << ", collision recovery " << recovery;
    }
    EXPECT_GE(singles, 4u) << "collision recovery " << recovery;
  }
}

TEST(DecodeGroupDetail, GroupDependsOnlyOnItsOwnInputs) {
  // Every group decoded alone, last group first, from its own seed, frames
  // exactly as its streams do inside the full (fanned-out) pass, which
  // lists each group's streams in group order. Interference cancellation
  // is off, so the pass's streams are the groups' streams framed.
  for (const std::uint64_t seed : {3, 7, 118, 277}) {
    const Epoch e = sixteen_tag_epoch(seed);
    DecoderConfig cfg = e.decoder;
    cfg.interference_cancellation = false;
    const DecodeResult pass = LfDecoder(cfg).decode(e.buffer);

    const PassContext ctx(e.buffer, cfg);
    const Edges edges = detect_edges(ctx);
    const Groups groups = group_streams(ctx, edges);
    std::vector<GroupDecode> alone(groups.size());
    for (std::size_t gi = groups.size(); gi-- > 0;) {
      const BoundarySlots slots = extract_slots(ctx, edges, groups[gi]);
      alone[gi] = decode_group(ctx, edges, groups[gi], slots,
                               derive_seed(cfg.seed, gi));
    }
    std::size_t next = 0, collisions = 0, unresolved = 0;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      for (const PendingStream& ps : alone[gi].streams) {
        ASSERT_LT(next, pass.streams.size()) << "seed " << seed;
        DecodeResult one, in_pass;
        one.streams.push_back(frame_stream(cfg, ps));
        in_pass.streams.push_back(pass.streams[next++]);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", group " +
                     std::to_string(gi));
        expect_identical(one, in_pass);
      }
      collisions += alone[gi].collision_groups;
      unresolved += alone[gi].unresolved_groups;
    }
    EXPECT_EQ(next, pass.streams.size()) << "seed " << seed;
    EXPECT_EQ(collisions, pass.diagnostics.collision_groups);
    EXPECT_EQ(unresolved, pass.diagnostics.unresolved_groups);
  }
}

// --- the pass's group fan-out -------------------------------------------------

/// One LfDecoder pass composed serially from the stages: groups decoded
/// one after another, each from its own seed, then folded in group order.
/// Counts the groups that split into `splits`.
DecodeResult serial_pass(const signal::SampleBuffer& buffer,
                         const DecoderConfig& cfg, std::size_t& splits) {
  DecodeResult result;
  if (buffer.empty()) return result;
  const PassContext ctx(buffer, cfg);
  const Edges edges = detect_edges(ctx);
  result.diagnostics.edges = edges.size();
  if (edges.empty()) return result;
  const Groups groups = group_streams(ctx, edges);
  result.diagnostics.groups = groups.size();
  std::vector<BoundarySlots> store;
  std::vector<GroupDecode> decoded;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    store.push_back(extract_slots(ctx, edges, groups[gi]));
    decoded.push_back(decode_group(ctx, edges, groups[gi], store.back(),
                                   derive_seed(cfg.seed, gi)));
  }
  std::vector<PendingStream> pending;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const GroupDecode& out = decoded[gi];
    splits += out.split_slots.empty() ? 0 : 1;
    for (PendingStream ps : out.streams) {
      ps.slots_ref = ps.slots_ref == 0 ? gi : store.size() + ps.slots_ref - 1;
      pending.push_back(std::move(ps));
    }
    store.insert(store.end(), out.split_slots.begin(), out.split_slots.end());
    result.diagnostics.collision_groups += out.collision_groups;
    result.diagnostics.unresolved_groups += out.unresolved_groups;
  }
  for (const PendingStream& ps : pending) {
    result.streams.push_back(frame_stream(cfg, ps));
  }
  cancel_interference(ctx, pending, store, result.streams);
  for (const DecodedStream& s : result.streams) {
    result.diagnostics.erasures += s.confidence.erasures;
  }
  return result;
}

/// LfDecoder::decode composed serially: serial_pass, then, when it frames
/// nothing, the degradation ladder's rungs as LfDecoder::decode sets them.
DecodeResult serial_decode(const signal::SampleBuffer& buffer,
                           const DecoderConfig& config, std::size_t& splits) {
  DecodeResult result = serial_pass(buffer, config, splits);
  if (!config.robustness.fallback || buffer.empty() ||
      result.valid_frames() > 0) {
    return result;
  }
  std::vector<std::pair<FallbackStage, DecoderConfig>> ladder;
  DecoderConfig reseeded = config;
  reseeded.seed = config.seed ^ 0xa5a5f00d5eedULL;
  ladder.emplace_back(FallbackStage::kReseeded, reseeded);
  DecoderConfig no_ec = config;
  no_ec.error_correction = false;
  ladder.emplace_back(FallbackStage::kNoErrorCorrection, no_ec);
  DecoderConfig edge_only = no_ec;
  edge_only.collision_recovery = false;
  ladder.emplace_back(FallbackStage::kEdgeOnly, edge_only);
  for (const double scale : {0.65, 0.45}) {
    DecoderConfig relaxed = config;
    relaxed.edge.adaptive_threshold = true;
    relaxed.edge.threshold_sigma =
        std::max(2.5, config.edge.threshold_sigma * scale);
    ladder.emplace_back(FallbackStage::kRelaxedDetection, relaxed);
  }
  for (const auto& [stage, cfg] : ladder) {
    if (result.valid_frames() > 0) break;
    DecodeResult alt = serial_pass(buffer, cfg, splits);
    ++result.diagnostics.fallback_passes;
    merge_fallback(result, std::move(alt), stage, buffer.sample_rate(),
                   config.frame);
  }
  std::sort(result.streams.begin(), result.streams.end(),
            [](const DecodedStream& a, const DecodedStream& b) {
              return a.start_sample < b.start_sample;
            });
  return result;
}

/// One tag at 8 dB SNR, 5 Msps: the 6-sigma threshold eats its edges, the
/// primary pass frames nothing, and the ladder runs.
signal::SampleBuffer ladder_capture() {
  Rng rng(77);
  const Complex h{0.08, 0.06};
  reader::ReceiverConfig rc;
  rc.sample_rate = 5.0 * kMsps;
  rc.noise_power = channel::noise_power_for_snr(std::norm(h), 8.0);
  channel::ChannelModel ch;
  ch.add_tag(h);
  const protocol::FrameConfig fc;
  std::vector<std::vector<bool>> frames;
  for (int f = 0; f < 8; ++f) {
    frames.push_back(protocol::build_frame(rng.bits(fc.payload_bits), fc));
  }
  const tag::TagConfig tc;
  tag::Tag tag(tc, rng);
  const Seconds duration = 8 * 113.0 / tc.rate + 1e-3;
  const std::vector<signal::StateTimeline> timelines{
      tag.transmit_epoch(frames, duration, rng).timeline};
  return reader::Receiver(rc, ch).receive_epoch(timelines, duration, rng);
}

TEST(LfDecoder, ThreadedPassEqualsStageByStageSerialPass) {
  // 120 16-tag epochs with the ladder on, then a capture that runs it:
  // LfDecoder::decode fans each pass's groups out to the pool, and must
  // equal the serial composition field by field.
  std::size_t collisions = 0, splits = 0, ladders = 0;
  const auto check = [&](const signal::SampleBuffer& buffer,
                         const DecoderConfig& cfg) {
    const DecodeResult threaded = LfDecoder(cfg).decode(buffer);
    const DecodeResult serial = serial_decode(buffer, cfg, splits);
    expect_identical(threaded, serial);
    collisions += serial.diagnostics.collision_groups;
    ladders += serial.diagnostics.fallback_passes > 0 ? 1 : 0;
  };
  for (std::uint64_t seed = 100; seed < 220; ++seed) {
    Epoch e = sixteen_tag_epoch(seed);
    e.decoder.robustness.fallback = true;
    SCOPED_TRACE("epoch " + std::to_string(seed));
    check(e.buffer, e.decoder);
  }
  check(ladder_capture(), DecoderConfig{});
  EXPECT_GT(collisions, 0u);
  EXPECT_GE(splits, 1u);
  EXPECT_GE(ladders, 1u);
}

TEST(LfDecoder, ConcurrentDecodesMatchTheirSerialResults) {
  // The runtime's shape: several threads decode at once on the one pool.
  std::vector<Epoch> epochs;
  std::vector<DecodeResult> alone;
  for (const std::uint64_t seed : {3, 118, 277}) {
    epochs.push_back(sixteen_tag_epoch(seed));
    alone.push_back(LfDecoder(epochs.back().decoder)
                        .decode(epochs.back().buffer));
  }
  std::vector<std::vector<DecodeResult>> got(epochs.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < epochs.size(); ++t) {
    threads.emplace_back([&, t] {
      const LfDecoder decoder(epochs[t].decoder);
      for (int r = 0; r < 8; ++r) {
        got[t].push_back(decoder.decode(epochs[t].buffer));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < epochs.size(); ++t) {
    for (const DecodeResult& r : got[t]) {
      SCOPED_TRACE("thread " + std::to_string(t));
      expect_identical(r, alone[t]);
    }
  }
}

/// Bit-for-bit equality of two decodes, for a forked child without gtest.
bool same_decode(const DecodeResult& a, const DecodeResult& b) {
  if (a.streams.size() != b.streams.size()) return false;
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    const DecodedStream& s = a.streams[i];
    const DecodedStream& t = b.streams[i];
    if (s.start_sample != t.start_sample || s.rate != t.rate ||
        s.collided != t.collided || s.bits != t.bits ||
        s.edge_vector != t.edge_vector || s.snr_db != t.snr_db ||
        s.frames.size() != t.frames.size()) {
      return false;
    }
    for (std::size_t f = 0; f < s.frames.size(); ++f) {
      if (s.frames[f].payload != t.frames[f].payload ||
          s.frames[f].valid() != t.frames[f].valid()) {
        return false;
      }
    }
  }
  return a.diagnostics.groups == b.diagnostics.groups &&
         a.diagnostics.collision_groups == b.diagnostics.collision_groups &&
         a.diagnostics.unresolved_groups == b.diagnostics.unresolved_groups;
}

TEST(LfDecoder, DecodesInAForkedChild) {
  // The parent's decode made the process's pool; a forked child decodes
  // on a pool of its own, to the same result. A hang fails the test.
  const Epoch e = sixteen_tag_epoch(118);
  const LfDecoder decoder(e.decoder);
  const DecodeResult parent = decoder.decode(e.buffer);
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) _exit(same_decode(decoder.decode(e.buffer), parent) ? 0 : 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int status = 0;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      FAIL() << "the forked child's decode did not finish in 60 s";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // The parent's pool takes its helpers back after the fork.
  expect_identical(decoder.decode(e.buffer), parent);
}

TEST(ExtractSlotsDetail, OneSlotPerLatticeIndex) {
  // A step-1 group on the 250-sample lattice from sample 1000: slot 3
  // holds two detections (a merged collision), slot 5 none.
  const signal::SampleBuffer buffer(25.0 * kMsps,
                                    std::vector<Complex>(37500));
  const DecoderConfig cfg;
  const PassContext ctx(buffer, cfg);
  StreamGroup group;
  group.intercept = 1000.0;
  group.slope = 250.0;
  Edges edges;
  const auto detect = [&](std::int64_t n, double position, double snr_db,
                          double confidence) {
    edges.push_back({.position = position,
                     .differential = {0.1, 0.0},
                     .strength = 0.1,
                     .snr_db = snr_db,
                     .confidence = confidence});
    group.lattice_indices.push_back(n);
  };
  for (std::int64_t n = 0; n < 8; ++n) {
    const double at = group.position_of(n);
    if (n == 3) {
      detect(n, at - 2.0, 9.0, 0.9);
      detect(n, at + 1.5, 14.0, 0.4);
    } else if (n != 5) {
      detect(n, at, 20.0, 0.8);
    }
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    group.edge_indices.push_back(i);
  }
  const BoundarySlots slots = extract_slots(ctx, edges, group);
  ASSERT_GE(slots.positions.size(), 8u);
  // Slot 3 spans [1748, 1751.5] of its two detections, and keeps the lower
  // confidence of one and the lower SNR of the other.
  EXPECT_EQ(slots.positions[3], 0.5 * (1748.0 + 1751.5));
  EXPECT_EQ(slots.confidences[3], 0.4);
  EXPECT_EQ(slots.snrs[3], 9.0);
  // Slot 5 has no detection: the lattice position, confidence 1 and no SNR.
  EXPECT_EQ(slots.positions[5], group.position_of(5));
  EXPECT_EQ(slots.confidences[5], 1.0);
  EXPECT_EQ(slots.snrs[5], kNoEdgeSnr);
  EXPECT_EQ(slots.confidences[4], 0.8);
  EXPECT_EQ(slots.snrs[4], 20.0);
}

TEST(ExtractSlotsDetail, ForeignGapsWhenSlotsRunBackwards) {
  // A step-1 group on the 250-sample lattice from sample 1000 over a noisy
  // buffer, with one foreign edge at a random offset between every two
  // slots. Slot 10's detection sits 300 samples, more than a bit period,
  // before its lattice position and just before a foreign edge, so slot
  // 10's search keys fall back past the foreign edges slot 9 found. Every
  // slot's diff equals the one from a brute-force search for the nearest
  // foreign edge on each side, under extract_slots' window rule.
  Rng rng(29);
  std::vector<Complex> samples(37500);
  for (Complex& x : samples) {
    x = {rng.gaussian(0.3, 0.05), rng.gaussian(-0.1, 0.05)};
  }
  const signal::SampleBuffer buffer(25.0 * kMsps, std::move(samples));
  const DecoderConfig cfg;
  const PassContext ctx(buffer, cfg);
  StreamGroup group;
  group.intercept = 1000.0;
  group.slope = 250.0;
  constexpr std::int64_t kDetected = 140;  // slots 0..139 hold a detection
  std::vector<double> lead(kDetected);
  std::vector<std::pair<double, std::int64_t>> placed;  // slot -1: foreign
  for (std::int64_t n = 0; n < kDetected; ++n) {
    const double at = group.position_of(n);
    lead[static_cast<std::size_t>(n)] =
        n == 10 ? at - 300.0 : at + rng.uniform(-1.0, 1.0);
    placed.emplace_back(lead[static_cast<std::size_t>(n)], n);
    placed.emplace_back(at + rng.uniform(20.0, 230.0), -1);
  }
  placed.emplace_back(group.position_of(10) - 280.0, -1);
  std::sort(placed.begin(), placed.end());
  Edges edges;
  std::vector<double> foreign;
  for (const auto& [position, n] : placed) {
    if (n >= 0) {
      group.edge_indices.push_back(edges.size());
      group.lattice_indices.push_back(n);
    } else {
      foreign.push_back(position);
    }
    edges.push_back({.position = position,
                     .differential = {0.1, 0.0},
                     .strength = 0.1,
                     .snr_db = 20.0,
                     .confidence = 0.8});
  }
  const BoundarySlots slots = extract_slots(ctx, edges, group);

  // extract_slots' rule: kBoundaryGuard 4, wmax = bit period / 3 in
  // [2, 40], and no slot skipped at the start (the first lies far past the
  // tail margin), so slot k is lattice index k.
  constexpr double kGuard = 4.0;
  constexpr double kWmax = 40.0;
  const double tol = ctx.group_tolerance;
  ASSERT_GT(slots.diffs.size(), static_cast<std::size_t>(kDetected));
  for (std::size_t k = 0; k < slots.diffs.size(); ++k) {
    const double at =
        k < lead.size() ? lead[k]
                        : group.position_of(static_cast<std::int64_t>(k));
    ASSERT_EQ(slots.positions[k], at) << "slot " << k;
    double before_gap = 1e9, after_gap = 1e9;
    for (double p : foreign) {
      if (p < at - tol) before_gap = std::min(before_gap, at - p);
      if (p > at + tol) after_gap = std::min(after_gap, p - at);
    }
    const double gb = std::clamp(before_gap / 3.0, 1.0, kGuard);
    const double ga = std::clamp(after_gap / 3.0, 1.0, kGuard);
    const auto wb =
        static_cast<std::size_t>(std::clamp(before_gap - gb - 1.0, 2.0, kWmax));
    const auto wa =
        static_cast<std::size_t>(std::clamp(after_gap - ga - 1.0, 2.0, kWmax));
    const Complex expected =
        signal::windowed_mean_after(
            buffer.span(), static_cast<SampleIndex>(std::llround(at + ga)),
            wa) -
        signal::windowed_mean_before(
            buffer.span(), static_cast<SampleIndex>(std::llround(at - gb)),
            wb);
    EXPECT_EQ(slots.diffs[k], expected) << "slot " << k;
  }
}

TEST(CancelInterferenceDetail, RepairsACrcFailedStream) {
  // In this epoch a stream fails its CRC because another tag's edges sit
  // inside its boundary measurements; subtracting the CRC-valid streams'
  // contributions and re-decoding recovers its frame.
  const Epoch e = sixteen_tag_epoch(277);
  DecoderConfig off = e.decoder;
  off.interference_cancellation = false;
  const DecodeResult with = LfDecoder(e.decoder).decode(e.buffer);
  const DecodeResult without = LfDecoder(off).decode(e.buffer);
  EXPECT_GT(with.valid_frames(), without.valid_frames());
  // Everything recovered was transmitted.
  for (const auto& p : with.valid_payloads()) {
    EXPECT_NE(std::find(e.payloads.begin(), e.payloads.end(), p),
              e.payloads.end());
  }
}

/// A 100 kbps stream at 25 Msps holding one frame of `payload`, whose
/// frames are parsed (so CRC-valid) or all marked CRC-failed.
DecodedStream framed_stream(const std::vector<bool>& payload, Complex vec,
                            bool valid) {
  const protocol::FrameConfig fc;
  DecodedStream s;
  s.start_sample = 1000.0;
  s.rate = 100e3;
  s.edge_vector = vec;
  s.bits = protocol::build_frame(payload, fc);
  s.frames = protocol::parse_stream(s.bits, fc);
  if (!valid) {
    for (protocol::ParsedFrame& f : s.frames) f.crc_ok = false;
  }
  return s;
}

/// merge_fallback of one candidate into a primary result holding one
/// CRC-failed stream with edge vector `primary`.
DecodeResult merge_one(Complex primary, Complex candidate) {
  Rng rng(3);
  const std::vector<bool> payload = rng.bits(96);
  DecodeResult result;
  result.streams.push_back(framed_stream(payload, primary, false));
  DecodeResult alt;
  alt.streams.push_back(framed_stream(payload, candidate, true));
  merge_fallback(result, std::move(alt), FallbackStage::kEdgeOnly, 25e6,
                 protocol::FrameConfig{});
  return result;
}

TEST(DecodeConfidenceDetail, PathMarginIsAMeanPerBoundaryMargin) {
  // Single and joint streams alike report their Viterbi's mean per-boundary
  // margin. Unreachable states score -inf, so no margin carries a finite
  // sentinel (a single stream's used to read about 1e18 / boundaries).
  const Epoch e = sixteen_tag_epoch(7);
  const DecodeResult r = LfDecoder(e.decoder).decode(e.buffer);
  bool single = false, joint = false;
  for (const DecodedStream& s : r.streams) {
    (s.collided ? joint : single) = true;
    EXPECT_TRUE(std::isfinite(s.confidence.path_margin));
    EXPECT_GT(s.confidence.path_margin, 0.0);
    EXPECT_LT(s.confidence.path_margin, 1e9);
  }
  EXPECT_TRUE(single);
  EXPECT_TRUE(joint);
}

TEST(FallbackLadderDetail, PolarityFlippedCandidateReplacesItsMatch) {
  const Complex v{0.1, 0.05};
  const DecodeResult r = merge_one(v, -v);
  ASSERT_EQ(r.streams.size(), 1u);
  EXPECT_EQ(r.streams[0].valid_frames(), 1u);
  EXPECT_EQ(r.streams[0].confidence.stage, FallbackStage::kEdgeOnly);
  EXPECT_EQ(r.diagnostics.fallback_recoveries, 1u);
}

TEST(FallbackLadderDetail, OverlappingUnmatchedCandidateIsDropped) {
  // Overlaps the primary stream in time but carries another channel
  // vector: most likely the unseparated mixture, never published.
  const DecodeResult r = merge_one({0.1, 0.0}, {0.0, 0.1});
  ASSERT_EQ(r.streams.size(), 1u);
  EXPECT_EQ(r.streams[0].valid_frames(), 0u);
  EXPECT_EQ(r.diagnostics.fallback_recoveries, 0u);
}

// --- TagIdentity -------------------------------------------------------------

TEST(TagIdentity, PolarityFlipMatchesExactly) {
  const Complex v{0.08, -0.03};
  const TagIdentity same = TagIdentity::compare(v, v);
  EXPECT_DOUBLE_EQ(same.distance, 0.0);
  EXPECT_FALSE(same.flipped);
  const TagIdentity flipped = TagIdentity::compare(-v, v);
  EXPECT_DOUBLE_EQ(flipped.distance, 0.0);
  EXPECT_TRUE(flipped.flipped);
}

TEST(TagIdentity, DistanceIsRelativeToTheReference) {
  const Complex ref{0.1, 0.0};
  const Complex off{0.0, 0.02};
  EXPECT_NEAR(TagIdentity::compare(ref + off, ref).distance, 0.2, 1e-12);
  // Scaling both vectors leaves the distance alone; scaling only the
  // reference scales it.
  EXPECT_NEAR(TagIdentity::compare(10.0 * (ref + off), 10.0 * ref).distance,
              0.2, 1e-12);
  EXPECT_NEAR(TagIdentity::compare(ref + off, 2.0 * ref).distance,
              std::abs(ref + off - 2.0 * ref) / std::abs(2.0 * ref), 1e-12);
}

/// `reference` scaled by 1 + `delta`: TagIdentity distance `delta`.
Complex stretched(Complex reference, double delta) {
  return (1.0 + delta) * reference;
}

TEST(TagIdentity, StitcherToleranceIsFourTenths) {
  // Two windows whose streams continue in rate and phase; only the edge
  // vector decides whether they stitch into one thread.
  const Complex v{0.1, 0.04};
  const auto threads = [&](double delta) {
    WindowedDecoderConfig wc;
    WindowStitcher stitcher(wc, 25e6);
    const auto window = [](Complex vec) {
      DecodeResult r;
      DecodedStream s;
      s.start_sample = 100.0;
      s.rate = 100e3;
      s.edge_vector = vec;
      s.bits.assign(40, true);
      r.streams.push_back(s);
      return r;
    };
    stitcher.add_window(window(v), 0);
    stitcher.add_window(window(stretched(v, delta)), 10000);
    return stitcher.finish().streams.size();
  };
  EXPECT_EQ(threads(0.38), 1u);
  EXPECT_EQ(threads(0.42), 2u);
}

TEST(TagIdentity, LadderToleranceIsOneHalf) {
  const Complex v{0.1, 0.04};
  EXPECT_EQ(merge_one(v, stretched(v, 0.48)).diagnostics.fallback_recoveries,
            1u);
  EXPECT_EQ(merge_one(v, stretched(v, 0.52)).diagnostics.fallback_recoveries,
            0u);
}

}  // namespace
}  // namespace lfbs::core
