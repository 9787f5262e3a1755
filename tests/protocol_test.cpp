// Tests for src/protocol: CRCs, framing, rate plans, rate control, and
// identification sessions.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "protocol/crc.h"
#include "protocol/epoch.h"
#include "protocol/frame.h"
#include "protocol/identification.h"
#include "protocol/rate_control.h"
#include "protocol/reliability.h"

namespace lfbs::protocol {
namespace {

TEST(Crc5, DetectsSingleBitErrors) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto payload = rng.bits(97);
    auto framed = append_crc5(payload);
    ASSERT_TRUE(check_crc5(framed));
    const std::size_t flip = rng.uniform_u64(framed.size());
    framed[flip] = !framed[flip];
    EXPECT_FALSE(check_crc5(framed)) << "missed flip at " << flip;
  }
}

TEST(Crc5, KnownRegisterBehaviour) {
  // All-zero input leaves the preset shifted through: deterministic value.
  const std::vector<bool> zeros(8, false);
  const auto a = crc5_epc(zeros);
  const auto b = crc5_epc(zeros);
  EXPECT_EQ(a, b);
  EXPECT_LT(a, 32);  // 5 bits
  // Different inputs give different CRCs (almost surely for these two).
  std::vector<bool> ones(8, true);
  EXPECT_NE(crc5_epc(ones), a);
}

TEST(Crc16, DetectsBurstErrors) {
  Rng rng(2);
  const auto payload = rng.bits(97);
  auto framed = append_crc16(payload);
  ASSERT_TRUE(check_crc16(framed));
  // A 5-bit burst anywhere must be caught (CRC-16 guarantees bursts <= 16).
  for (std::size_t start = 0; start + 5 < framed.size(); start += 7) {
    auto corrupted = framed;
    for (std::size_t i = start; i < start + 5; ++i) {
      corrupted[i] = !corrupted[i];
    }
    EXPECT_FALSE(check_crc16(corrupted));
  }
}

TEST(Crc16, TooShortInputFails) {
  EXPECT_FALSE(check_crc16(std::vector<bool>(10, true)));
  EXPECT_FALSE(check_crc5(std::vector<bool>(3, true)));
}

TEST(Frame, RoundTrip) {
  Rng rng(3);
  const FrameConfig cfg;  // 96-bit payload, CRC-16
  const auto payload = rng.bits(cfg.payload_bits);
  const auto bits = build_frame(payload, cfg);
  EXPECT_EQ(bits.size(), cfg.frame_bits());
  EXPECT_TRUE(bits.front());  // anchor
  const ParsedFrame parsed = parse_frame(bits, cfg);
  EXPECT_TRUE(parsed.valid());
  EXPECT_EQ(parsed.payload, payload);
}

TEST(Frame, Crc5Variant) {
  Rng rng(4);
  FrameConfig cfg;
  cfg.crc = CrcKind::kCrc5;
  EXPECT_EQ(cfg.frame_bits(), 1u + 96u + 5u);
  const auto payload = rng.bits(96);
  const auto bits = build_frame(payload, cfg);
  EXPECT_TRUE(parse_frame(bits, cfg).valid());
}

TEST(Frame, CorruptionFlagsNotThrows) {
  Rng rng(5);
  const FrameConfig cfg;
  auto bits = build_frame(rng.bits(cfg.payload_bits), cfg);
  bits[0] = false;  // break the anchor
  const ParsedFrame no_anchor = parse_frame(bits, cfg);
  EXPECT_FALSE(no_anchor.anchor_ok);
  bits[0] = true;
  bits[50] = !bits[50];  // break the payload
  const ParsedFrame bad_crc = parse_frame(bits, cfg);
  EXPECT_TRUE(bad_crc.anchor_ok);
  EXPECT_FALSE(bad_crc.crc_ok);
}

TEST(Frame, WrongLengthIsInvalid) {
  const FrameConfig cfg;
  EXPECT_FALSE(parse_frame(std::vector<bool>(5, true), cfg).valid());
}

TEST(Frame, ParseStreamSplitsConsecutiveFrames) {
  Rng rng(6);
  const FrameConfig cfg;
  const auto p1 = rng.bits(cfg.payload_bits);
  const auto p2 = rng.bits(cfg.payload_bits);
  auto stream = build_frame(p1, cfg);
  const auto f2 = build_frame(p2, cfg);
  stream.insert(stream.end(), f2.begin(), f2.end());
  stream.push_back(true);  // trailing partial garbage
  const auto frames = parse_stream(stream, cfg);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, p1);
  EXPECT_EQ(frames[1].payload, p2);
  EXPECT_TRUE(frames[0].valid() && frames[1].valid());
}

/// The bitwise CRC definitions, one register step per bit, MSB first, over
/// bits [begin, end).
std::uint16_t bitwise_crc16(const std::vector<bool>& bits, std::size_t begin,
                            std::size_t end) {
  std::uint16_t reg = 0xFFFF;
  for (std::size_t i = begin; i < end; ++i) {
    const bool msb = (reg & 0x8000) != 0;
    reg = static_cast<std::uint16_t>(reg << 1);
    if (msb != bits[i]) reg ^= 0x1021;
  }
  return reg;
}

std::uint8_t bitwise_crc5(const std::vector<bool>& bits, std::size_t begin,
                          std::size_t end) {
  std::uint8_t reg = 0b01001;
  for (std::size_t i = begin; i < end; ++i) {
    const bool msb = (reg & 0b10000) != 0;
    reg = static_cast<std::uint8_t>((reg << 1) & 0b11111);
    if (msb != bits[i]) reg ^= 0b01001;
  }
  return reg;
}

/// The `width` bits before `end` as a number, MSB first.
unsigned trailing_value(const std::vector<bool>& bits, std::size_t end,
                        std::size_t width) {
  unsigned v = 0;
  for (std::size_t i = end - width; i < end; ++i) {
    v = (v << 1) | (bits[i] ? 1 : 0);
  }
  return v;
}

// The table CRC, over packed and unpacked bits, equals the bitwise
// definition at every length (every tail of 0-7 bits after whole bytes),
// and the zero-residue checks accept exactly the strings whose trailing
// bits equal the CRC of the bits before them.
TEST(Crc, TableMatchesBitwise) {
  Rng rng(1802);
  for (std::size_t len = 0; len <= 200; ++len) {
    for (int trial = 0; trial < 4; ++trial) {
      auto bits = rng.bits(len);
      const std::vector<std::uint8_t> unpacked(bits.begin(), bits.end());
      EXPECT_EQ(crc16_ccitt(bits), bitwise_crc16(bits, 0, len)) << len;
      EXPECT_EQ(crc16_ccitt(unpacked), bitwise_crc16(bits, 0, len)) << len;
      EXPECT_EQ(crc5_epc(bits), bitwise_crc5(bits, 0, len)) << len;
      EXPECT_EQ(crc5_epc(unpacked), bitwise_crc5(bits, 0, len)) << len;
      // Half the strings end in their own CRC, half in random bits.
      if (trial % 2 == 0 && len >= 16) {
        const auto crc = bitwise_crc16(bits, 0, len - 16);
        for (std::size_t b = 0; b < 16; ++b) {
          bits[len - 16 + b] = ((crc >> (15 - b)) & 1) != 0;
        }
      }
      EXPECT_EQ(check_crc16(bits),
                len >= 16 && trailing_value(bits, len, 16) ==
                                 bitwise_crc16(bits, 0, len - 16))
          << len;
      if (trial % 2 == 0 && len >= 5) {
        const auto crc = bitwise_crc5(bits, 0, len - 5);
        for (std::size_t b = 0; b < 5; ++b) {
          bits[len - 5 + b] = ((crc >> (4 - b)) & 1) != 0;
        }
      }
      EXPECT_EQ(check_crc5(bits),
                len >= 5 && trailing_value(bits, len, 5) ==
                                bitwise_crc5(bits, 0, len - 5))
          << len;
    }
  }
}

/// The per-offset scan scan_frames replaced: at every offset whose anchor
/// bit is set, copy the frame out and compare its trailing CRC bits with
/// the bitwise CRC of the bits before them. Counts the offsets tried and
/// the CRC failures.
struct ReferenceScan {
  std::vector<ParsedFrame> frames;
  std::uint64_t tried = 0;
  std::uint64_t failed = 0;
};

ReferenceScan per_offset_scan(const std::vector<bool>& bits,
                              const FrameConfig& cfg) {
  ReferenceScan out;
  const std::size_t len = cfg.frame_bits();
  const std::size_t crc = cfg.crc_bits();
  std::size_t begin = 0;
  while (begin + len <= bits.size()) {
    if (!bits[begin]) {
      ++begin;
      continue;
    }
    ++out.tried;
    const std::vector<bool> chunk(
        bits.begin() + static_cast<std::ptrdiff_t>(begin),
        bits.begin() + static_cast<std::ptrdiff_t>(begin + len));
    const unsigned want = cfg.crc == CrcKind::kCrc5
                              ? bitwise_crc5(chunk, 0, len - crc)
                              : bitwise_crc16(chunk, 0, len - crc);
    if (trailing_value(chunk, len, crc) != want) {
      ++out.failed;
      ++begin;
      continue;
    }
    ParsedFrame f;
    f.anchor_ok = true;
    f.crc_ok = true;
    f.payload.assign(chunk.begin() + 1,
                     chunk.end() - static_cast<std::ptrdiff_t>(crc));
    out.frames.push_back(std::move(f));
    begin += len;
  }
  return out;
}

// Random threads of planted frames with slipped (dropped or inserted)
// bits, flipped bits, runs of zeros and a trailing partial frame, for both
// CRCs: scan_frames finds the same frames in the same order as the
// per-offset reference, and counts the same offsets tried and failed.
TEST(ScanFrames, MatchesPerOffsetReference) {
  Rng rng(1803);
  obs::Counter& parsed = obs::metrics().counter("protocol.frames_parsed");
  obs::Counter& failed = obs::metrics().counter("protocol.frames_crc_failed");
  for (int trial = 0; trial < 60; ++trial) {
    FrameConfig cfg;
    cfg.crc = trial % 2 == 0 ? CrcKind::kCrc16 : CrcKind::kCrc5;
    cfg.payload_bits = trial % 3 == 0 ? 96 : 8 + rng.uniform_u64(40);
    std::vector<bool> bits;
    const std::size_t frames = rng.uniform_u64(12);
    for (std::size_t f = 0; f < frames; ++f) {
      auto frame = build_frame(rng.bits(cfg.payload_bits), cfg);
      switch (rng.uniform_u64(5)) {
        case 0:  // slip: a bit lost
          frame.erase(frame.begin() + static_cast<std::ptrdiff_t>(
                                          rng.uniform_u64(frame.size())));
          break;
        case 1:  // slip: a bit inserted
          frame.insert(frame.begin() + static_cast<std::ptrdiff_t>(
                                           rng.uniform_u64(frame.size())),
                       rng.bernoulli(0.5));
          break;
        case 2: {  // flip
          const std::size_t at = rng.uniform_u64(frame.size());
          frame[at] = !frame[at];
          break;
        }
        default: break;
      }
      bits.insert(bits.end(), frame.begin(), frame.end());
      if (rng.bernoulli(0.3)) {  // a run of zeros
        bits.insert(bits.end(), rng.uniform_u64(30), false);
      }
    }
    if (rng.bernoulli(0.5)) {  // trailing partial frame
      const auto frame = build_frame(rng.bits(cfg.payload_bits), cfg);
      bits.insert(bits.end(), frame.begin(),
                  frame.begin() + static_cast<std::ptrdiff_t>(
                                      rng.uniform_u64(frame.size())));
    }
    const ReferenceScan want = per_offset_scan(bits, cfg);
    const std::uint64_t parsed_before = parsed.value();
    const std::uint64_t failed_before = failed.value();
    const auto got = scan_frames(bits, cfg);
    EXPECT_EQ(parsed.value() - parsed_before, want.tried) << "trial " << trial;
    EXPECT_EQ(failed.value() - failed_before, want.failed) << "trial " << trial;
    ASSERT_EQ(got.size(), want.frames.size()) << "trial " << trial;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].payload, want.frames[k].payload) << "trial " << trial;
      EXPECT_TRUE(got[k].valid()) << "trial " << trial;
    }
  }
}

TEST(RatePlan, PaperRatesAllDivideMax) {
  const RatePlan plan = RatePlan::paper_rates();
  const BitRate max = plan.max();
  EXPECT_DOUBLE_EQ(max, 100.0 * kKbps);
  EXPECT_DOUBLE_EQ(plan.min(), 0.5 * kKbps);
  for (BitRate r : plan.rates) {
    const double m = max / r;
    EXPECT_NEAR(m, std::round(m), 1e-9) << r;
  }
}

TEST(RatePlan, ValidityTolerance) {
  const RatePlan plan = RatePlan::paper_rates();
  EXPECT_TRUE(plan.is_valid(100.0 * kKbps));
  EXPECT_TRUE(plan.is_valid(100.0 * kKbps * (1.0 + 1e-9)));
  EXPECT_FALSE(plan.is_valid(30.0 * kKbps));
}

TEST(RateController, LowersOnHeavyLoss) {
  RateController rc(RatePlan::paper_rates(), 100.0 * kKbps);
  const auto cmd = rc.on_epoch(100, 60);
  ASSERT_TRUE(cmd.has_value());
  EXPECT_DOUBLE_EQ(*cmd, 50.0 * kKbps);
  EXPECT_DOUBLE_EQ(rc.current_max(), 50.0 * kKbps);
}

TEST(RateController, RaisesAfterPatienceCleanEpochs) {
  RateController rc(RatePlan::paper_rates(), 50.0 * kKbps);
  EXPECT_FALSE(rc.on_epoch(100, 0).has_value());
  EXPECT_FALSE(rc.on_epoch(100, 0).has_value());
  const auto cmd = rc.on_epoch(100, 0);
  ASSERT_TRUE(cmd.has_value());
  EXPECT_DOUBLE_EQ(*cmd, 100.0 * kKbps);
}

TEST(RateController, ModerateLossHoldsSteady) {
  RateController rc(RatePlan::paper_rates(), 50.0 * kKbps);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(rc.on_epoch(100, 10).has_value());
  }
  EXPECT_DOUBLE_EQ(rc.current_max(), 50.0 * kKbps);
}

TEST(RateController, NeverLeavesThePlan) {
  RateController rc(RatePlan::paper_rates(), 0.5 * kKbps);
  EXPECT_FALSE(rc.on_epoch(10, 10).has_value());  // already at the floor
  EXPECT_DOUBLE_EQ(rc.current_max(), 0.5 * kKbps);
}

// Exactly a quarter failed holds the rate; one frame more lowers it.
TEST(RateController, LowersOnlyAboveOneQuarterFailed) {
  RateController rc(RatePlan::paper_rates(), 100.0 * kKbps);
  EXPECT_FALSE(rc.on_epoch(100, 25).has_value());
  EXPECT_DOUBLE_EQ(rc.current_max(), 100.0 * kKbps);
  const auto cmd = rc.on_epoch(100, 26);
  ASSERT_TRUE(cmd.has_value());
  EXPECT_DOUBLE_EQ(*cmd, 50.0 * kKbps);
}

// 1 failed in 100 is a clean epoch; 2 in 100 is not and restarts the
// patience count.
TEST(RateController, CleanMeansUnderTwoPercentFailed) {
  RateController rc(RatePlan::paper_rates(), 50.0 * kKbps);
  EXPECT_FALSE(rc.on_epoch(100, 1).has_value());
  EXPECT_FALSE(rc.on_epoch(100, 1).has_value());
  EXPECT_FALSE(rc.on_epoch(100, 2).has_value());
  EXPECT_FALSE(rc.on_epoch(100, 1).has_value());
  EXPECT_FALSE(rc.on_epoch(100, 1).has_value());
  const auto raise = rc.on_epoch(100, 1);
  ASSERT_TRUE(raise.has_value());
  EXPECT_DOUBLE_EQ(*raise, 100.0 * kKbps);
}

TEST(Identification, RandomEpcsAreUniqueAnd96Bits) {
  Rng rng(7);
  const auto ids = random_epcs(32, rng);
  EXPECT_EQ(ids.size(), 32u);
  for (const auto& id : ids) EXPECT_EQ(id.size(), 96u);
}

TEST(Identification, SessionTracksProgress) {
  Rng rng(8);
  const auto ids = random_epcs(4, rng);
  IdentificationSession session(ids);
  EXPECT_FALSE(session.complete());
  session.record_round({ids[0], ids[1], ids[0]}, 1e-3);
  EXPECT_EQ(session.identified_count(), 2u);
  session.record_round({ids[2], ids[3]}, 1e-3);
  EXPECT_TRUE(session.complete());
  EXPECT_NEAR(session.elapsed(), 2e-3, 1e-12);
  EXPECT_EQ(session.rounds(), 2u);
}

TEST(Identification, PhantomIdsIgnored) {
  Rng rng(9);
  const auto ids = random_epcs(2, rng);
  IdentificationSession session(ids);
  session.record_round({rng.bits(96)}, 1e-3);  // garbage decode
  EXPECT_EQ(session.identified_count(), 0u);
}

TEST(ReliableTransfer, DeliversOnConfirmation) {
  Rng rng(10);
  ReliableTransfer link(2);
  const auto p0 = rng.bits(96);
  const auto p1 = rng.bits(96);
  link.enqueue(0, p0);
  link.enqueue(1, p1);
  EXPECT_EQ(link.pending(), 2u);
  const auto on_air = link.epoch_payloads(1);
  ASSERT_EQ(on_air.size(), 2u);
  EXPECT_EQ(on_air[0][0], p0);
  EXPECT_EQ(link.on_epoch_decoded({p0}), 1u);
  EXPECT_EQ(link.pending(), 1u);
  EXPECT_EQ(link.delivered(), 1u);
}

TEST(ReliableTransfer, RetransmitsUntilConfirmed) {
  Rng rng(11);
  ReliableTransfer link(1);
  const auto p = rng.bits(96);
  link.enqueue(0, p);
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto on_air = link.epoch_payloads(1);
    ASSERT_EQ(on_air[0].size(), 1u);   // still offered
    link.on_epoch_decoded({});         // lost
  }
  link.epoch_payloads(1);
  link.on_epoch_decoded({p});
  EXPECT_EQ(link.delivered(), 1u);
  // Latency histogram records the 4th attempt.
  ASSERT_GE(link.latency_histogram().size(), 5u);
  EXPECT_EQ(link.latency_histogram()[4], 1u);
}

TEST(ReliableTransfer, AbandonsAfterMaxAttempts) {
  Rng rng(12);
  ReliableTransfer::Config cfg;
  cfg.max_attempts = 2;
  ReliableTransfer link(1, cfg);
  link.enqueue(0, rng.bits(96));
  link.epoch_payloads(1);
  link.on_epoch_decoded({});
  EXPECT_EQ(link.pending(), 1u);
  link.epoch_payloads(1);
  link.on_epoch_decoded({});
  EXPECT_EQ(link.pending(), 0u);
  EXPECT_EQ(link.abandoned(), 1u);
}

TEST(ReliableTransfer, OnlyInFlightFramesAge) {
  Rng rng(13);
  ReliableTransfer::Config cfg;
  cfg.max_attempts = 1;
  ReliableTransfer link(1, cfg);
  link.enqueue(0, rng.bits(96));
  link.enqueue(0, rng.bits(96));
  link.epoch_payloads(1);  // only the head frame goes on the air
  link.on_epoch_decoded({});
  // Head frame abandoned (1 attempt allowed); queued frame untouched.
  EXPECT_EQ(link.abandoned(), 1u);
  EXPECT_EQ(link.pending(), 1u);
}

TEST(ReliableTransfer, RetryForeverDoesNotStarveFreshFrames) {
  // Regression: with max_attempts = 0 and head-of-line selection, one
  // payload the reader can never decode occupied the single transmit slot
  // every epoch and the frames behind it never aired — pending() stayed
  // flat forever. Fewest-attempts-first selection must keep the queue
  // draining around the stuck frame.
  Rng rng(14);
  ReliableTransfer::Config cfg;
  cfg.max_attempts = 0;  // retry forever
  cfg.stuck_threshold = 4;
  ReliableTransfer link(1, cfg);
  const auto poison = rng.bits(96);  // reader never confirms this one
  link.enqueue(0, poison);
  const std::vector<std::vector<bool>> fresh = {rng.bits(96), rng.bits(96),
                                                rng.bits(96)};
  for (const auto& p : fresh) link.enqueue(0, p);

  for (int epoch = 0; epoch < 10; ++epoch) {
    const auto on_air = link.epoch_payloads(1);
    ASSERT_EQ(on_air[0].size(), 1u);
    // The reader decodes everything except the poison payload.
    if (on_air[0][0] != poison) {
      link.on_epoch_decoded({on_air[0][0]});
    } else {
      link.on_epoch_decoded({});
    }
  }
  // All fresh frames delivered despite the undecodable one retrying
  // forever; the poison frame is still pending, never abandoned.
  EXPECT_EQ(link.delivered(), fresh.size());
  EXPECT_EQ(link.pending(), 1u);
  EXPECT_EQ(link.abandoned(), 0u);
  // With 10 epochs and 3 delivered, the poison frame failed 7 times —
  // visible in the stuck-frame stats.
  EXPECT_EQ(link.max_attempts_pending(), 7u);
  EXPECT_EQ(link.stuck(), 1u);
}

TEST(ReliableTransfer, DuplicatePayloadsAcrossTags) {
  ReliableTransfer link(2);
  const std::vector<bool> same(96, true);
  link.enqueue(0, same);
  link.enqueue(1, same);
  link.epoch_payloads(1);
  // One confirmation delivers exactly one of the two copies.
  EXPECT_EQ(link.on_epoch_decoded({same}), 1u);
  EXPECT_EQ(link.pending(), 1u);
}

}  // namespace
}  // namespace lfbs::protocol
