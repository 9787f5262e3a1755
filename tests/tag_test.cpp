// Tests for src/tag: clock drift, comparator wake-up, modulation, sensors,
// and the assembled tag.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/stats.h"
#include "tag/clock_model.h"
#include "tag/modulator.h"
#include "tag/sensor.h"
#include "tag/start_trigger.h"
#include "tag/tag.h"

namespace lfbs::tag {
namespace {

TEST(ClockModel, DriftWithinConfiguredBound) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    ClockModel clock({.drift_ppm = 150.0, .jitter_ppm = 0.0}, rng);
    EXPECT_LE(std::abs(clock.actual_ppm()), 150.0);
  }
}

TEST(ClockModel, StretchedAppliesPpm) {
  Rng rng(2);
  const ClockModel clock({.drift_ppm = 150.0, .jitter_ppm = 0.0}, rng);
  const double expected = 1e-5 * (1.0 + clock.actual_ppm() * 1e-6);
  EXPECT_NEAR(clock.stretched(1e-5), expected, 1e-18);
}

TEST(ClockModel, JitterAveragesOut) {
  Rng rng(3);
  const ClockModel clock({.drift_ppm = 0.0, .jitter_ppm = 50.0}, rng);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += clock.next_cycle(1e-5, rng);
  EXPECT_NEAR(sum / n, 1e-5, 1e-9);
}

TEST(ClockModel, DifferentPartsDifferentDrift) {
  Rng rng(4);
  const ClockModel a({.drift_ppm = 150.0, .jitter_ppm = 0.0}, rng);
  const ClockModel b({.drift_ppm = 150.0, .jitter_ppm = 0.0}, rng);
  EXPECT_NE(a.actual_ppm(), b.actual_ppm());
}

TEST(StartTrigger, MoreEnergyFiresEarlier) {
  Rng rng(5);
  StartTrigger::Config cfg;
  cfg.charging_noise = 0.0;
  const StartTrigger trigger(cfg, rng);
  EXPECT_LT(trigger.fire_delay(1.3, rng), trigger.fire_delay(0.7, rng));
}

TEST(StartTrigger, PartToPartSpreadCoversBitPeriods) {
  // The paper's argument (§3.2): natural comparator randomness spreads the
  // start offsets across several bit periods at 100 kbps.
  Rng rng(6);
  std::vector<double> delays;
  for (int i = 0; i < 200; ++i) {
    const StartTrigger trigger(StartTrigger::Config{}, rng);
    delays.push_back(trigger.fire_delay(rng.uniform(0.7, 1.3), rng));
  }
  const double spread = dsp::max(delays) - dsp::min(delays);
  EXPECT_GT(spread, 3e-5);  // more than three 10 us bit periods
}

TEST(StartTrigger, PerEpochJitterNonZero) {
  Rng rng(7);
  const StartTrigger trigger(StartTrigger::Config{}, rng);
  const double a = trigger.fire_delay(1.0, rng);
  const double b = trigger.fire_delay(1.0, rng);
  EXPECT_NE(a, b);
  EXPECT_NEAR(a, b, 2e-5);  // but small versus the part-to-part spread
}

TEST(StartTrigger, SurvivesExtremeEnergy) {
  Rng rng(8);
  const StartTrigger trigger(StartTrigger::Config{}, rng);
  EXPECT_GT(trigger.fire_delay(0.05, rng), 0.0);  // clamps, never NaN/inf
  EXPECT_TRUE(std::isfinite(trigger.fire_delay(100.0, rng)));
}

TEST(Modulator, BoundariesFollowClock) {
  Rng rng(9);
  const ClockModel clock({.drift_ppm = 0.0, .jitter_ppm = 0.0}, rng);
  const Modulator mod(100.0 * kKbps);
  std::vector<Seconds> boundaries;
  const auto tl = mod.modulate({true, false, true}, 1e-3, clock, rng,
                               &boundaries);
  ASSERT_EQ(boundaries.size(), 4u);  // 3 bits + trailing boundary
  EXPECT_DOUBLE_EQ(boundaries[0], 1e-3);
  EXPECT_NEAR(boundaries[1] - boundaries[0], 1e-5, 1e-12);
  EXPECT_DOUBLE_EQ(tl.level_at(1.005e-3), 1.0);
  EXPECT_DOUBLE_EQ(tl.level_at(1.015e-3), 0.0);
}

TEST(Sensors, TemperatureQuantizesPlausibly) {
  Rng rng(10);
  TemperatureSensor sensor(22.0, 12);
  const auto bits = sensor.sample_bits(24, rng);
  EXPECT_EQ(bits.size(), 24u);
  EXPECT_NEAR(sensor.last_reading(), 22.0, 2.0);
}

TEST(Sensors, MediaSensorIsHighEntropy) {
  Rng rng(11);
  MediaSensor sensor;
  const auto bits = sensor.sample_bits(4000, rng);
  int ones = 0;
  for (bool b : bits) ones += b ? 1 : 0;
  EXPECT_NEAR(ones, 2000, 200);
}

TEST(Sensors, IdentifierRepeats) {
  Rng rng(12);
  IdentifierSensor sensor({true, false, true});
  const auto bits = sensor.sample_bits(7, rng);
  const std::vector<bool> expected = {true, false, true, true,
                                      false, true, true};
  EXPECT_EQ(bits, expected);
}

TEST(Tag, TransmitsWholeFramesWithinEpoch) {
  Rng rng(13);
  TagConfig cfg;
  cfg.rate = 100.0 * kKbps;
  Tag tag(cfg, rng);
  const std::vector<bool> frame(50, true);
  const auto tx = tag.transmit_epoch({frame, frame}, 2e-3, rng);
  EXPECT_EQ(tx.frames_completed, 2u);
  EXPECT_EQ(tx.bits.size(), 100u);
  EXPECT_EQ(tx.boundaries.size(), 101u);
  EXPECT_GT(tx.start_time, 0.0);
}

TEST(Tag, TruncatesAtEpochEnd) {
  Rng rng(14);
  TagConfig cfg;
  cfg.rate = 1.0 * kKbps;  // 1 ms per bit
  Tag tag(cfg, rng);
  const std::vector<bool> frame(100, true);  // needs 100 ms
  const auto tx = tag.transmit_epoch({frame}, 10e-3, rng);
  EXPECT_EQ(tx.frames_completed, 0u);
  EXPECT_LT(tx.bits.size(), frame.size());
  EXPECT_LE(tx.boundaries.back(), 10e-3);
}

TEST(Tag, RateCommandOnlyAffectsListeners) {
  Rng rng(15);
  TagConfig deaf;
  deaf.rate = 100.0 * kKbps;
  deaf.listens_to_reader = false;
  Tag deaf_tag(deaf, rng);
  deaf_tag.apply_rate_command(10.0 * kKbps);
  EXPECT_DOUBLE_EQ(deaf_tag.rate(), 100.0 * kKbps);

  TagConfig obedient = deaf;
  obedient.listens_to_reader = true;
  Tag listening_tag(obedient, rng);
  listening_tag.apply_rate_command(10.0 * kKbps);
  EXPECT_DOUBLE_EQ(listening_tag.rate(), 10.0 * kKbps);
  // A raise command never exceeds the current rate.
  listening_tag.apply_rate_command(50.0 * kKbps);
  EXPECT_DOUBLE_EQ(listening_tag.rate(), 10.0 * kKbps);
}

TEST(Tag, StartTimeVariesAcrossEpochs) {
  Rng rng(16);
  TagConfig cfg;
  Tag tag(cfg, rng);
  const std::vector<bool> frame(10, true);
  const auto a = tag.transmit_epoch({frame}, 1e-3, rng);
  const auto b = tag.transmit_epoch({frame}, 1e-3, rng);
  EXPECT_NE(a.start_time, b.start_time);
}

}  // namespace
}  // namespace lfbs::tag
