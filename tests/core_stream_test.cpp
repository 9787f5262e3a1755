// Tests for the stream detector: lattice grouping, drift tracking, step
// estimation, and stream splitting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "common/rng.h"
#include "core/stream_detector.h"

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

std::vector<signal::Edge> edges_at(const std::vector<double>& positions) {
  std::vector<signal::Edge> edges;
  for (double p : positions) {
    edges.push_back({.position = p, .differential = {0.1, 0.0},
                     .strength = 0.1});
  }
  return edges;
}

TEST(StreamDetector, GroupsSinglePeriodicStream) {
  std::vector<double> pos;
  for (int k = 0; k < 20; ++k) pos.push_back(1000.0 + 250.0 * k);
  const StreamDetector det(paper_config());
  const auto groups = det.detect(edges_at(pos));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].edge_indices.size(), 20u);
  EXPECT_EQ(groups[0].step, 1);
  EXPECT_NEAR(groups[0].intercept, 1000.0, 1.0);
  EXPECT_NEAR(groups[0].slope, 250.0, 0.01);
}

TEST(StreamDetector, SeparatesTwoOffsets) {
  std::vector<double> pos;
  for (int k = 0; k < 20; ++k) {
    pos.push_back(1000.0 + 250.0 * k);
    pos.push_back(1100.0 + 250.0 * k);
  }
  std::sort(pos.begin(), pos.end());
  const StreamDetector det(paper_config());
  const auto groups = det.detect(edges_at(pos));
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].edge_indices.size(), 20u);
  EXPECT_EQ(groups[1].edge_indices.size(), 20u);
}

TEST(StreamDetector, TracksClockDrift) {
  // 200 ppm fast clock: period 250.05 samples.
  std::vector<double> pos;
  for (int k = 0; k < 100; ++k) pos.push_back(500.0 + 250.05 * k);
  const StreamDetector det(paper_config());
  const auto groups = det.detect(edges_at(pos));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].edge_indices.size(), 100u);
  EXPECT_NEAR(groups[0].slope, 250.05, 0.01);
}

TEST(StreamDetector, MergesSplinterPhases) {
  // Same tag with position noise that briefly exceeds base_tolerance: the
  // merge pass folds the splinter back.
  std::vector<double> pos;
  for (int k = 0; k < 30; ++k) {
    pos.push_back(700.0 + 250.0 * k + ((k % 7 == 3) ? 4.4 : 0.0));
  }
  const StreamDetector det(paper_config());
  const auto groups = det.detect(edges_at(pos));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].edge_indices.size(), 30u);
}

TEST(StreamDetector, DropsSparseNoise) {
  const StreamDetector det(paper_config());
  const auto groups = det.detect(edges_at({123.0, 7000.5, 15333.3}));
  // Unrelated positions cannot satisfy min_edges on a common lattice.
  for (const auto& g : groups) {
    EXPECT_GE(g.edge_indices.size(), det.config().min_edges);
  }
}

TEST(StreamDetector, SlowStreamStep) {
  // A 10 kbps stream at a 100 kbps lattice: edges every 10 slots.
  std::vector<double> pos;
  for (int k = 0; k < 12; ++k) pos.push_back(2000.0 + 2500.0 * k);
  const StreamDetector det(paper_config());
  const auto groups = det.detect(edges_at(pos));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].step, 10);
}

TEST(StreamDetector, SplitStreamsSingleFast) {
  const StreamDetector det(paper_config());
  std::vector<std::int64_t> idx;
  for (int k = 0; k < 60; ++k) {
    if (k % 2 == 0 || k % 3 == 0) idx.push_back(k);  // dense, irregular
  }
  const auto subs = det.split_streams(idx);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].step, 1);
}

TEST(StreamDetector, SplitStreamsSingleSlow) {
  const StreamDetector det(paper_config());
  std::vector<std::int64_t> idx;
  for (int k = 0; k < 20; ++k) idx.push_back(5 + 100 * k);
  const auto subs = det.split_streams(idx);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].step, 100);
  EXPECT_EQ(subs[0].start, 5);
}

TEST(StreamDetector, SplitsCoPhasedDifferentSlots) {
  // A 0.5 kbps tag (step 200, slot 0) and a 1 kbps tag (step 100, slot 2)
  // share a phase group but are separate streams, not a collision.
  const StreamDetector det(paper_config());
  std::vector<std::int64_t> idx;
  for (int k = 0; k < 57; ++k) idx.push_back(200 * k);
  for (int k = 0; k < 57; ++k) idx.push_back(2 + 100 * k);
  std::sort(idx.begin(), idx.end());
  auto subs = det.split_streams(idx);
  ASSERT_EQ(subs.size(), 2u);
  std::sort(subs.begin(), subs.end(),
            [](const auto& a, const auto& b) { return a.step > b.step; });
  EXPECT_EQ(subs[0].step, 200);
  EXPECT_EQ(subs[0].members.size(), 57u);
  EXPECT_EQ(subs[1].step, 100);
  EXPECT_EQ(subs[1].members.size(), 57u);
}

TEST(StreamDetector, CoincidentSlotsStayJoint) {
  // Same slot residues: a genuine repeated collision — one joint lattice.
  const StreamDetector det(paper_config());
  std::vector<std::int64_t> idx;
  for (int k = 0; k < 40; ++k) idx.push_back(100 * k);  // covers both tags
  const auto subs = det.split_streams(idx);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].step, 100);
}

TEST(StreamDetector, ContaminatedSlowStreamSurvives) {
  // A slow stream plus a thin uniform background (a fast tag drifting
  // through): the dominant class must still be recognized.
  const StreamDetector det(paper_config());
  std::vector<std::int64_t> idx;
  for (int k = 0; k < 30; ++k) idx.push_back(100 * k);
  // 35 background edges on unrelated slots (prime stride).
  for (int k = 0; k < 35; ++k) idx.push_back(13 + 97 * k);
  std::sort(idx.begin(), idx.end());
  idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
  const auto subs = det.split_streams(idx);
  bool found_slow = false;
  for (const auto& sub : subs) {
    if (sub.step == 100 && sub.members.size() >= 25) found_slow = true;
  }
  EXPECT_TRUE(found_slow);
}

TEST(StreamDetector, LeftoverClassesRecurseInResidueOrder) {
  // A step-10 stream on residue 0 plus four background edges: two on
  // residue 7 early in the group, two on residue 3 later. Each background
  // class is too small to veto step 10, so they become its leftover, and
  // the leftover decodes as one step-2 stream (all four are odd). Its
  // members list residue 3's class before residue 7's, each in member
  // order, so it starts at index 33, not at the group's first index 7.
  const StreamDetector det(paper_config());
  std::vector<std::int64_t> idx;
  for (int k = 0; k < 20; ++k) idx.push_back(10 * k);
  for (std::int64_t n : {7, 17, 33, 43}) idx.push_back(n);
  std::sort(idx.begin(), idx.end());
  const auto position = [&](std::int64_t n) {
    return static_cast<std::size_t>(
        std::find(idx.begin(), idx.end(), n) - idx.begin());
  };
  const auto subs = det.split_streams(idx);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].step, 10);
  EXPECT_EQ(subs[0].start, 0);
  EXPECT_EQ(subs[0].members.size(), 20u);
  EXPECT_EQ(subs[1].step, 2);
  EXPECT_EQ(subs[1].start, 33);
  EXPECT_EQ(subs[1].members,
            (std::vector<std::size_t>{position(33), position(43), position(7),
                                      position(17)}));
}

TEST(StreamDetector, ConsensusStepAnchorsAtTheDominantClassFirstIndex) {
  // Residue 2 holds 4 of 5 indices; the anchor is its first index in
  // input order (12), not the first index overall (5).
  const std::vector<std::int64_t> idx = {5, 12, 22, 32, 42};
  EXPECT_EQ(consensus_step(idx, {10}, 0.8),
            (std::pair<std::int64_t, std::int64_t>{10, 12}));
  // No step reaches consensus: step 1 at the first index.
  EXPECT_EQ(consensus_step(idx, {10}, 0.9),
            (std::pair<std::int64_t, std::int64_t>{1, 5}));
}

TEST(StreamDetector, ConsensusStepTieGoesToTheLowestResidue) {
  // Residues 3 and 1 hold two indices each. The lower residue, 1, is
  // dominant, anchored at its first index in input order (21, not 11).
  const std::vector<std::int64_t> idx = {3, 13, 21, 11};
  EXPECT_EQ(consensus_step(idx, {10}, 0.5),
            (std::pair<std::int64_t, std::int64_t>{10, 21}));
}

TEST(StreamDetector, ConsensusStepMatchesSortedResidueReference) {
  // consensus_step against a reference that classes each step's indices
  // as runs of sorted (residue, position) pairs, over random index sets
  // with negative and repeated indices and step lists drawn from 1-250.
  // Most indices sit on one step of the list, so consensus at a large
  // step, at a small one and at step 1 (listed, or the fallback) all occur.
  const auto reference = [](const std::vector<std::int64_t>& indices,
                            std::vector<std::int64_t> steps, double consensus,
                            std::int64_t max_step) {
    std::sort(steps.begin(), steps.end(), std::greater<>());
    for (std::int64_t step : steps) {
      if (step > max_step) continue;
      std::vector<std::pair<std::int64_t, std::size_t>> keyed;
      for (std::size_t k = 0; k < indices.size(); ++k) {
        keyed.emplace_back(((indices[k] % step) + step) % step, k);
      }
      std::sort(keyed.begin(), keyed.end());
      // The first of the largest runs of one residue.
      std::size_t best = 0, best_size = 0;
      for (std::size_t i = 0; i < keyed.size();) {
        std::size_t j = i;
        while (j < keyed.size() && keyed[j].first == keyed[i].first) ++j;
        if (j - i > best_size) {
          best = i;
          best_size = j - i;
        }
        i = j;
      }
      if (static_cast<double>(best_size) /
              static_cast<double>(indices.size()) >=
          consensus) {
        return std::pair{step, indices[keyed[best].second]};
      }
    }
    return std::pair{std::int64_t{1}, indices.front()};
  };
  Rng rng(28);
  std::size_t at_step_one = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::int64_t> steps(
        static_cast<std::size_t>(rng.uniform_int(1, 8)));
    for (std::int64_t& s : steps) s = rng.uniform_int(1, 250);
    const std::int64_t period = steps[rng.uniform_u64(steps.size())];
    const std::int64_t base = rng.uniform_int(-1000, 1000);
    const double stray = rng.uniform(0.0, 0.5);
    std::vector<std::int64_t> indices(
        static_cast<std::size_t>(rng.uniform_int(1, 300)));
    for (std::int64_t& n : indices) {
      n = rng.bernoulli(stray) ? rng.uniform_int(-2000, 2000)
                               : base + period * rng.uniform_int(-20, 20);
    }
    const double consensus = rng.uniform(0.3, 1.0);
    const std::int64_t max_step =
        rng.bernoulli(0.25) ? rng.uniform_int(1, 250)
                            : std::numeric_limits<std::int64_t>::max();
    const auto expected = reference(indices, steps, consensus, max_step);
    ASSERT_EQ(consensus_step(indices, steps, consensus, max_step), expected)
        << "trial " << trial;
    if (expected.first == 1) ++at_step_one;
  }
  EXPECT_GT(at_step_one, 100u);
  EXPECT_LT(at_step_one, 1900u);
}

TEST(StreamDetector, EstimateStepConsensus) {
  StreamDetectorConfig cfg = paper_config();
  const StreamDetector det(cfg);
  std::vector<std::int64_t> idx = {0, 10, 20, 40, 70, 90};
  const auto [step, start] = det.estimate_step(idx);
  EXPECT_EQ(step, 10);
  EXPECT_EQ(start, 0);
}

}  // namespace
}  // namespace lfbs::core
