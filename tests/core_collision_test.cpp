// Tests for collision detection, parallelogram separation, bit decoding,
// and the Viterbi error corrector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/bit_decoder.h"
#include "core/collision_detector.h"
#include "core/collision_separator.h"
#include "core/error_corrector.h"
#include "dsp/kmeans.h"

namespace lfbs::core {
namespace {

/// Synthesizes boundary differentials for `colliders` tags with the given
/// edge vectors: each boundary draws independent levels per tag.
struct SyntheticCollision {
  std::vector<Complex> points;
  std::vector<std::vector<int>> states;  // per tag, per boundary
};

SyntheticCollision synthesize(const std::vector<Complex>& evecs,
                              std::size_t boundaries, double sigma,
                              Rng& rng) {
  SyntheticCollision out;
  out.states.resize(evecs.size());
  std::vector<int> level(evecs.size(), 0);
  for (std::size_t k = 0; k < boundaries; ++k) {
    Complex sum{rng.gaussian(0.0, sigma), rng.gaussian(0.0, sigma)};
    for (std::size_t t = 0; t < evecs.size(); ++t) {
      const int next = rng.bernoulli(0.5) ? 1 : 0;
      const int d = next - level[t];
      level[t] = next;
      out.states[t].push_back(d);
      sum += static_cast<double>(d) * evecs[t];
    }
    out.points.push_back(sum);
  }
  return out;
}

TEST(CollisionDetector, SingleStreamIsThreeClusters) {
  Rng rng(1);
  const auto data = synthesize({{0.1, 0.05}}, 200, 0.004, rng);
  const CollisionDetector det{CollisionDetectorConfig{}};
  const auto assess = det.assess(data.points, rng);
  EXPECT_EQ(assess.colliders, 1u);
}

TEST(CollisionDetector, TwoTagsAreNineClusters) {
  Rng rng(2);
  const auto data =
      synthesize({{0.1, 0.05}, {-0.04, 0.09}}, 300, 0.004, rng);
  const CollisionDetector det{CollisionDetectorConfig{}};
  const auto assess = det.assess(data.points, rng);
  EXPECT_EQ(assess.colliders, 2u);
  EXPECT_EQ(assess.fit.centroids.size(), 9u);
}

TEST(CollisionDetector, ThreeTagsEscalate) {
  Rng rng(3);
  const auto data = synthesize(
      {{0.1, 0.05}, {-0.04, 0.09}, {0.07, -0.08}}, 900, 0.002, rng);
  const CollisionDetector det{CollisionDetectorConfig{}};
  const auto assess = det.assess(data.points, rng);
  EXPECT_EQ(assess.colliders, 3u);
}

TEST(CollisionDetector, FewPointsStaySingle) {
  Rng rng(4);
  const auto data = synthesize({{0.1, 0.0}}, 8, 0.002, rng);
  const CollisionDetector det{CollisionDetectorConfig{}};
  EXPECT_EQ(det.assess(data.points, rng).colliders, 1u);
}

/// Parameterized sweep over collision geometries: relative phase (degrees)
/// and amplitude ratio of the second tag.
class SeparatorSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SeparatorSweep, RecoversStates) {
  const auto [phase_deg, ratio] = GetParam();
  Rng rng(42);
  const Complex e1{0.1, 0.02};
  const Complex e2 = e1 * std::polar(ratio, phase_deg * M_PI / 180.0);
  const auto data = synthesize({e1, e2}, 400, 0.05 * std::abs(e2), rng);

  const dsp::KMeansResult fit = dsp::kmeans(data.points, 9, rng);
  const CollisionSeparator sep;
  const auto result = sep.separate(data.points, fit);
  ASSERT_TRUE(result.has_value())
      << "phase " << phase_deg << " ratio " << ratio;

  // Allow component order and per-component sign ambiguity.
  const auto accuracy = [&](const std::vector<EdgeState>& got,
                            const std::vector<int>& truth) {
    int flip = 0;
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (truth[k] != 0 && got[k] != 0) {
        flip = truth[k] * got[k];
        break;
      }
    }
    if (flip == 0) flip = 1;
    std::size_t ok = 0;
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (got[k] * flip == truth[k]) ++ok;
    }
    return static_cast<double>(ok) / static_cast<double>(got.size());
  };
  const double direct = accuracy(result->states1, data.states[0]) +
                        accuracy(result->states2, data.states[1]);
  const double swapped = accuracy(result->states1, data.states[1]) +
                         accuracy(result->states2, data.states[0]);
  EXPECT_GT(std::max(direct, swapped) / 2.0, 0.95)
      << "phase " << phase_deg << " ratio " << ratio;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SeparatorSweep,
    ::testing::Combine(::testing::Values(40.0, 90.0, 140.0),
                       ::testing::Values(0.5, 0.8, 1.2)));

TEST(CollisionSeparator, ThreeWayRecoversAxes) {
  Rng rng(77);
  const Complex e1{0.11, 0.01};
  const Complex e2{-0.02, 0.09};
  const Complex e3{-0.07, -0.06};
  const auto data = synthesize({e1, e2, e3}, 1200, 0.004, rng);
  const dsp::KMeansResult fit = dsp::kmeans(data.points, 27, rng);
  const CollisionSeparator sep;
  const auto result = sep.separate_three(data.points, fit);
  ASSERT_TRUE(result.has_value());
  // Each recovered axis must match one true axis up to sign.
  const std::vector<Complex> truth = {e1, e2, e3};
  for (Complex got : {result->e1, result->e2, result->e3}) {
    double best = 1e9;
    for (const Complex& t : truth) {
      best = std::min({best, std::abs(got - t), std::abs(got + t)});
    }
    EXPECT_LT(best, 0.02);
  }
  EXPECT_LT(result->residual, 0.3);
}

TEST(CollisionSeparator, ThreeWayRejectsTwoTagData) {
  Rng rng(78);
  const auto data = synthesize({{0.1, 0.02}, {-0.03, 0.09}}, 1200, 0.004, rng);
  const dsp::KMeansResult fit = dsp::kmeans(data.points, 27, rng);
  const CollisionSeparator sep;
  // 27 clusters force-fit to 9-cluster data: no consistent 3-axis grid.
  const auto result = sep.separate_three(data.points, fit);
  if (result.has_value()) {
    // If a degenerate "third axis" sneaks through it must be tiny relative
    // to the real ones — the pipeline's anchor checks then drop it.
    const double weakest =
        std::min({std::abs(result->e1), std::abs(result->e2),
                  std::abs(result->e3)});
    EXPECT_LT(weakest, 0.03);
  }
}

// ---------------------------------------------------------------------------
// Reference separators: the search before the grid-match bound and the
// three-way screen, sorting every hypothesis's n² distances. The separators
// must return exactly what these return. Grid and classification distances
// use lfbs::magnitude, the separators' own formula at those sites.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The (a, b, ...) ∈ {-1, 0, 1}^dims combinations, first index outermost.
std::vector<std::vector<int>> combinations(std::size_t dims) {
  std::vector<std::vector<int>> out = {{}};
  for (std::size_t d = 0; d < dims; ++d) {
    std::vector<std::vector<int>> next;
    for (const auto& prefix : out) {
      for (int v = -1; v <= 1; ++v) {
        next.push_back(prefix);
        next.back().push_back(v);
      }
    }
    out = std::move(next);
  }
  return out;
}

/// a·e1 + b·e2 (+ c·e3), in the separators' order of operations.
Complex combine(const std::vector<int>& combo, const std::vector<Complex>& e) {
  Complex sum = static_cast<double>(combo[0]) * e[0];
  for (std::size_t t = 1; t < e.size(); ++t) {
    sum += static_cast<double>(combo[t]) * e[t];
  }
  return sum;
}

/// Greedy matching over all distances, sorted: the worst matched distance.
double reference_match(const std::vector<Complex>& centroids,
                       const std::vector<Complex>& axes,
                       const std::vector<std::vector<int>>& combos) {
  struct Entry {
    double d;
    std::size_t centroid, combo;
  };
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < centroids.size(); ++i) {
    for (std::size_t j = 0; j < combos.size(); ++j) {
      entries.push_back(
          {magnitude(centroids[i] - combine(combos[j], axes)), i, j});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.d < b.d; });
  std::vector<bool> cu(centroids.size(), false), gu(combos.size(), false);
  std::size_t matched = 0;
  double worst = 0.0;
  for (const Entry& e : entries) {
    if (cu[e.centroid] || gu[e.combo]) continue;
    cu[e.centroid] = true;
    gu[e.combo] = true;
    worst = std::max(worst, e.d);
    if (++matched == centroids.size()) break;
  }
  return matched == centroids.size() ? worst : kInf;
}

struct ReferenceResult {
  std::vector<Complex> axes;
  std::vector<std::vector<EdgeState>> states;
  double residual = 0.0;
};

/// Origin index, origin-relative centroids, and the outer ones.
struct Shifted {
  std::size_t origin = 0;
  std::vector<Complex> all, outer;
  double strongest = 0.0;
};

Shifted shift(const std::vector<Complex>& centroids) {
  Shifted s;
  for (std::size_t i = 1; i < centroids.size(); ++i) {
    if (std::abs(centroids[i]) < std::abs(centroids[s.origin])) s.origin = i;
  }
  for (std::size_t i = 0; i < centroids.size(); ++i) {
    s.all.push_back(centroids[i] - centroids[s.origin]);
    if (i != s.origin) s.outer.push_back(s.all.back());
  }
  for (const Complex& c : s.outer) {
    s.strongest = std::max(s.strongest, std::abs(c));
  }
  return s;
}

/// Acceptance, then per-point classification against the winning grid.
std::optional<ReferenceResult> reference_finish(
    std::span<const Complex> points, Complex offset,
    const std::vector<Complex>& axes, double quality,
    const std::vector<std::vector<int>>& combos) {
  if (!std::isfinite(quality)) return std::nullopt;
  double weakest = std::abs(axes[0]);
  for (const Complex& e : axes) weakest = std::min(weakest, std::abs(e));
  if (quality > 0.5 * weakest) return std::nullopt;
  ReferenceResult r;
  r.axes = axes;
  r.states.resize(axes.size());
  double residual_sum = 0.0;
  for (const Complex& p : points) {
    double best_d = kInf;
    const std::vector<int>* best_combo = nullptr;
    for (const auto& combo : combos) {
      Complex expected = offset;
      for (std::size_t t = 0; t < axes.size(); ++t) {
        expected += static_cast<double>(combo[t]) * axes[t];
      }
      const double d = magnitude(p - expected);
      if (d < best_d) {
        best_d = d;
        best_combo = &combo;
      }
    }
    for (std::size_t t = 0; t < axes.size(); ++t) {
      r.states[t].push_back((*best_combo)[t]);
    }
    residual_sum += best_d;
  }
  r.residual = residual_sum / (static_cast<double>(points.size()) * weakest);
  return r;
}

std::optional<ReferenceResult> reference_separate(
    std::span<const Complex> points, const dsp::KMeansResult& fit) {
  if (fit.centroids.size() != 9 || points.empty()) return std::nullopt;
  const Shifted s = shift(fit.centroids);
  if (s.strongest <= 0.0) return std::nullopt;
  const auto combos = combinations(2);
  struct Midpoint {
    std::size_t index;
    double error;
  };
  std::vector<Midpoint> midpoints;
  for (std::size_t i = 0; i < s.outer.size(); ++i) {
    for (std::size_t j = i + 1; j < s.outer.size(); ++j) {
      const Complex mid = (s.outer[i] + s.outer[j]) * 0.5;
      const double span = std::abs(s.outer[i] - s.outer[j]);
      if (span <= 0.0) continue;
      for (std::size_t k = 0; k < s.outer.size(); ++k) {
        if (k == i || k == j) continue;
        const double err = std::abs(s.outer[k] - mid) / span;
        if (err <= 0.2) midpoints.push_back({k, err});
      }
    }
  }
  std::sort(midpoints.begin(), midpoints.end(),
            [](const Midpoint& a, const Midpoint& b) {
              return a.error < b.error;
            });
  double best = kInf;
  std::vector<Complex> best_axes = {{}, {}};
  const auto consider = [&](Complex e1, Complex e2) {
    if (std::min(std::abs(e1), std::abs(e2)) < 0.05 * s.strongest) return;
    const double cross = std::abs(e1.real() * e2.imag() - e1.imag() * e2.real());
    if (cross < 0.05 * std::abs(e1) * std::abs(e2)) return;
    const double q = reference_match(s.all, {e1, e2}, combos);
    if (q < best) {
      best = q;
      best_axes = {e1, e2};
    }
  };
  for (std::size_t a = 0; a < midpoints.size(); ++a) {
    for (std::size_t b = a + 1; b < midpoints.size(); ++b) {
      consider(s.outer[midpoints[a].index], s.outer[midpoints[b].index]);
    }
  }
  if (!std::isfinite(best)) {
    for (std::size_t a = 0; a < s.outer.size(); ++a) {
      for (std::size_t b = a + 1; b < s.outer.size(); ++b) {
        consider(s.outer[a], s.outer[b]);
      }
    }
  }
  return reference_finish(points, fit.centroids[s.origin], best_axes, best,
                          combos);
}

std::optional<ReferenceResult> reference_separate_three(
    std::span<const Complex> points, const dsp::KMeansResult& fit) {
  if (fit.centroids.size() != 27 || points.empty()) return std::nullopt;
  const Shifted s = shift(fit.centroids);
  if (s.strongest <= 0.0) return std::nullopt;
  const auto combos = combinations(3);
  std::vector<std::size_t> order(s.outer.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::abs(s.outer[a]) < std::abs(s.outer[b]);
  });
  const std::size_t pool = std::min<std::size_t>(order.size(), 12);
  const auto cross = [](Complex u, Complex v) {
    return std::abs(u.real() * v.imag() - u.imag() * v.real());
  };
  double best = kInf;
  std::vector<Complex> best_axes = {{}, {}, {}};
  for (std::size_t x = 0; x < pool; ++x) {
    for (std::size_t y = x + 1; y < pool; ++y) {
      for (std::size_t z = y + 1; z < pool; ++z) {
        const Complex e1 = s.outer[order[x]];
        const Complex e2 = s.outer[order[y]];
        const Complex e3 = s.outer[order[z]];
        if (std::min({std::abs(e1), std::abs(e2), std::abs(e3)}) <
            0.05 * s.strongest) {
          continue;
        }
        if (cross(e1, e2) < 0.1 * std::abs(e1) * std::abs(e2) ||
            cross(e1, e3) < 0.1 * std::abs(e1) * std::abs(e3) ||
            cross(e2, e3) < 0.1 * std::abs(e2) * std::abs(e3)) {
          continue;
        }
        if (std::abs(e1 + e2) < 0.2 * std::abs(e1) ||
            std::abs(e1 + e3) < 0.2 * std::abs(e1) ||
            std::abs(e2 + e3) < 0.2 * std::abs(e2)) {
          continue;
        }
        const double q = reference_match(s.all, {e1, e2, e3}, combos);
        if (q < best) {
          best = q;
          best_axes = {e1, e2, e3};
        }
      }
    }
  }
  return reference_finish(points, fit.centroids[s.origin], best_axes, best,
                          combos);
}

/// Random edge vectors of magnitude 0.05-0.15, and a noise sigma of
/// 0.005-0.1 (log-uniform) times the weakest one.
struct Geometry {
  std::vector<Complex> axes;
  double sigma;
};

Geometry random_geometry(std::size_t tags, Rng& rng) {
  Geometry g;
  double weakest = kInf;
  for (std::size_t t = 0; t < tags; ++t) {
    g.axes.push_back(
        std::polar(rng.uniform(0.05, 0.15), rng.uniform(0.0, 2.0 * M_PI)));
    weakest = std::min(weakest, std::abs(g.axes.back()));
  }
  g.sigma = 0.005 * std::pow(20.0, rng.uniform()) * weakest;
  return g;
}

TEST(CollisionSeparator, TwoWayEqualsFullSortSearch) {
  const CollisionSeparator sep;
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(1600 + seed);
    // Every third fit is three tags' data, as decode_group refits a failed
    // three-way separation with 9 clusters.
    const Geometry g = random_geometry(seed % 3 == 0 ? 3 : 2, rng);
    const auto data = synthesize(g.axes, 400, g.sigma, rng);
    const dsp::KMeansResult fit = dsp::kmeans(data.points, 9, rng);
    const auto got = sep.separate(data.points, fit);
    const auto want = reference_separate(data.points, fit);
    ASSERT_EQ(got.has_value(), want.has_value()) << "seed " << seed;
    if (!got) continue;
    ++accepted;
    EXPECT_EQ(got->e1, want->axes[0]) << "seed " << seed;
    EXPECT_EQ(got->e2, want->axes[1]) << "seed " << seed;
    EXPECT_EQ(got->states1, want->states[0]) << "seed " << seed;
    EXPECT_EQ(got->states2, want->states[1]) << "seed " << seed;
    EXPECT_EQ(got->residual, want->residual) << "seed " << seed;
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 0u) << accepted;
  EXPECT_LT(accepted, 120u);
}

TEST(CollisionSeparator, ThreeWayEqualsFullSortSearch) {
  const CollisionSeparator sep;
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(1700 + seed);
    const Geometry g = random_geometry(3, rng);
    const auto data = synthesize(g.axes, 900, g.sigma, rng);
    const dsp::KMeansResult fit = dsp::kmeans(data.points, 27, rng);
    const auto got = sep.separate_three(data.points, fit);
    const auto want = reference_separate_three(data.points, fit);
    ASSERT_EQ(got.has_value(), want.has_value()) << "seed " << seed;
    if (!got) continue;
    ++accepted;
    EXPECT_EQ(got->e1, want->axes[0]) << "seed " << seed;
    EXPECT_EQ(got->e2, want->axes[1]) << "seed " << seed;
    EXPECT_EQ(got->e3, want->axes[2]) << "seed " << seed;
    EXPECT_EQ(got->states1, want->states[0]) << "seed " << seed;
    EXPECT_EQ(got->states2, want->states[1]) << "seed " << seed;
    EXPECT_EQ(got->states3, want->states[2]) << "seed " << seed;
    EXPECT_EQ(got->residual, want->residual) << "seed " << seed;
  }
  // Accepted three-way fits are among the seeds, and so are rejections.
  EXPECT_GE(accepted, 10u) << accepted;
  EXPECT_LT(accepted, 120u);
}

TEST(ErrorCorrector, Joint3SeparatesThreeTags) {
  Rng rng(79);
  const Complex e1{0.11, 0.01}, e2{-0.02, 0.09}, e3{-0.07, -0.06};
  const auto data = synthesize({e1, e2, e3}, 400, 0.008, rng);
  const std::vector<bool> all(400, true);
  const ErrorCorrector corrector;
  const auto joint = corrector.correct_joint(data.points, {e1, e2, e3},
                                             {all, all, all}, 0.008);
  int l[3] = {0, 0, 0};
  std::size_t ok[3] = {0, 0, 0};
  const std::vector<bool>* levels[3] = {&joint.levels[0], &joint.levels[1],
                                        &joint.levels[2]};
  for (std::size_t k = 0; k < 400; ++k) {
    for (int t = 0; t < 3; ++t) {
      l[t] += data.states[t][k];
      if ((*levels[t])[k] == (l[t] != 0)) ++ok[t];
    }
  }
  for (int t = 0; t < 3; ++t) EXPECT_GT(ok[t], 390u) << "tag " << t;
}

TEST(CollisionSeparator, RejectsNonGrid) {
  Rng rng(5);
  // Nine random blobs that are not a parallelogram grid.
  std::vector<Complex> points;
  std::vector<Complex> centres;
  for (int i = 0; i < 9; ++i) {
    centres.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  for (int i = 0; i < 300; ++i) {
    const Complex c = centres[rng.uniform_u64(9)];
    points.push_back(c + Complex{rng.gaussian(0, 0.01), rng.gaussian(0, 0.01)});
  }
  const dsp::KMeansResult fit = dsp::kmeans(points, 9, rng);
  const CollisionSeparator sep;
  EXPECT_FALSE(sep.separate(points, fit).has_value());
}

TEST(CollisionSeparator, RejectsWrongClusterCount) {
  Rng rng(6);
  std::vector<Complex> points = {{0, 0}, {1, 1}};
  const dsp::KMeansResult fit = dsp::kmeans(points, 2, rng);
  const CollisionSeparator sep;
  EXPECT_FALSE(sep.separate(points, fit).has_value());
}

TEST(BitDecoder, LabelsThreeClustersWithAnchor) {
  Rng rng(7);
  const auto data = synthesize({{0.1, -0.06}}, 200, 0.003, rng);
  // Force the first boundary to be the rising anchor.
  std::vector<Complex> points = data.points;
  points.insert(points.begin(), Complex{0.1, -0.06});
  const dsp::KMeansResult fit = dsp::kmeans(points, 3, rng);
  const ThreeClusterLabels labels = label_three_clusters(points, fit);
  EXPECT_EQ(labels.states.front(), 1);  // anchor is rising
  EXPECT_NEAR(std::abs(labels.rising - Complex{0.1, -0.06}), 0.0, 0.02);
  EXPECT_NEAR(std::abs(labels.falling + Complex{0.1, -0.06}), 0.0, 0.02);
  EXPECT_LT(std::abs(labels.constant), 0.02);
}

TEST(BitDecoder, IntegrateStatesTableOne) {
  // Table 1 of the paper: edges ↓ - - - ↑ - ↓ ↑ ↓ after an anchor 1.
  const std::vector<EdgeState> states = {1, -1, 0, 0, 0, 1, 0, -1, 1, -1};
  const std::vector<bool> expected = {true, false, false, false, false,
                                      true, true, false, true, false};
  EXPECT_EQ(integrate_states(states), expected);
}

TEST(BitDecoder, NormalizeAnchorFlipsWhenNeeded) {
  std::vector<EdgeState> flipped = {0, -1, 0, 1, -1};
  EXPECT_TRUE(normalize_anchor(flipped));
  EXPECT_EQ(flipped, (std::vector<EdgeState>{0, 1, 0, -1, 1}));
  std::vector<EdgeState> fine = {1, -1};
  EXPECT_FALSE(normalize_anchor(fine));
  std::vector<EdgeState> all_zero = {0, 0};
  EXPECT_FALSE(normalize_anchor(all_zero));
}

TEST(BitDecoder, SubsampleStates) {
  const std::vector<EdgeState> states = {1, 0, -1, 0, 1, 0};
  EXPECT_EQ(subsample_states(states, 0, 2),
            (std::vector<EdgeState>{1, -1, 1}));
  EXPECT_EQ(subsample_states(states, 1, 2),
            (std::vector<EdgeState>{0, 0, 0}));
}

TEST(BitDecoder, ClassifySimpleThresholds) {
  const std::vector<Complex> points = {{0.1, 0.0},   // anchor (rising)
                                       {0.0, 0.001}, // constant
                                       {-0.11, 0.0}, // falling
                                       {0.09, 0.01}};
  const auto states = classify_simple(points);
  EXPECT_EQ(states, (std::vector<EdgeState>{1, 0, -1, 1}));
}

TEST(ErrorCorrector, CleanSequenceRoundTrip) {
  const Complex e{0.1, -0.04};
  const std::vector<bool> truth = {true, false, false, true, true, false,
                                   true, false};
  std::vector<Complex> points;
  bool level = false;
  for (bool b : truth) {
    points.push_back((static_cast<double>(b) - static_cast<double>(level)) *
                     e);
    level = b;
  }
  ThreeClusterLabels labels;
  labels.rising = e;
  labels.falling = -e;
  labels.constant = {};
  labels.states = {1, -1, 0, 1, 0, -1, 1, -1};
  const ErrorCorrector corrector;
  EXPECT_EQ(corrector.correct(points, labels), truth);
}

TEST(ErrorCorrector, OutputAlwaysSatisfiesEdgeConstraints) {
  // Feed garbage differentials: whatever comes out must be *a* valid NRZ
  // level sequence starting from the rising anchor — by construction the
  // 4-state machine cannot emit, say, two consecutive rising edges.
  Rng rng(21);
  const Complex e{0.1, 0.0};
  std::vector<Complex> points;
  std::vector<EdgeState> states;
  for (int k = 0; k < 100; ++k) {
    points.push_back({rng.gaussian(0.0, 0.08), rng.gaussian(0.0, 0.08)});
    states.push_back(0);
  }
  points[0] = e;
  states[0] = 1;
  ThreeClusterLabels labels;
  labels.rising = e;
  labels.falling = -e;
  labels.constant = {};
  labels.states = states;
  const ErrorCorrector corrector;
  const auto bits = corrector.correct(points, labels);
  EXPECT_EQ(bits.size(), points.size());
  EXPECT_TRUE(bits.front());  // anchor forced rising
}

TEST(ErrorCorrector, BeatsHardDecisionsUnderNoise) {
  Rng rng(22);
  const Complex e{0.1, 0.02};
  std::size_t viterbi_errors = 0, hard_errors = 0, total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> truth = rng.bits(120);
    truth[0] = true;
    std::vector<Complex> points;
    bool level = false;
    for (bool b : truth) {
      const double d = static_cast<double>(b) - static_cast<double>(level);
      level = b;
      points.push_back(d * e + Complex{rng.gaussian(0.0, 0.035),
                                       rng.gaussian(0.0, 0.035)});
    }
    // Hard decisions: nearest of {+e, 0, -e}, integrated.
    std::vector<EdgeState> hard;
    for (const Complex& p : points) {
      const double dp = std::abs(p - e), dm = std::abs(p + e),
                   dz = std::abs(p);
      hard.push_back(dp < dm && dp < dz ? 1 : (dm < dz ? -1 : 0));
    }
    const auto hard_bits = integrate_states(hard);
    ThreeClusterLabels labels;
    labels.rising = e;
    labels.falling = -e;
    labels.constant = {};
    labels.states = hard;
    const ErrorCorrector corrector;
    const auto viterbi_bits = corrector.correct(points, labels);
    for (std::size_t i = 0; i < truth.size(); ++i) {
      ++total;
      if (viterbi_bits[i] != truth[i]) ++viterbi_errors;
      if (hard_bits[i] != truth[i]) ++hard_errors;
    }
  }
  // Sequence constraints must not hurt, and should help under noise.
  EXPECT_LE(viterbi_errors, hard_errors);
  EXPECT_GT(hard_errors, 0u) << "noise too low to exercise correction; "
                                "total bits " << total;
}

TEST(ErrorCorrector, JointDecodeSeparatesBothTags) {
  Rng rng(9);
  const Complex e1{0.1, 0.01}, e2{-0.03, 0.09};
  const auto data = synthesize({e1, e2}, 300, 0.01, rng);
  const std::vector<bool> toggles(300, true);
  const ErrorCorrector corrector;
  const auto joint =
      corrector.correct_joint(data.points, {e1, e2}, {toggles, toggles}, 0.01);
  // Reconstruct levels from the true states.
  std::size_t ok1 = 0, ok2 = 0;
  int l1 = 0, l2 = 0;
  for (std::size_t k = 0; k < 300; ++k) {
    l1 += data.states[0][k];
    l2 += data.states[1][k];
    if (joint.levels[0][k] == (l1 != 0)) ++ok1;
    if (joint.levels[1][k] == (l2 != 0)) ++ok2;
  }
  EXPECT_GT(ok1, 295u);
  EXPECT_GT(ok2, 295u);
}

TEST(ErrorCorrector, JointRespectsToggleMask) {
  const Complex e1{0.1, 0.0}, e2{0.0, 0.1};
  // Tag 2 may only toggle at even boundaries.
  std::vector<Complex> points = {e1 + e2, -e1, e2 * 0.0, -e2};
  std::vector<bool> t1 = {true, true, true, true};
  std::vector<bool> t2 = {true, false, true, false};
  const ErrorCorrector corrector;
  const auto joint = corrector.correct_joint(points, {e1, e2}, {t1, t2}, 0.01);
  // Tag 2's level can only change at boundaries 0 and 2.
  EXPECT_EQ(joint.levels[1][0], joint.levels[1][1]);
  EXPECT_EQ(joint.levels[1][2], joint.levels[1][3]);
}

}  // namespace
}  // namespace lfbs::core
