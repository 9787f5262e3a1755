// Tests for k-means, model selection, and 2-D Gaussian fitting.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "dsp/gaussian.h"
#include "dsp/kmeans.h"

namespace lfbs::dsp {
namespace {

/// Generates `per_cluster` noisy points around each centre.
std::vector<Complex> make_clusters(const std::vector<Complex>& centres,
                                   std::size_t per_cluster, double sigma,
                                   Rng& rng) {
  std::vector<Complex> points;
  for (const Complex& c : centres) {
    for (std::size_t i = 0; i < per_cluster; ++i) {
      points.push_back(c + Complex{rng.gaussian(0.0, sigma),
                                   rng.gaussian(0.0, sigma)});
    }
  }
  rng.shuffle(points);
  return points;
}

TEST(KMeans, RecoversWellSeparatedCentres) {
  Rng rng(5);
  const std::vector<Complex> centres = {{0, 0}, {1, 0}, {0, 1}};
  const auto points = make_clusters(centres, 60, 0.03, rng);
  const KMeansResult fit = kmeans(points, 3, rng);
  ASSERT_EQ(fit.centroids.size(), 3u);
  for (const Complex& c : centres) {
    double best = 1e9;
    for (const Complex& f : fit.centroids) best = std::min(best, std::abs(f - c));
    EXPECT_LT(best, 0.05);
  }
}

TEST(KMeans, AssignmentConsistentWithCentroids) {
  Rng rng(6);
  const auto points = make_clusters({{0, 0}, {2, 2}}, 40, 0.05, rng);
  const KMeansResult fit = kmeans(points, 2, rng);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t a = fit.assignment[i];
    for (std::size_t j = 0; j < fit.centroids.size(); ++j) {
      EXPECT_LE(std::norm(points[i] - fit.centroids[a]),
                std::norm(points[i] - fit.centroids[j]) + 1e-12);
    }
  }
}

TEST(KMeans, InertiaDecreasesWithK) {
  Rng rng(7);
  const auto points = make_clusters({{0, 0}, {1, 1}, {2, 0}}, 50, 0.1, rng);
  const double i1 = kmeans(points, 1, rng).inertia;
  const double i3 = kmeans(points, 3, rng).inertia;
  const double i9 = kmeans(points, 9, rng).inertia;
  EXPECT_GT(i1, i3);
  EXPECT_GT(i3, i9);
}

TEST(KMeans, SinglePoint) {
  Rng rng(8);
  const std::vector<Complex> points = {{1.0, -1.0}};
  const KMeansResult fit = kmeans(points, 1, rng);
  EXPECT_NEAR(std::abs(fit.centroids[0] - points[0]), 0.0, 1e-12);
  EXPECT_NEAR(fit.inertia, 0.0, 1e-12);
}

TEST(KMeans, SubsampledFitStillAssignsAllPoints) {
  Rng rng(9);
  const auto points = make_clusters({{0, 0}, {3, 0}}, 5000, 0.05, rng);
  KMeansOptions opts;
  opts.max_fit_points = 500;
  const KMeansResult fit = kmeans(points, 2, rng, opts);
  EXPECT_EQ(fit.assignment.size(), points.size());
  // Centroids still land on the true centres.
  double d0 = 1e9, d1 = 1e9;
  for (const auto& c : fit.centroids) {
    d0 = std::min(d0, std::abs(c - Complex{0, 0}));
    d1 = std::min(d1, std::abs(c - Complex{3, 0}));
  }
  EXPECT_LT(d0, 0.05);
  EXPECT_LT(d1, 0.05);
}

// One NaN point makes every restart's inertia NaN. The first restart is
// kept regardless, so the fit still has k centroids (downstream code
// indexes them).
TEST(KMeans, NonFinitePointStillYieldsKCentroids) {
  Rng rng(10);
  auto points = make_clusters({{0, 0}, {3, 0}, {0, 3}}, 200, 0.05, rng);
  points[57] = {std::nan(""), 0.0};
  const KMeansResult fit = kmeans(points, 3, rng);
  EXPECT_EQ(fit.centroids.size(), 3u);
  EXPECT_EQ(fit.assignment.size(), points.size());
}

TEST(Gaussian2D, FitRecoversParameters) {
  Rng rng(11);
  std::vector<Complex> points;
  for (int i = 0; i < 20000; ++i) {
    points.push_back({rng.gaussian(2.0, 0.5), rng.gaussian(-1.0, 0.2)});
  }
  const Gaussian2D g = fit_gaussian2d(points);
  EXPECT_NEAR(g.mean_i, 2.0, 0.02);
  EXPECT_NEAR(g.mean_q, -1.0, 0.02);
  EXPECT_NEAR(g.sigma_i, 0.5, 0.02);
  EXPECT_NEAR(g.sigma_q, 0.2, 0.01);
  EXPECT_NEAR(g.rho, 0.0, 0.03);
}

TEST(Gaussian2D, LogPdfPeaksAtMean) {
  Gaussian2D g;
  g.mean_i = 1.0;
  g.mean_q = 1.0;
  EXPECT_GT(g.log_pdf({1.0, 1.0}), g.log_pdf({1.5, 1.0}));
  EXPECT_GT(g.log_pdf({1.5, 1.0}), g.log_pdf({3.0, 1.0}));
}

TEST(Gaussian2D, MahalanobisAccountsForAnisotropy) {
  Gaussian2D g;
  g.sigma_i = 1.0;
  g.sigma_q = 0.1;
  // Same Euclidean distance, very different Mahalanobis distance.
  EXPECT_LT(g.mahalanobis2({1.0, 0.0}), g.mahalanobis2({0.0, 1.0}));
}

TEST(Gaussian2D, CorrelatedFit) {
  Rng rng(13);
  std::vector<Complex> points;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.gaussian();
    const double y = 0.8 * x + 0.6 * rng.gaussian();
    points.push_back({x, y});
  }
  const Gaussian2D g = fit_gaussian2d(points);
  EXPECT_GT(g.rho, 0.6);
}

TEST(Gaussian2D, SigmaFloorPreventsDegeneracy) {
  const std::vector<Complex> points = {{1, 1}, {1, 1}, {1, 1}};
  const Gaussian2D g = fit_gaussian2d(points, 1e-3);
  EXPECT_GE(g.sigma_i, 1e-3);
  EXPECT_GE(g.sigma_q, 1e-3);
  EXPECT_TRUE(std::isfinite(g.log_pdf({1, 1})));
}

}  // namespace
}  // namespace lfbs::dsp
