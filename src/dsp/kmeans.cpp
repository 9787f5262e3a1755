#include "dsp/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lfbs::dsp {

namespace {

/// k-means++ seeding: first centroid uniform, subsequent ones with
/// probability proportional to squared distance from the nearest chosen one.
std::vector<Complex> seed_centroids(std::span<const Complex> points,
                                    std::size_t k, Rng& rng) {
  std::vector<Complex> centroids;
  centroids.reserve(k);
  centroids.push_back(points[rng.uniform_u64(points.size())]);
  std::vector<double> d2(points.size(),
                         std::numeric_limits<double>::infinity());
  while (centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      d2[i] = std::min(d2[i], std::norm(points[i] - centroids.back()));
      total += d2[i];
    }
    if (total <= 0.0) {
      // All points coincide with existing centroids; duplicate one.
      centroids.push_back(points[0]);
      continue;
    }
    double pick = rng.uniform() * total;
    std::size_t chosen = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      pick -= d2[i];
      if (pick <= 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

KMeansResult lloyd(std::span<const Complex> points,
                   std::vector<Complex> centroids,
                   const KMeansOptions& opts) {
  const std::size_t k = centroids.size();
  KMeansResult result;
  result.assignment.assign(points.size(), 0);
  std::vector<Complex> sums(k);
  std::vector<std::size_t> counts(k);
  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    // Assign.
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t bestj = 0;
      for (std::size_t j = 0; j < k; ++j) {
        const double d = std::norm(points[i] - centroids[j]);
        if (d < best) {
          best = d;
          bestj = j;
        }
      }
      result.assignment[i] = bestj;
    }
    // Update.
    std::fill(sums.begin(), sums.end(), Complex{});
    std::fill(counts.begin(), counts.end(), 0u);
    for (std::size_t i = 0; i < points.size(); ++i) {
      sums[result.assignment[i]] += points[i];
      ++counts[result.assignment[i]];
    }
    double motion = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (counts[j] == 0) continue;  // keep empty cluster where it was
      const Complex next = sums[j] / static_cast<double>(counts[j]);
      motion += std::norm(next - centroids[j]);
      centroids[j] = next;
    }
    result.iterations = iter + 1;
    if (motion < opts.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.centroids = std::move(centroids);
  result.inertia = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    result.inertia += std::norm(points[i] - result.centroids[result.assignment[i]]);
  }
  return result;
}

}  // namespace

KMeansResult kmeans(std::span<const Complex> points, std::size_t k, Rng& rng,
                    const KMeansOptions& opts) {
  LFBS_CHECK(k >= 1);
  LFBS_CHECK(!points.empty());
  LFBS_OBS_SPAN(span, "cluster", "dsp");
  span.attr("points", static_cast<double>(points.size()));
  span.attr("k", static_cast<double>(k));
  static obs::Counter& runs = obs::metrics().counter("dsp.kmeans_runs");
  static obs::Counter& iters = obs::metrics().counter("dsp.kmeans_iterations");
  runs.add();

  // Fit on a strided subsample when the input is very large.
  std::vector<Complex> subsample;
  std::span<const Complex> fit_points = points;
  if (opts.max_fit_points > 0 && points.size() > opts.max_fit_points) {
    const std::size_t stride = points.size() / opts.max_fit_points + 1;
    for (std::size_t i = 0; i < points.size(); i += stride) {
      subsample.push_back(points[i]);
    }
    fit_points = subsample;
  }

  // The first restart is always kept: one non-finite point makes every
  // inertia NaN, and a NaN never compares less.
  KMeansResult best;
  const std::size_t restarts = std::max<std::size_t>(1, opts.restarts);
  for (std::size_t r = 0; r < restarts; ++r) {
    KMeansResult candidate =
        lloyd(fit_points, seed_centroids(fit_points, k, rng), opts);
    if (r == 0 || candidate.inertia < best.inertia) best = std::move(candidate);
  }
  iters.add(best.iterations);
  span.attr("iterations", static_cast<double>(best.iterations));
  if (fit_points.size() == points.size()) return best;

  // Final pass: assign every point to the fitted centroids.
  KMeansResult full;
  full.centroids = best.centroids;
  full.converged = best.converged;
  full.iterations = best.iterations;
  full.assignment.resize(points.size());
  full.inertia = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    double bestd = std::numeric_limits<double>::infinity();
    std::size_t bestj = 0;
    for (std::size_t j = 0; j < full.centroids.size(); ++j) {
      const double d = std::norm(points[i] - full.centroids[j]);
      if (d < bestd) {
        bestd = d;
        bestj = j;
      }
    }
    full.assignment[i] = bestj;
    full.inertia += bestd;
  }
  return full;
}

}  // namespace lfbs::dsp
