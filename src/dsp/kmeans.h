#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace lfbs::dsp {

/// Result of a k-means run over points in the IQ plane.
struct KMeansResult {
  std::vector<Complex> centroids;        ///< k cluster centers
  std::vector<std::size_t> assignment;   ///< per-point cluster index
  double inertia = 0.0;                  ///< sum of squared distances
  std::size_t iterations = 0;            ///< Lloyd iterations performed
  bool converged = false;
};

struct KMeansOptions {
  std::size_t max_iterations = 100;
  std::size_t restarts = 8;     ///< best-of-N k-means++ restarts
  double tolerance = 1e-10;     ///< centroid-motion convergence threshold
  /// When the input exceeds this many points, Lloyd iterations run on a
  /// strided subsample of this size; the final assignment still covers all
  /// points. Keeps long-epoch decodes (hundreds of thousands of boundaries)
  /// tractable without changing the geometry.
  std::size_t max_fit_points = 4000;
};

/// Lloyd's algorithm with k-means++ seeding, best of `restarts` runs.
/// Requires k >= 1 and points non-empty. If k > |points| the surplus
/// clusters come back empty (centroid = first point, no members).
KMeansResult kmeans(std::span<const Complex> points, std::size_t k, Rng& rng,
                    const KMeansOptions& opts = {});

}  // namespace lfbs::dsp
