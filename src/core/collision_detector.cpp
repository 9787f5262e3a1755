#include "core/collision_detector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lfbs::core {

namespace {

/// Minimum boundary points per cluster for a candidate to be considered:
/// fitting 9 clusters to 12 points proves nothing.
constexpr std::size_t kMinPointsPerCluster = 3;

/// Maximum pairwise distance between the fit's centroids: the scale against
/// which the within-cluster residual is judged.
double centroid_spread(const dsp::KMeansResult& fit) {
  double spread = 0.0;
  for (std::size_t i = 0; i < fit.centroids.size(); ++i) {
    for (std::size_t j = i + 1; j < fit.centroids.size(); ++j) {
      spread = std::max(spread, std::abs(fit.centroids[i] - fit.centroids[j]));
    }
  }
  return spread;
}

double rms_residual(const dsp::KMeansResult& fit, std::size_t n) {
  return std::sqrt(fit.inertia / static_cast<double>(std::max<std::size_t>(n, 1)));
}

}  // namespace

CollisionDetector::CollisionDetector(CollisionDetectorConfig config)
    : config_(std::move(config)) {
  LFBS_CHECK(config_.residual_fraction > 0.0);
}

CollisionAssessment CollisionDetector::assess(
    std::span<const Complex> boundary_diffs, Rng& rng) const {
  LFBS_CHECK(!boundary_diffs.empty());
  CollisionAssessment out;
  const std::size_t n = boundary_diffs.size();

  // Escalating hypothesis test, per §3.3: start from the single-stream
  // (3-cluster) hypothesis and escalate only when the fit is poor — the
  // within-cluster residual is what a second tag's edge vector inflates.
  std::vector<std::size_t> ladder = {3};
  if (n >= 9 * kMinPointsPerCluster) ladder.push_back(9);
  if (config_.consider_three_way && n >= 27 * kMinPointsPerCluster) {
    ladder.push_back(27);
  }

  for (std::size_t idx = 0; idx < ladder.size(); ++idx) {
    const std::size_t k = std::min(ladder[idx], n);
    dsp::KMeansResult fit = dsp::kmeans(boundary_diffs, k, rng);
    const double residual = rms_residual(fit, n);
    const double spread = centroid_spread(fit);
    const bool good_fit =
        spread > 0.0 && residual <= config_.residual_fraction * spread;
    const bool last = idx + 1 == ladder.size();
    if (good_fit || last) {
      out.colliders = k <= 3 ? 1 : (k == 9 ? 2 : 3);
      out.fit = std::move(fit);
      // If we ran out of ladder without a good fit, report the deepest
      // hypothesis; the pipeline treats a failed separation gracefully.
      return out;
    }
  }
  LFBS_CHECK_MSG(false, "unreachable: ladder always returns");
  return out;
}

}  // namespace lfbs::core
