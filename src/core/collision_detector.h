#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "dsp/kmeans.h"

namespace lfbs::core {

/// Verdict on how many tags are toggling at one stream group's boundaries.
///
/// Each colliding tag contributes one of three edge states (rising, falling,
/// constant) to every shared boundary, so k colliding tags produce 3^k
/// clusters of boundary IQ differentials (§3.3). The detector fits k-means
/// at 3, then 9 (and 27 when the data could support it) clusters, stopping
/// at the first fit whose within-cluster residual is small against its
/// centroid spread.
struct CollisionAssessment {
  std::size_t colliders = 1;  ///< 1, 2, or 3
  dsp::KMeansResult fit;      ///< fit at the chosen cluster count
};

struct CollisionDetectorConfig {
  /// Consider the 27-cluster (3-tag) hypothesis at all. The paper shows
  /// P(3-way collision) ≈ 0.018 at 16 nodes / 100 kbps; such groups are
  /// flagged and re-tried in a later epoch rather than separated.
  bool consider_three_way = true;
  /// "Is k clusters a good fit?" test (§3.3): a fit is accepted when its
  /// RMS within-cluster residual is below this fraction of the centroid
  /// spread. A second colliding tag inflates the 3-cluster residual to the
  /// order of its own edge magnitude, failing this test.
  double residual_fraction = 0.08;
};

class CollisionDetector {
 public:
  explicit CollisionDetector(CollisionDetectorConfig config);

  const CollisionDetectorConfig& config() const { return config_; }

  /// Assesses the boundary differentials of one stream group. `rng` drives
  /// k-means seeding only.
  CollisionAssessment assess(std::span<const Complex> boundary_diffs,
                             Rng& rng) const;

 private:
  CollisionDetectorConfig config_;
};

}  // namespace lfbs::core
