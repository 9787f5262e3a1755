#pragma once

#include "common/units.h"

namespace lfbs::core {

/// How well an edge vector matches a tag's stored one.
///
/// A tag's identity is its edge vector: the rising-edge IQ differential,
/// i.e. its channel coefficient, stable over an epoch and across windows.
/// A decode can recover the same tag with inverted levels, which negates
/// the vector, so the match is polarity-tolerant. The window stitcher and
/// the fallback ladder both match tags with it; each keeps its own
/// tolerance on `distance`.
struct TagIdentity {
  /// min(|candidate − reference|, |candidate + reference|) / |reference|.
  double distance = 0.0;
  /// The negated candidate is the closer match (the levels came out
  /// inverted).
  bool flipped = false;

  static TagIdentity compare(Complex candidate, Complex reference);
};

}  // namespace lfbs::core
