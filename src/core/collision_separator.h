#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/units.h"
#include "dsp/kmeans.h"

namespace lfbs::core {

/// Per-boundary edge state of one tag: -1 falling, 0 constant, +1 rising.
using EdgeState = int;

/// Two-tag collision separation (§3.4, Fig 5).
///
/// The nine cluster centroids of a two-tag collision are the linear
/// combinations a·e1 + b·e2, (a, b) ∈ {-1, 0, 1}², of the two tags' edge
/// vectors. Geometrically they form a 3×3 grid: the four corners ±e1±e2,
/// the four side midpoints ±e1 and ±e2, and the origin. The separator
/// recovers e1 and e2 by finding equally spaced collinear centroid triples
/// (the parallelogram sides) and taking their midpoints — no channel
/// estimation required.
struct SeparationResult {
  Complex e1;  ///< edge vector of component 1
  Complex e2;  ///< edge vector of component 2
  /// Per-boundary states, same length as the input points.
  std::vector<EdgeState> states1;
  std::vector<EdgeState> states2;
  /// Mean distance from each point to its matched combination, as a
  /// fraction of min(|e1|, |e2|) — a separation quality figure.
  double residual = 0.0;
};

/// Three-tag separation result (extension beyond the paper, which defers
/// three-way collisions to the next epoch): the 27 cluster centroids of a
/// 3-tag collision are the grid a·e1 + b·e2 + c·e3, (a,b,c) ∈ {-1,0,1}³,
/// projected into the IQ plane.
struct Separation3Result {
  Complex e1, e2, e3;
  std::vector<EdgeState> states1, states2, states3;
  double residual = 0.0;
};

class CollisionSeparator {
 public:
  /// Attempts to separate a 9-cluster fit into two per-tag state sequences.
  /// `points` are the boundary differentials the fit was computed on.
  /// Returns nullopt when the geometry does not support separation (caller
  /// falls back to single-stream decoding or defers to the next epoch).
  /// A candidate's grid match is sorted only when its lower bound (every
  /// centroid and grid point is matched no closer than its nearest
  /// partner) beats the best match so far.
  std::optional<SeparationResult> separate(
      std::span<const Complex> points, const dsp::KMeansResult& fit) const;

  /// Attempts to separate a 27-cluster fit into three per-tag state
  /// sequences. The axis vectors ±e_k are themselves grid points, so the
  /// search tries centroid triples as (e1, e2, e3) hypotheses and keeps the
  /// one whose 27-point grid matches all centroids bijectively. Succeeds
  /// only when the three edge vectors are pairwise well-conditioned in the
  /// IQ plane; otherwise the caller falls back to two-way separation.
  /// Returns nullopt without sorting any match when no hypothesis's lower
  /// bound is within the acceptance tolerance of its weakest axis; the
  /// search after that screen is bounded as in separate().
  std::optional<Separation3Result> separate_three(
      std::span<const Complex> points, const dsp::KMeansResult& fit) const;
};

}  // namespace lfbs::core
