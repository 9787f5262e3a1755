#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/units.h"
#include "signal/edge_detector.h"

namespace lfbs::core {

/// A stream group: edges that fall on one common lattice.
///
/// Because every valid bitrate divides the maximum rate (§3.2), all edges of
/// one tag land on a lattice with period T_min = 1/max_rate anchored at the
/// tag's random start offset. Tags whose offsets differ by more than an edge
/// width form distinct groups; tags that picked (nearly) the same offset
/// merge into a single *collision* group, and keep colliding all epoch —
/// exactly the repetition the IQ separation stage relies on.
struct StreamGroup {
  /// Fitted lattice: position(n) ≈ intercept + slope · n, in samples.
  /// The slope absorbs the tag's clock drift (±150–200 ppm).
  double intercept = 0.0;
  double slope = 0.0;

  std::vector<std::size_t> edge_indices;      ///< into the input edge array
  std::vector<std::int64_t> lattice_indices;  ///< lattice slot per edge

  /// Bit period in lattice units (m: the tag transmits at max_rate / m).
  /// For a collision group this is the *joint* lattice step.
  std::int64_t step = 1;
  /// Lattice index of the first bit boundary (the anchor edge).
  std::int64_t start_index = 0;

  /// Predicted sample position of lattice slot n.
  double position_of(std::int64_t n) const {
    return intercept + slope * static_cast<double>(n);
  }
};

struct StreamDetectorConfig {
  /// Nominal lattice period in samples (fs / max_rate).
  double lattice_period = 250.0;
  /// Edges within this many samples of a group's lattice point belong to
  /// the group; closer offsets than this between two tags read as one
  /// (colliding) group. Should be a little above the edge width.
  double base_tolerance = 5.0;
  /// Groups with fewer edges are discarded as noise: a real stream repeats
  /// on a valid-rate lattice, a spurious edge does not (§3.2).
  std::size_t min_edges = 3;
  /// Valid bit-period steps in lattice units (max_rate / rate for every
  /// valid rate), used to snap the estimated step. Empty = free-form gcd.
  std::vector<std::int64_t> valid_steps;
  /// Post-pass: groups whose lattice phases differ by at most this many
  /// samples (circularly, mod the lattice period) are merged. This folds
  /// splinter groups (jitter pushed a few edges past base_tolerance) and
  /// near-collisions back into one group, where the IQ separation stage can
  /// handle them as a collision.
  double merge_radius = 6.0;
};

/// Groups detected edges into per-tag (or per-collision) streams and
/// estimates each group's lattice timing, clock drift, and bit-period step.
class StreamDetector {
 public:
  explicit StreamDetector(StreamDetectorConfig config);

  const StreamDetectorConfig& config() const { return config_; }

  /// `edges` must be sorted by position (EdgeDetector guarantees this).
  std::vector<StreamGroup> detect(std::span<const signal::Edge> edges) const;

  /// One stream hypothesis over a subset of a phase group's edges.
  struct SubStream {
    std::int64_t step = 1;
    std::int64_t start = 0;
    std::vector<std::size_t> members;  ///< positions into the index array
  };

  /// Splits the lattice indices of one phase group into streams. Two tags
  /// can share a phase modulo the max-rate period yet occupy different
  /// lattice slots (e.g. a 0.5 kbps and a 1 kbps tag whose anchors are two
  /// slots apart) — they are separate streams, not a collision, and are
  /// told apart by their residue classes.
  std::vector<SubStream> split_streams(
      std::span<const std::int64_t> indices) const;

  /// Estimates the bit-period step for a set of lattice indices: the largest
  /// valid step such that at least `kStepConsensus` of the indices share a
  /// residue class (consensus_step over `valid_steps`; free-form gcd when
  /// there are none). Returns {step, residue}.
  std::pair<std::int64_t, std::int64_t> estimate_step(
      std::span<const std::int64_t> indices) const;

 private:
  StreamDetectorConfig config_;
};

/// Fraction of a group's member edges that must agree with a step
/// hypothesis (grouping's estimate_step and the collision path's
/// per-component lattices).
inline constexpr double kStepConsensus = 0.85;

/// Residue-consensus step search, shared by grouping (estimate_step) and
/// the collision path's per-component lattices: the largest of `steps`, at
/// most `max_step`, on which at least `consensus` of the (non-empty)
/// `indices` share a residue class. Returns {step, first index of that
/// class}, or {1, indices.front()} when no step qualifies.
std::pair<std::int64_t, std::int64_t> consensus_step(
    std::span<const std::int64_t> indices, std::vector<std::int64_t> steps,
    double consensus,
    std::int64_t max_step = std::numeric_limits<std::int64_t>::max());

}  // namespace lfbs::core
