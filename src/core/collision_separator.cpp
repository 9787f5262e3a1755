#include "core/collision_separator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "obs/trace.h"

namespace lfbs::core {

namespace {

/// A centroid counts as the midpoint of a pair when it sits within this
/// fraction of the pair's span from the geometric midpoint.
constexpr double kMidpointTolerance = 0.2;
/// Maximum acceptable matching residual: |centroid - (a e1 + b e2)| must be
/// below this fraction of min(|e1|, |e2|) for every centroid.
constexpr double kMatchTolerance = 0.5;
/// Reject when |e1| or |e2| is below this fraction of the strongest
/// centroid (degenerate / single-tag geometry).
constexpr double kMinEdgeFraction = 0.05;

/// The nine (a, b) combinations in a fixed order.
constexpr std::array<std::pair<int, int>, 9> kCombos = {{{-1, -1},
                                                         {-1, 0},
                                                         {-1, 1},
                                                         {0, -1},
                                                         {0, 0},
                                                         {0, 1},
                                                         {1, -1},
                                                         {1, 0},
                                                         {1, 1}}};

/// Greedy one-to-one matching of n centroids to the n points of a candidate
/// grid: the closest unused (centroid, grid point) pair is matched first,
/// and the match's quality is its worst distance. One matcher serves every
/// hypothesis of a separation, so its buffers are allocated once.
class GridMatcher {
 public:
  explicit GridMatcher(std::size_t n)
      : n_(n), entries_(n * n), col_min_(n), centroid_used_(n), grid_used_(n) {}

  /// Loads every centroid-to-grid distance, centroid outer and grid point
  /// inner, and returns a lower bound on match(): every centroid, and (the
  /// counts being equal) every grid point, is matched no closer than its
  /// nearest partner. Stops early, returning the partial bound, once that
  /// exceeds `limit`.
  double load(std::span<const Complex> centroids,
              std::span<const Complex> grid, double limit) {
    std::fill(col_min_.begin(), col_min_.end(), kInf);
    double bound = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      double row_min = kInf;
      for (std::size_t j = 0; j < n_; ++j) {
        const double d = magnitude(centroids[i] - grid[j]);
        entries_[i * n_ + j] = {d, i, j};
        row_min = std::min(row_min, d);
        col_min_[j] = std::min(col_min_[j], d);
      }
      bound = std::max(bound, row_min);
      if (bound > limit) return bound;
    }
    for (double d : col_min_) bound = std::max(bound, d);
    return bound;
  }

  /// The greedy match over the distances of a complete load(). std::sort
  /// places tied entries by their input order, so the load order above is
  /// part of the result.
  double match() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.d < b.d; });
    std::fill(centroid_used_.begin(), centroid_used_.end(), false);
    std::fill(grid_used_.begin(), grid_used_.end(), false);
    std::size_t matched = 0;
    double worst = 0.0;
    for (const Entry& e : entries_) {
      if (centroid_used_[e.centroid] || grid_used_[e.grid]) continue;
      centroid_used_[e.centroid] = true;
      grid_used_[e.grid] = true;
      worst = std::max(worst, e.d);
      if (++matched == n_) break;
    }
    return worst;
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Entry {
    double d;
    std::size_t centroid, grid;
  };
  std::size_t n_;
  std::vector<Entry> entries_;
  std::vector<double> col_min_;
  std::vector<bool> centroid_used_, grid_used_;
};

}  // namespace

std::optional<SeparationResult> CollisionSeparator::separate(
    std::span<const Complex> points, const dsp::KMeansResult& fit) const {
  if (fit.centroids.size() != 9 || points.empty()) return std::nullopt;
  LFBS_OBS_SPAN(sep_span, "separate", "core");
  sep_span.attr("k", 9.0);
  const auto& centroids = fit.centroids;

  // Origin cluster: the centroid nearest zero (both tags constant).
  std::size_t origin = 0;
  for (std::size_t i = 1; i < centroids.size(); ++i) {
    if (std::abs(centroids[i]) < std::abs(centroids[origin])) origin = i;
  }
  // Work in origin-relative coordinates so residual receiver offsets do not
  // bias the grid matching.
  std::vector<Complex> shifted(centroids.size());
  for (std::size_t i = 0; i < centroids.size(); ++i) {
    shifted[i] = centroids[i] - centroids[origin];
  }
  std::vector<Complex> outer;
  outer.reserve(8);
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    if (i != origin) outer.push_back(shifted[i]);
  }

  double strongest = 0.0;
  for (const Complex& c : outer) strongest = std::max(strongest, std::abs(c));
  if (strongest <= 0.0) return std::nullopt;

  // Paper construction: find equally spaced collinear triples among the 8
  // outer centroids — the parallelogram sides — whose midpoints are ±e1/±e2.
  struct Midpoint {
    std::size_t index;  ///< into `outer`
    double error;       ///< |centroid - geometric midpoint| / pair span
  };
  std::vector<Midpoint> midpoints;
  for (std::size_t i = 0; i < outer.size(); ++i) {
    for (std::size_t j = i + 1; j < outer.size(); ++j) {
      const Complex mid = (outer[i] + outer[j]) * 0.5;
      const double span = std::abs(outer[i] - outer[j]);
      if (span <= 0.0) continue;
      for (std::size_t k = 0; k < outer.size(); ++k) {
        if (k == i || k == j) continue;
        const double err = std::abs(outer[k] - mid) / span;
        if (err <= kMidpointTolerance) {
          midpoints.push_back({k, err});
        }
      }
    }
  }
  std::sort(midpoints.begin(), midpoints.end(),
            [](const Midpoint& a, const Midpoint& b) {
              return a.error < b.error;
            });

  // Candidate (e1, e2): pick midpoint centroids pairwise non-collinear,
  // best match over the full 9-point grid wins. A candidate whose bound
  // reaches the best match so far cannot win, so it skips the sort.
  GridMatcher matcher(kCombos.size());
  std::array<Complex, kCombos.size()> grid;
  std::size_t sorted = 0;
  double best_quality = std::numeric_limits<double>::infinity();
  Complex best_e1, best_e2;
  const auto consider = [&](Complex e1, Complex e2) {
    const double weakest = std::min(std::abs(e1), std::abs(e2));
    if (weakest < kMinEdgeFraction * strongest) return;
    // Skip near-collinear candidates (degenerate parallelogram).
    const double cross = std::abs(e1.real() * e2.imag() - e1.imag() * e2.real());
    if (cross < 0.05 * std::abs(e1) * std::abs(e2)) return;
    for (std::size_t j = 0; j < kCombos.size(); ++j) {
      grid[j] = static_cast<double>(kCombos[j].first) * e1 +
                static_cast<double>(kCombos[j].second) * e2;
    }
    if (matcher.load(shifted, grid, best_quality) >= best_quality) return;
    ++sorted;
    const double q = matcher.match();
    if (q < best_quality) {
      best_quality = q;
      best_e1 = e1;
      best_e2 = e2;
    }
  };
  for (std::size_t a = 0; a < midpoints.size(); ++a) {
    for (std::size_t b = a + 1; b < midpoints.size(); ++b) {
      consider(outer[midpoints[a].index], outer[midpoints[b].index]);
    }
  }
  // Fallback: exhaustive hypothesis over all outer centroid pairs. This
  // covers noisy fits where a side midpoint was smeared out of tolerance.
  if (!std::isfinite(best_quality)) {
    for (std::size_t a = 0; a < outer.size(); ++a) {
      for (std::size_t b = a + 1; b < outer.size(); ++b) {
        consider(outer[a], outer[b]);
      }
    }
  }
  const double weakest = std::min(std::abs(best_e1), std::abs(best_e2));
  const bool accepted = std::isfinite(best_quality) &&
                        best_quality <= kMatchTolerance * weakest;
  sep_span.attr("sorted", static_cast<double>(sorted));
  sep_span.attr("accepted", accepted ? 1.0 : 0.0);
  if (!accepted) return std::nullopt;

  // Classify every boundary point against the recovered grid. Points are
  // classified directly (not via their k-means cluster) so a slightly wrong
  // cluster boundary does not propagate.
  SeparationResult result;
  result.e1 = best_e1;
  result.e2 = best_e2;
  result.states1.reserve(points.size());
  result.states2.reserve(points.size());
  const Complex offset = centroids[origin];
  double residual_sum = 0.0;
  for (const Complex& p : points) {
    double best_d = std::numeric_limits<double>::infinity();
    std::pair<int, int> best_combo{0, 0};
    for (const auto& [a, b] : kCombos) {
      const Complex expected = offset + static_cast<double>(a) * best_e1 +
                               static_cast<double>(b) * best_e2;
      const double d = magnitude(p - expected);
      if (d < best_d) {
        best_d = d;
        best_combo = {a, b};
      }
    }
    result.states1.push_back(best_combo.first);
    result.states2.push_back(best_combo.second);
    residual_sum += best_d;
  }
  result.residual =
      residual_sum / (static_cast<double>(points.size()) * weakest);
  return result;
}

std::optional<Separation3Result> CollisionSeparator::separate_three(
    std::span<const Complex> points, const dsp::KMeansResult& fit) const {
  if (fit.centroids.size() != 27 || points.empty()) return std::nullopt;
  LFBS_OBS_SPAN(sep_span, "separate", "core");
  sep_span.attr("k", 27.0);
  const auto& centroids = fit.centroids;

  // Origin cluster and origin-relative coordinates.
  std::size_t origin = 0;
  for (std::size_t i = 1; i < centroids.size(); ++i) {
    if (std::abs(centroids[i]) < std::abs(centroids[origin])) origin = i;
  }
  std::vector<Complex> outer;
  outer.reserve(26);
  for (std::size_t i = 0; i < centroids.size(); ++i) {
    if (i != origin) outer.push_back(centroids[i] - centroids[origin]);
  }
  double strongest = 0.0;
  for (const Complex& c : outer) strongest = std::max(strongest, std::abs(c));
  if (strongest <= 0.0) return std::nullopt;

  // The 27 (a, b, c) combinations.
  std::vector<std::array<int, 3>> combos;
  combos.reserve(27);
  for (int a = -1; a <= 1; ++a) {
    for (int b = -1; b <= 1; ++b) {
      for (int c = -1; c <= 1; ++c) combos.push_back({a, b, c});
    }
  }
  std::vector<Complex> shifted(centroids.size());
  for (std::size_t i = 0; i < centroids.size(); ++i) {
    shifted[i] = centroids[i] - centroids[origin];
  }

  // Hypotheses: the axis vectors are themselves outer centroids. Restrict
  // candidates to the 12 smallest-magnitude outer centroids (the axes are
  // never the largest grid points) to keep the search tight.
  std::vector<std::size_t> order(outer.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::abs(outer[a]) < std::abs(outer[b]);
  });
  const std::size_t pool = std::min<std::size_t>(order.size(), 12);

  struct Axes {
    Complex e1, e2, e3;
    double weakest;
  };
  std::vector<Axes> hypotheses;
  for (std::size_t x = 0; x < pool; ++x) {
    for (std::size_t y = x + 1; y < pool; ++y) {
      for (std::size_t z = y + 1; z < pool; ++z) {
        const Complex e1 = outer[order[x]];
        const Complex e2 = outer[order[y]];
        const Complex e3 = outer[order[z]];
        const double weakest =
            std::min({std::abs(e1), std::abs(e2), std::abs(e3)});
        if (weakest < kMinEdgeFraction * strongest) continue;
        // Pairwise conditioning: near-collinear axes are inseparable.
        const auto cross = [](Complex u, Complex v) {
          return std::abs(u.real() * v.imag() - u.imag() * v.real());
        };
        if (cross(e1, e2) < 0.1 * std::abs(e1) * std::abs(e2) ||
            cross(e1, e3) < 0.1 * std::abs(e1) * std::abs(e3) ||
            cross(e2, e3) < 0.1 * std::abs(e2) * std::abs(e3)) {
          continue;
        }
        // Antipodal pairs are the same axis.
        if (std::abs(e1 + e2) < 0.2 * std::abs(e1) ||
            std::abs(e1 + e3) < 0.2 * std::abs(e1) ||
            std::abs(e2 + e3) < 0.2 * std::abs(e2)) {
          continue;
        }
        hypotheses.push_back({e1, e2, e3, weakest});
      }
    }
  }

  GridMatcher matcher(combos.size());
  std::vector<Complex> grid(combos.size());
  const auto bound = [&](const Axes& h, double limit) {
    for (std::size_t j = 0; j < combos.size(); ++j) {
      grid[j] = static_cast<double>(combos[j][0]) * h.e1 +
                static_cast<double>(combos[j][1]) * h.e2 +
                static_cast<double>(combos[j][2]) * h.e3;
    }
    return matcher.load(shifted, grid, limit);
  };
  // Screen: the winner is accepted only when its match is within
  // kMatchTolerance of its weakest axis, and a match is never below its
  // bound. When no hypothesis's bound is within its own threshold, the
  // winner is rejected whichever it is, so nothing needs sorting.
  const bool passable =
      std::any_of(hypotheses.begin(), hypotheses.end(), [&](const Axes& h) {
        const double threshold = kMatchTolerance * h.weakest;
        return bound(h, threshold) <= threshold;
      });
  // Bounded search: a hypothesis whose bound reaches the best match so far
  // cannot win, so it skips the sort.
  std::size_t sorted = 0;
  double best_quality = std::numeric_limits<double>::infinity();
  const Axes* best = nullptr;
  if (passable) {
    for (const Axes& h : hypotheses) {
      if (bound(h, best_quality) >= best_quality) continue;
      ++sorted;
      const double q = matcher.match();
      if (q < best_quality) {
        best_quality = q;
        best = &h;
      }
    }
  }
  const bool accepted =
      best != nullptr && best_quality <= kMatchTolerance * best->weakest;
  sep_span.attr("sorted", static_cast<double>(sorted));
  sep_span.attr("accepted", accepted ? 1.0 : 0.0);
  if (!accepted) return std::nullopt;
  const Complex be1 = best->e1, be2 = best->e2, be3 = best->e3;
  const double weakest = best->weakest;

  Separation3Result result;
  result.e1 = be1;
  result.e2 = be2;
  result.e3 = be3;
  const Complex offset = centroids[origin];
  double residual_sum = 0.0;
  for (const Complex& p : points) {
    double best_d = std::numeric_limits<double>::infinity();
    std::array<int, 3> best_combo{0, 0, 0};
    for (const auto& combo : combos) {
      const Complex expected = offset + static_cast<double>(combo[0]) * be1 +
                               static_cast<double>(combo[1]) * be2 +
                               static_cast<double>(combo[2]) * be3;
      const double d = magnitude(p - expected);
      if (d < best_d) {
        best_d = d;
        best_combo = combo;
      }
    }
    result.states1.push_back(best_combo[0]);
    result.states2.push_back(best_combo[1]);
    result.states3.push_back(best_combo[2]);
    residual_sum += best_d;
  }
  result.residual =
      residual_sum / (static_cast<double>(points.size()) * weakest);
  return result;
}

}  // namespace lfbs::core
