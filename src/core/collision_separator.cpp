#include "core/collision_separator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

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

/// Greedy one-to-one matching of centroids to the 9 combination points of a
/// candidate (e1, e2). Returns the maximum match distance, or infinity when
/// a bijection cannot be formed.
double match_quality(std::span<const Complex> centroids, Complex e1,
                     Complex e2) {
  struct Entry {
    double d;
    std::size_t centroid;
    std::size_t combo;
  };
  std::vector<Entry> entries;
  entries.reserve(centroids.size() * kCombos.size());
  for (std::size_t i = 0; i < centroids.size(); ++i) {
    for (std::size_t j = 0; j < kCombos.size(); ++j) {
      const Complex expected = static_cast<double>(kCombos[j].first) * e1 +
                               static_cast<double>(kCombos[j].second) * e2;
      entries.push_back({std::abs(centroids[i] - expected), i, j});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.d < b.d; });
  std::vector<bool> centroid_used(centroids.size(), false);
  std::vector<bool> combo_used(kCombos.size(), false);
  std::size_t matched = 0;
  double worst = 0.0;
  for (const Entry& e : entries) {
    if (centroid_used[e.centroid] || combo_used[e.combo]) continue;
    centroid_used[e.centroid] = true;
    combo_used[e.combo] = true;
    worst = std::max(worst, e.d);
    if (++matched == centroids.size()) break;
  }
  if (matched != centroids.size()) {
    return std::numeric_limits<double>::infinity();
  }
  return worst;
}

}  // namespace

std::optional<SeparationResult> CollisionSeparator::separate(
    std::span<const Complex> points, const dsp::KMeansResult& fit) const {
  if (fit.centroids.size() != 9 || points.empty()) return std::nullopt;
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
  // best match over the full 9-point grid wins.
  double best_quality = std::numeric_limits<double>::infinity();
  Complex best_e1, best_e2;
  const auto consider = [&](Complex e1, Complex e2) {
    const double weakest = std::min(std::abs(e1), std::abs(e2));
    if (weakest < kMinEdgeFraction * strongest) return;
    // Skip near-collinear candidates (degenerate parallelogram).
    const double cross = std::abs(e1.real() * e2.imag() - e1.imag() * e2.real());
    if (cross < 0.05 * std::abs(e1) * std::abs(e2)) return;
    const double q = match_quality(shifted, e1, e2);
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
  if (!std::isfinite(best_quality)) return std::nullopt;
  const double weakest = std::min(std::abs(best_e1), std::abs(best_e2));
  if (best_quality > kMatchTolerance * weakest) return std::nullopt;

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
      const double d = std::abs(p - expected);
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

  // The 27 (a, b, c) combinations, and a grid matcher.
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
  const auto grid_quality = [&](Complex e1, Complex e2, Complex e3) {
    struct Entry {
      double d;
      std::size_t centroid, combo;
    };
    std::vector<Entry> entries;
    entries.reserve(shifted.size() * combos.size());
    for (std::size_t i = 0; i < shifted.size(); ++i) {
      for (std::size_t j = 0; j < combos.size(); ++j) {
        const Complex expected = static_cast<double>(combos[j][0]) * e1 +
                                 static_cast<double>(combos[j][1]) * e2 +
                                 static_cast<double>(combos[j][2]) * e3;
        entries.push_back({std::abs(shifted[i] - expected), i, j});
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.d < b.d; });
    std::vector<bool> cu(shifted.size(), false), gu(combos.size(), false);
    std::size_t matched = 0;
    double worst = 0.0;
    for (const Entry& e : entries) {
      if (cu[e.centroid] || gu[e.combo]) continue;
      cu[e.centroid] = true;
      gu[e.combo] = true;
      worst = std::max(worst, e.d);
      if (++matched == shifted.size()) break;
    }
    return matched == shifted.size()
               ? worst
               : std::numeric_limits<double>::infinity();
  };

  // Hypothesis search: the axis vectors are themselves outer centroids.
  // Restrict candidates to the 12 smallest-magnitude outer centroids (the
  // axes are never the largest grid points) to keep the search tight.
  std::vector<std::size_t> order(outer.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::abs(outer[a]) < std::abs(outer[b]);
  });
  const std::size_t pool = std::min<std::size_t>(order.size(), 12);

  double best_quality = std::numeric_limits<double>::infinity();
  Complex be1, be2, be3;
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
        const double q = grid_quality(e1, e2, e3);
        if (q < best_quality) {
          best_quality = q;
          be1 = e1;
          be2 = e2;
          be3 = e3;
        }
      }
    }
  }
  if (!std::isfinite(best_quality)) return std::nullopt;
  const double weakest = std::min({std::abs(be1), std::abs(be2), std::abs(be3)});
  if (best_quality > kMatchTolerance * weakest) return std::nullopt;

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
      const double d = std::abs(p - expected);
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
