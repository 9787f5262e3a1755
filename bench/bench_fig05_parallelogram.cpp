// Figure 5: the nine clusters formed by two colliding edges are the linear
// combinations a·e1 + b·e2 with a, b in {-1, 0, 1} — a 3x3 grid whose side
// midpoints are the edge vectors themselves. The separator recovers e1 and
// e2 from collinear centroid triples, with no channel estimation.
#include <cmath>
#include <cstdio>

#include "core/collision_separator.h"
#include "dsp/kmeans.h"
#include "sim/plot.h"
#include "sim/table.h"

using namespace lfbs;

int main() {
  sim::print_banner(
      "Figure 5", "nine clusters of two colliding edges (parallelogram)",
      "synthetic collision: 400 boundaries, random states per tag, "
      "noise sigma = 8% of |e2|");

  Rng rng(7);
  const Complex e1{0.062, -0.114};
  const Complex e2{-0.071, -0.032};
  const double sigma = 0.08 * std::abs(e2);

  std::vector<Complex> points;
  std::vector<int> truth1, truth2;
  int s1 = 0, s2 = 0;  // current levels
  for (int k = 0; k < 400; ++k) {
    const int l1 = rng.bernoulli(0.5) ? 1 : 0;
    const int l2 = rng.bernoulli(0.5) ? 1 : 0;
    const int d1 = l1 - s1;
    const int d2 = l2 - s2;
    s1 = l1;
    s2 = l2;
    truth1.push_back(d1);
    truth2.push_back(d2);
    points.push_back(static_cast<double>(d1) * e1 +
                     static_cast<double>(d2) * e2 +
                     Complex{rng.gaussian(0.0, sigma),
                             rng.gaussian(0.0, sigma)});
  }

  const dsp::KMeansResult fit = dsp::kmeans(points, 9, rng);
  std::printf("k-means centroids (I, Q):\n");
  for (const Complex& c : fit.centroids) {
    std::printf("  (%+.4f, %+.4f)\n", c.real(), c.imag());
  }

  std::printf("\nboundary differentials in the IQ plane (the 3x3 grid):\n");
  {
    std::vector<double> xs, ys;
    for (const Complex& p : points) {
      xs.push_back(p.real());
      ys.push_back(p.imag());
    }
    sim::AsciiPlot plot(56, 15);
    plot.add_series("dS", xs, ys);
    plot.print();
  }

  core::CollisionSeparator separator;
  const auto sep = separator.separate(points, fit);
  if (!sep.has_value()) {
    std::printf("\nseparation FAILED (unexpected for this geometry)\n");
    return 1;
  }

  // The separator may return the vectors in either order/sign.
  const auto close = [](Complex a, Complex b) {
    return std::abs(a - b) < 0.25 * std::abs(b) ||
           std::abs(a + b) < 0.25 * std::abs(b);
  };
  const bool direct = close(sep->e1, e1) && close(sep->e2, e2);
  const bool swapped = close(sep->e1, e2) && close(sep->e2, e1);

  // Sign ambiguity per component is resolved by the anchor bit in the full
  // pipeline; here infer the global flip from the first non-constant state.
  int flip1 = 1, flip2 = 1;
  for (std::size_t k = 0; k < points.size(); ++k) {
    const int got1 = direct ? sep->states1[k] : sep->states2[k];
    if (truth1[k] != 0 && got1 != 0) {
      flip1 = truth1[k] * got1;
      break;
    }
  }
  for (std::size_t k = 0; k < points.size(); ++k) {
    const int got2 = direct ? sep->states2[k] : sep->states1[k];
    if (truth2[k] != 0 && got2 != 0) {
      flip2 = truth2[k] * got2;
      break;
    }
  }
  std::size_t correct = 0;
  for (std::size_t k = 0; k < points.size(); ++k) {
    const int got1 = direct ? sep->states1[k] : sep->states2[k];
    const int got2 = direct ? sep->states2[k] : sep->states1[k];
    if (got1 * flip1 == truth1[k] && got2 * flip2 == truth2[k]) ++correct;
  }

  sim::Table table({"quantity", "truth", "recovered"});
  table.add_row({"e1 (I,Q)",
                 "(" + sim::fmt(e1.real(), 4) + ", " + sim::fmt(e1.imag(), 4) + ")",
                 "(" + sim::fmt(sep->e1.real(), 4) + ", " +
                     sim::fmt(sep->e1.imag(), 4) + ")"});
  table.add_row({"e2 (I,Q)",
                 "(" + sim::fmt(e2.real(), 4) + ", " + sim::fmt(e2.imag(), 4) + ")",
                 "(" + sim::fmt(sep->e2.real(), 4) + ", " +
                     sim::fmt(sep->e2.imag(), 4) + ")"});
  table.add_row({"vector match (up to order/sign)", "-",
                 (direct || swapped) ? "yes" : "NO"});
  table.add_row({"per-boundary state accuracy", "-",
                 sim::fmt_percent(static_cast<double>(correct) /
                                  static_cast<double>(points.size()))});
  table.print();
  return 0;
}
