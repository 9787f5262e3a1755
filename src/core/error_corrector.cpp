#include "core/error_corrector.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "dsp/gaussian.h"
#include "dsp/viterbi.h"

namespace lfbs::core {

namespace {

/// Floor on fitted cluster sigmas.
constexpr double kMinSigma = 1e-6;
/// Boundaries whose edge confidence falls below this become erasures.
constexpr double kErasureThreshold = 0.25;
/// Erasure emission: the per-state Gaussian with its sigmas inflated by
/// this factor — wide enough that transitions and priors dominate, but the
/// observation still breaks exact ties deterministically.
constexpr double kErasureSigmaScale = 8.0;

// State indices for the 4-state edge machine.
constexpr std::size_t kRising = 0;    // ↑
constexpr std::size_t kFalling = 1;   // ↓
constexpr std::size_t kHoldHigh = 2;  // −₊ (no edge, level 1)
constexpr std::size_t kHoldLow = 3;   // −₋ (no edge, level 0)

/// The level each state needs before its boundary and leaves after it:
/// ↑ 0→1, ↓ 1→0, −₊ 1→1, −₋ 0→0. A move is allowed when the levels meet.
constexpr std::array<int, 4> kLevelBefore = {0, 1, 1, 0};
constexpr std::array<int, 4> kLevelAfter = {1, 0, 1, 0};

/// Fits a 2-D Gaussian to the points of one cluster; degenerate clusters
/// fall back to an isotropic Gaussian around the centroid with a spread
/// proportional to `scale`.
dsp::Gaussian2D fit_or_default(std::span<const Complex> pts, Complex centroid,
                               double scale) {
  if (pts.size() >= 4) return dsp::fit_gaussian2d(pts, kMinSigma);
  dsp::Gaussian2D g;
  g.mean_i = centroid.real();
  g.mean_q = centroid.imag();
  g.sigma_i = std::max(0.25 * scale, kMinSigma);
  g.sigma_q = g.sigma_i;
  g.rho = 0.0;
  return g;
}

/// The 2^K-state joint machine behind ErrorCorrector::correct_joint. The
/// observation sits on the move (it depends on which tags toggled), so it
/// is scored in `extend` and there is no per-state emission.
template <std::size_t K>
ErrorCorrector::JointResult joint_decode(
    std::span<const Complex> points, const std::vector<Complex>& e,
    const std::vector<std::vector<bool>>& toggles, double sigma,
    double log_edge, double log_hold) {
  constexpr std::size_t kStates = std::size_t{1} << K;
  const auto level = [](std::size_t state, std::size_t t) {
    return static_cast<int>((state >> t) & 1u);
  };
  // The differential a transition emits depends only on the level steps.
  std::array<std::array<Complex, kStates>, kStates> expected;
  for (std::size_t from = 0; from < kStates; ++from) {
    for (std::size_t to = 0; to < kStates; ++to) {
      Complex x = static_cast<double>(level(to, 0) - level(from, 0)) * e[0];
      for (std::size_t t = 1; t < K; ++t) {
        x += static_cast<double>(level(to, t) - level(from, t)) * e[t];
      }
      expected[from][to] = x;
    }
  }
  const double inv_two_sigma2 = 1.0 / (2.0 * std::max(sigma * sigma, 1e-18));
  const std::size_t n = points.size();
  std::vector<std::uint8_t> can(n, 0);  // bit t: tag t may toggle at k
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < K; ++t) {
      if (toggles[t][k]) can[k] |= static_cast<std::uint8_t>(1u << t);
    }
  }
  const auto extend = [&](std::size_t k, std::size_t from, std::size_t to,
                          double score) {
    const std::size_t moved = from ^ to;
    if ((moved & ~std::size_t{can[k]}) != 0) return dsp::kImpossible;
    double cand = score - std::norm(points[k] - expected[from][to]) *
                              inv_two_sigma2;
    // Each tag's transition prior, added after the emission term one tag
    // at a time: the scores, and so the decoded levels, depend on this
    // summation order.
    for (std::size_t t = 0; t < K; ++t) {
      if (((can[k] >> t) & 1u) == 0) continue;
      cand += ((moved >> t) & 1u) ? log_edge : log_hold;
    }
    return cand;
  };
  dsp::ViterbiPath path = dsp::viterbi<kStates>(
      n,
      // Every tag idles at level 0 before boundary 0.
      [&](std::size_t s) { return extend(0, 0, s, 0.0); }, extend,
      [](std::size_t, std::size_t) { return 0.0; });

  ErrorCorrector::JointResult out;
  out.levels.assign(K, std::vector<bool>(n));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < K; ++t) {
      out.levels[t][k] = level(path.states[k], t) != 0;
    }
  }
  out.margins = std::move(path.margins);
  return out;
}

}  // namespace

ErrorCorrector::ErrorCorrector(Config config) : config_(config) {
  LFBS_CHECK(config_.edge_probability > 0.0 && config_.edge_probability < 1.0);
}

std::vector<bool> ErrorCorrector::correct(
    std::span<const Complex> points, const ThreeClusterLabels& labels) const {
  return correct_soft(points, labels, {}).bits;
}

ErrorCorrector::SoftResult ErrorCorrector::correct_soft(
    std::span<const Complex> points, const ThreeClusterLabels& labels,
    std::span<const double> confidences) const {
  LFBS_CHECK(!points.empty());
  LFBS_CHECK(points.size() == labels.states.size());
  LFBS_CHECK(confidences.empty() || confidences.size() == points.size());
  std::vector<Complex> rising_pts, falling_pts, constant_pts;
  for (std::size_t i = 0; i < points.size(); ++i) {
    switch (labels.states[i]) {
      case 1:
        rising_pts.push_back(points[i]);
        break;
      case -1:
        falling_pts.push_back(points[i]);
        break;
      default:
        constant_pts.push_back(points[i]);
        break;
    }
  }
  const double scale =
      std::max(std::abs(labels.rising), std::abs(labels.falling));
  const dsp::Gaussian2D g_rise =
      fit_or_default(rising_pts, labels.rising, scale);
  const dsp::Gaussian2D g_fall =
      fit_or_default(falling_pts, labels.falling, scale);
  const dsp::Gaussian2D g_hold =
      fit_or_default(constant_pts, labels.constant, scale);

  // Erasure emissions: the same cluster means with inflated sigmas, so a
  // distrusted observation barely discriminates between states and the
  // transition structure decides.
  const auto widen = [](dsp::Gaussian2D g) {
    g.sigma_i *= kErasureSigmaScale;
    g.sigma_q *= kErasureSigmaScale;
    g.rho = 0.0;
    return g;
  };
  const dsp::Gaussian2D w_rise = widen(g_rise);
  const dsp::Gaussian2D w_fall = widen(g_fall);
  const dsp::Gaussian2D w_hold = widen(g_hold);

  SoftResult out;
  std::vector<bool> erased(points.size(), false);
  if (!confidences.empty()) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (confidences[i] < kErasureThreshold) {
        erased[i] = true;
        ++out.erasures;
      }
    }
  }

  const double log_edge = std::log(config_.edge_probability);
  const double log_hold = std::log(1.0 - config_.edge_probability);
  dsp::ViterbiPath path = dsp::viterbi<4>(
      points.size(),
      // The first boundary of a stream is the idle→anchor rising edge.
      [](std::size_t s) { return s == kRising ? 0.0 : dsp::kImpossible; },
      [&](std::size_t, std::size_t from, std::size_t to, double score) {
        if (kLevelAfter[from] != kLevelBefore[to]) return dsp::kImpossible;
        return score +
               (kLevelBefore[to] != kLevelAfter[to] ? log_edge : log_hold);
      },
      [&](std::size_t step, std::size_t state) {
        const Complex& z = points[step];
        const bool wide = erased[step];
        switch (state) {
          case kRising:
            return (wide ? w_rise : g_rise).log_pdf(z);
          case kFalling:
            return (wide ? w_fall : g_fall).log_pdf(z);
          default:  // kHoldHigh, kHoldLow
            return (wide ? w_hold : g_hold).log_pdf(z);
        }
      });

  out.bits.reserve(points.size());
  for (std::size_t s : path.states) out.bits.push_back(kLevelAfter[s] != 0);
  out.bit_margins = std::move(path.margins);
  return out;
}

ErrorCorrector::JointResult ErrorCorrector::correct_joint(
    std::span<const Complex> points, const std::vector<Complex>& edge_vectors,
    const std::vector<std::vector<bool>>& toggles, double sigma) const {
  LFBS_CHECK(!points.empty());
  LFBS_CHECK(toggles.size() == edge_vectors.size());
  for (const std::vector<bool>& t : toggles) {
    LFBS_CHECK(t.size() == points.size());
  }
  const double log_edge = std::log(config_.edge_probability);
  const double log_hold = std::log(1.0 - config_.edge_probability);
  switch (edge_vectors.size()) {
    case 2:
      return joint_decode<2>(points, edge_vectors, toggles, sigma, log_edge,
                             log_hold);
    case 3:
      return joint_decode<3>(points, edge_vectors, toggles, sigma, log_edge,
                             log_hold);
  }
  LFBS_CHECK_MSG(false, "joint decode takes 2 or 3 tags");
  return {};
}

}  // namespace lfbs::core
