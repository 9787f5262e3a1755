#include "core/error_corrector.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "dsp/gaussian.h"
#include "dsp/viterbi.h"

namespace lfbs::core {

namespace {

// State indices for the 4-state edge machine.
constexpr std::size_t kRising = 0;    // ↑
constexpr std::size_t kFalling = 1;   // ↓
constexpr std::size_t kHoldHigh = 2;  // −₊ (no edge, level 1)
constexpr std::size_t kHoldLow = 3;   // −₋ (no edge, level 0)

/// Fits a 2-D Gaussian to the points of one cluster; degenerate clusters
/// fall back to an isotropic Gaussian around the centroid with a spread
/// proportional to `scale`.
dsp::Gaussian2D fit_or_default(std::span<const Complex> pts, Complex centroid,
                               double scale, double min_sigma) {
  if (pts.size() >= 4) {
    dsp::Gaussian2D g = dsp::fit_gaussian2d(pts, min_sigma);
    return g;
  }
  dsp::Gaussian2D g;
  g.mean_i = centroid.real();
  g.mean_q = centroid.imag();
  g.sigma_i = std::max(0.25 * scale, min_sigma);
  g.sigma_q = g.sigma_i;
  g.rho = 0.0;
  return g;
}

/// The 2^K-state joint Viterbi behind ErrorCorrector::correct_joint. The
/// emission sits on the transition, so this is a bespoke loop rather than
/// the per-state dsp::Viterbi.
template <std::size_t K>
ErrorCorrector::JointResult joint_viterbi(
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
  std::array<double, kStates> score;
  score.fill(-1e300);
  score[0] = 0.0;  // every tag idle at level 0 before its anchor
  std::vector<std::uint8_t> backptr(n * kStates, 0);
  std::array<double, kStates> next;

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t can = 0;  // bit t: tag t may toggle at boundary k
    for (std::size_t t = 0; t < K; ++t) {
      if (toggles[t][k]) can |= std::size_t{1} << t;
    }
    for (std::size_t to = 0; to < kStates; ++to) {
      double best = -1e300;
      std::uint8_t arg = 0;
      for (std::size_t from = 0; from < kStates; ++from) {
        const std::size_t moved = from ^ to;
        if ((moved & ~can) != 0) continue;
        const Complex residual = points[k] - expected[from][to];
        double cand = score[from] - std::norm(residual) * inv_two_sigma2;
        // Each tag's transition prior, added after the emission term one
        // tag at a time: the scores, and so the decoded levels, depend on
        // this summation order.
        for (std::size_t t = 0; t < K; ++t) {
          if (((can >> t) & 1u) == 0) continue;
          cand += ((moved >> t) & 1u) ? log_edge : log_hold;
        }
        if (cand > best) {
          best = cand;
          arg = static_cast<std::uint8_t>(from);
        }
      }
      next[to] = best;
      backptr[k * kStates + to] = arg;
    }
    score = next;
  }

  std::size_t state = 0;
  double best = score[0];
  double second = -1e300;
  for (std::size_t s = 1; s < kStates; ++s) {
    if (score[s] > best) {
      second = best;
      best = score[s];
      state = s;
    } else if (score[s] > second) {
      second = score[s];
    }
  }
  ErrorCorrector::JointResult out;
  out.margin = (second > -1e299) ? best - second : 0.0;
  out.levels.assign(K, std::vector<bool>(n));
  for (std::size_t k = n; k-- > 0;) {
    for (std::size_t t = 0; t < K; ++t) out.levels[t][k] = level(state, t) != 0;
    state = backptr[k * kStates + state];
  }
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
    std::span<const double> confidences, const SoftConfig& soft) const {
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
  return run(points, labels.rising, labels.falling, labels.constant,
             rising_pts, falling_pts, constant_pts, confidences, soft);
}

std::vector<bool> ErrorCorrector::correct_component(
    std::span<const Complex> points, Complex edge_vector) const {
  return run(points, edge_vector, -edge_vector, Complex{}, {}, {}, {}, {},
             SoftConfig())
      .bits;
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
      return joint_viterbi<2>(points, edge_vectors, toggles, sigma, log_edge,
                              log_hold);
    case 3:
      return joint_viterbi<3>(points, edge_vectors, toggles, sigma, log_edge,
                              log_hold);
  }
  LFBS_CHECK_MSG(false, "joint decode takes 2 or 3 tags");
  return {};
}

ErrorCorrector::SoftResult ErrorCorrector::run(
    std::span<const Complex> points, Complex rising, Complex falling,
    Complex constant, std::span<const Complex> rising_pts,
    std::span<const Complex> falling_pts,
    std::span<const Complex> constant_pts,
    std::span<const double> confidences, const SoftConfig& soft) const {
  LFBS_CHECK(!points.empty());
  const double scale = std::max(std::abs(rising), std::abs(falling));

  const dsp::Gaussian2D g_rise =
      fit_or_default(rising_pts, rising, scale, config_.min_sigma);
  const dsp::Gaussian2D g_fall =
      fit_or_default(falling_pts, falling, scale, config_.min_sigma);
  const dsp::Gaussian2D g_hold =
      fit_or_default(constant_pts, constant, scale, config_.min_sigma);

  // Erasure emissions: the same cluster means with inflated sigmas, so a
  // distrusted observation barely discriminates between states and the
  // transition structure decides.
  const auto widen = [&](dsp::Gaussian2D g) {
    g.sigma_i *= soft.erasure_sigma_scale;
    g.sigma_q *= soft.erasure_sigma_scale;
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
      if (confidences[i] < soft.erasure_threshold) {
        erased[i] = true;
        ++out.erasures;
      }
    }
  }

  const double log_edge = std::log(config_.edge_probability);
  const double log_hold = std::log(1.0 - config_.edge_probability);
  const double kNo = dsp::Viterbi::kForbidden;

  // Rows: from-state; columns: to-state {↑, ↓, −₊, −₋}. After ↑ or −₊ the
  // level is 1, so the next boundary is either a falling edge or a hold at
  // 1; symmetrically for level 0.
  std::vector<std::vector<double>> transition = {
      /* from ↑  */ {kNo, log_edge, log_hold, kNo},
      /* from ↓  */ {log_edge, kNo, kNo, log_hold},
      /* from −₊ */ {kNo, log_edge, log_hold, kNo},
      /* from −₋ */ {log_edge, kNo, kNo, log_hold},
  };
  // The first boundary of a stream is the idle→anchor rising edge.
  std::vector<double> initial = {0.0, kNo, kNo, kNo};

  const dsp::Viterbi viterbi(std::move(transition), std::move(initial));
  const auto emission = [&](std::size_t step, std::size_t state) {
    const Complex& z = points[step];
    const bool wide = erased[step];
    switch (state) {
      case kRising:
        return (wide ? w_rise : g_rise).log_pdf(z);
      case kFalling:
        return (wide ? w_fall : g_fall).log_pdf(z);
      default:
        return (wide ? w_hold : g_hold).log_pdf(z);
    }
  };
  const dsp::Viterbi::Path path = viterbi.decode(points.size(), emission);

  out.bits.reserve(points.size());
  for (std::size_t s : path.states) {
    out.bits.push_back(s == kRising || s == kHoldHigh);
  }
  out.bit_margins = path.margins;
  out.path_margin = path.final_margin;
  out.log_score = path.log_score;
  return out;
}

}  // namespace lfbs::core
