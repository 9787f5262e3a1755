// Tests for the small linear-algebra kit, OMP, and the max-sum Viterbi engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "dsp/linalg.h"
#include "dsp/omp.h"
#include "dsp/viterbi.h"

namespace lfbs::dsp {
namespace {

TEST(Matrix, IdentityAndMultiply) {
  const Matrix id = Matrix::identity(3);
  Matrix a(3, 3);
  a.at(0, 1) = {2.0, 1.0};
  a.at(2, 0) = {-1.0, 0.0};
  const Matrix prod = id * a;
  EXPECT_EQ(prod.at(0, 1), a.at(0, 1));
  EXPECT_EQ(prod.at(2, 0), a.at(2, 0));
}

TEST(Matrix, TransposeAndHermitian) {
  Matrix a(2, 3);
  a.at(0, 2) = {1.0, 2.0};
  const Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.at(2, 0), (Complex{1.0, 2.0}));
  const Matrix h = a.hermitian();
  EXPECT_EQ(h.at(2, 0), (Complex{1.0, -2.0}));
}

TEST(Matrix, VectorMultiply) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 3.0;
  a.at(1, 1) = 4.0;
  const std::vector<Complex> x = {{1.0, 0.0}, {1.0, 0.0}};
  const auto y = a * std::span<const Complex>(x);
  EXPECT_NEAR(y[0].real(), 3.0, 1e-12);
  EXPECT_NEAR(y[1].real(), 7.0, 1e-12);
}

TEST(Solve, SolvesComplexSystem) {
  Matrix a(2, 2);
  a.at(0, 0) = {1.0, 1.0};
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 0.5;
  a.at(1, 1) = {0.0, -1.0};
  const std::vector<Complex> x_true = {{1.0, -2.0}, {0.5, 0.25}};
  const auto b = a * std::span<const Complex>(x_true);
  const auto x = solve(a, b);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(std::abs(x[0] - x_true[0]), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(x[1] - x_true[1]), 0.0, 1e-9);
}

TEST(Solve, SingularReturnsEmpty) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;  // row 2 = 2 * row 1
  const std::vector<Complex> b = {1.0, 2.0};
  EXPECT_TRUE(solve(a, b).empty());
}

TEST(Solve, NeedsPivoting) {
  // Zero on the initial pivot position requires row exchange.
  Matrix a(2, 2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.0;
  const std::vector<Complex> b = {3.0, 5.0};
  const auto x = solve(a, b);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0].real(), 5.0, 1e-12);
  EXPECT_NEAR(x[1].real(), 3.0, 1e-12);
}

TEST(LeastSquares, OverdeterminedRecovery) {
  Rng rng(3);
  Matrix a(20, 3);
  for (std::size_t r = 0; r < 20; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      a.at(r, c) = {rng.gaussian(), rng.gaussian()};
    }
  }
  const std::vector<Complex> x_true = {{1, 0}, {0, -1}, {2, 2}};
  auto b = a * std::span<const Complex>(x_true);
  for (auto& v : b) v += Complex{rng.gaussian(0, 1e-6), rng.gaussian(0, 1e-6)};
  const auto x = least_squares(a, b);
  ASSERT_EQ(x.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-4);
  }
}

TEST(LeastSquares, RidgeShrinks) {
  Matrix a = Matrix::identity(2);
  const std::vector<Complex> b = {10.0, 10.0};
  const auto plain = least_squares(a, b, 0.0);
  const auto ridged = least_squares(a, b, 1.0);
  EXPECT_NEAR(plain[0].real(), 10.0, 1e-9);
  EXPECT_NEAR(ridged[0].real(), 5.0, 1e-9);
}

TEST(ResidualNorm, ZeroForExactSolution) {
  Matrix a = Matrix::identity(3);
  const std::vector<Complex> x = {1.0, 2.0, 3.0};
  EXPECT_NEAR(residual_norm(a, x, x), 0.0, 1e-12);
  const std::vector<Complex> b = {1.0, 2.0, 4.0};
  EXPECT_NEAR(residual_norm(a, x, b), 1.0, 1e-12);
}

TEST(Omp, RecoversSparseSupport) {
  Rng rng(17);
  const std::size_t m = 24, n = 12;
  Matrix a(m, n);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      a.at(r, c) = {rng.gaussian(), rng.gaussian()};
    }
  }
  std::vector<Complex> x_true(n);
  x_true[2] = {1.0, 0.5};
  x_true[7] = {-0.8, 0.3};
  auto y = a * std::span<const Complex>(x_true);
  const SparseSolution sol = orthogonal_matching_pursuit(a, y, 2);
  ASSERT_EQ(sol.support.size(), 2u);
  EXPECT_TRUE((sol.support[0] == 2 && sol.support[1] == 7) ||
              (sol.support[0] == 7 && sol.support[1] == 2));
  EXPECT_NEAR(std::abs(sol.coefficients[2] - x_true[2]), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(sol.coefficients[7] - x_true[7]), 0.0, 1e-6);
}

TEST(Omp, FullSupportActsAsLeastSquares) {
  Rng rng(19);
  Matrix a(8, 4);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      a.at(r, c) = {rng.gaussian(), rng.gaussian()};
    }
  }
  const std::vector<Complex> x_true = {{1, 1}, {2, 0}, {0, -1}, {0.5, 0.5}};
  const auto y = a * std::span<const Complex>(x_true);
  const SparseSolution sol = orthogonal_matching_pursuit(a, y, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(std::abs(sol.coefficients[i] - x_true[i]), 0.0, 1e-6);
  }
}

TEST(Omp, ZeroSignal) {
  Matrix a = Matrix::identity(4);
  const std::vector<Complex> y(4, Complex{});
  const SparseSolution sol = orthogonal_matching_pursuit(a, y, 2);
  EXPECT_TRUE(sol.support.empty());
}

/// A machine in table form: `transition[i][j]` is the log score of moving
/// from state i to state j (kImpossible: forbidden), `initial[i]` the log
/// score of starting in state i.
template <std::size_t S>
using Table = std::array<std::array<double, S>, S>;

template <std::size_t S, class Emit>
ViterbiPath decode_table(const Table<S>& transition,
                         const std::array<double, S>& initial,
                         std::size_t steps, const Emit& emit) {
  return viterbi<S>(
      steps, [&](std::size_t s) { return initial[s]; },
      [&](std::size_t, std::size_t from, std::size_t to, double score) {
        return score + transition[from][to];
      },
      emit);
}

TEST(Viterbi, FollowsEmissionsWhenUnconstrained) {
  const double t = std::log(0.5);
  // Emissions prefer state 1 at odd steps.
  const auto path = decode_table<2>(
      {{{t, t}, {t, t}}}, {t, t}, 6, [](std::size_t step, std::size_t state) {
        return (step % 2 == state) ? 0.0 : -5.0;
      });
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(path.states[i], i % 2);
}

TEST(Viterbi, ForbiddenTransitionsBlockPath) {
  const double t = std::log(0.5);
  const double no = kImpossible;
  // State 0 cannot go to state 1 directly.
  const auto path =
      decode_table<2>({{{t, no}, {t, t}}}, {0.0, no}, 3,
                      [](std::size_t, std::size_t) { return 0.0; });
  for (std::size_t i = 0; i + 1 < path.states.size(); ++i) {
    EXPECT_FALSE(path.states[i] == 0 && path.states[i + 1] == 1);
  }
}

TEST(Viterbi, CorrectsSingleBadEmission) {
  // Two states that must alternate; one noisy observation mid-sequence
  // should be overridden by the transition structure.
  const double no = kImpossible;
  const auto path = decode_table<2>(
      {{{no, 0.0}, {0.0, no}}}, {0.0, no}, 5,
      [](std::size_t step, std::size_t state) {
        const std::size_t expected = step % 2;
        if (step == 2) return state == expected ? -3.0 : -1.0;  // lying
        return state == expected ? -0.1 : -10.0;
      });
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(path.states[i], i % 2);
}

/// Random S-state machines with forbidden moves and continuous scores,
/// checked against every one of the S^n paths.
template <std::size_t S>
void check_against_exhaustive_search(std::uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_u64(6));
    Table<S> transition;
    std::array<double, S> initial;
    for (std::size_t i = 0; i < S; ++i) {
      // State 0 can always start and i -> i+1 is always allowed, so some
      // path survives; everything else is forbidden a third of the time.
      initial[i] = (i == 0 || rng.uniform() > 0.35) ? rng.uniform(-2.0, 0.0)
                                                   : kImpossible;
      for (std::size_t j = 0; j < S; ++j) {
        transition[i][j] = (j == (i + 1) % S || rng.uniform() > 0.35)
                               ? rng.uniform(-2.0, 0.0)
                               : kImpossible;
      }
    }
    std::vector<std::array<double, S>> scores(n);
    for (auto& step : scores) {
      for (double& x : step) x = rng.uniform(-3.0, 0.0);
    }
    const auto emit = [&](std::size_t t, std::size_t s) {
      return scores[t][s];
    };
    const ViterbiPath path = decode_table<S>(transition, initial, n, emit);

    // Exhaustive search, summing in the engine's order.
    double best = kImpossible;
    std::vector<std::size_t> best_path;
    std::array<double, S> best_ending;
    best_ending.fill(kImpossible);
    std::size_t total = 1;
    for (std::size_t t = 0; t < n; ++t) total *= S;
    std::vector<std::size_t> states(n);
    for (std::size_t code = 0; code < total; ++code) {
      std::size_t rest = code;
      for (std::size_t t = 0; t < n; ++t, rest /= S) states[t] = rest % S;
      double score = initial[states[0]] + emit(0, states[0]);
      for (std::size_t t = 1; t < n; ++t) {
        score += transition[states[t - 1]][states[t]];
        score += emit(t, states[t]);
      }
      best_ending[states[n - 1]] = std::max(best_ending[states[n - 1]], score);
      if (score > best) {
        best = score;
        best_path = states;
      }
    }
    ASSERT_TRUE(std::isfinite(best));
    EXPECT_EQ(path.states, best_path) << "S=" << S << " n=" << n;
    EXPECT_EQ(path.log_score, best) << "S=" << S << " n=" << n;
    // The terminal margin is the winner over the best other ending.
    double runner_up = kImpossible;
    for (std::size_t s = 0; s < S; ++s) {
      if (s == path.states.back()) continue;
      runner_up = std::max(runner_up, best_ending[s]);
    }
    EXPECT_EQ(path.margins.back(),
              std::isfinite(runner_up) ? best - runner_up : 0.0);
  }
}

TEST(Viterbi, MatchesExhaustiveSearch) {
  check_against_exhaustive_search<2>(21);
  check_against_exhaustive_search<4>(22);
  check_against_exhaustive_search<8>(23);
}

TEST(Viterbi, SingleReachableStartHasZeroMargin) {
  const double no = kImpossible;
  const Table<4> free_moves = {};  // every move allowed, score 0
  const auto path = decode_table<4>(
      free_moves, {no, 0.0, no, no}, 3,
      [](std::size_t t, std::size_t s) {
        return -0.5 * static_cast<double>(t + s);
      });
  EXPECT_EQ(path.margins[0], 0.0);
  EXPECT_EQ(path.states[0], 1u);
  EXPECT_GT(path.margins[1], 0.0);
}

}  // namespace
}  // namespace lfbs::dsp
