#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lfbs::dsp {

/// Log score of a forbidden move or an unreachable state.
inline constexpr double kImpossible = -std::numeric_limits<double>::infinity();

/// The most likely state path of a max-sum (Viterbi) decode.
struct ViterbiPath {
  std::vector<std::size_t> states;  ///< best state per step
  double log_score = 0.0;           ///< total log score of the path
  /// Per-step soft output: the best state's cumulative score minus the
  /// runner-up's after step t — a log-likelihood-ratio proxy for how decided
  /// the step is. 0 while fewer than two states are reachable.
  /// margins.back() is the terminal margin: how decisively the winning path
  /// beats every other ending.
  std::vector<double> margins;
};

namespace detail {

/// Best minus second-best of one step's scores; 0 unless both are finite.
template <std::size_t S>
double step_margin(const std::array<double, S>& scores) {
  double best = kImpossible;
  double second = kImpossible;
  for (double s : scores) {
    if (s > best) {
      second = best;
      best = s;
    } else if (s > second) {
      second = s;
    }
  }
  if (!std::isfinite(best) || !std::isfinite(second)) return 0.0;
  return best - second;
}

}  // namespace detail

/// Max-sum Viterbi over `S` states and `steps` >= 1 steps. The machine is
/// three callables:
///
///   start(s)                   log score of being in state s before the
///                              step-0 observation (kImpossible: never);
///   extend(t, from, to, score) score of a path that scored `score` in
///                              state `from` at step t-1 and moves to `to`
///                              at step t >= 1, or kImpossible when the move
///                              is forbidden. The callable does the sum, so
///                              it fixes the summation order;
///   emit(t, s)                 log score of step t's observation in state
///                              s, added after the max over predecessors.
///
/// Among equal predecessors the lowest-numbered wins; among equal terminal
/// scores, the lowest-numbered state.
template <std::size_t S, class Start, class Extend, class Emit>
ViterbiPath viterbi(std::size_t steps, const Start& start,
                    const Extend& extend, const Emit& emit) {
  static_assert(S >= 1 && S <= 256, "backpointers are one byte per state");
  LFBS_CHECK(steps >= 1);
  LFBS_OBS_SPAN(span, "viterbi", "dsp");
  span.attr("steps", static_cast<double>(steps));
  static obs::Counter& decodes = obs::metrics().counter("dsp.viterbi_decodes");
  static obs::Counter& step_count =
      obs::metrics().counter("dsp.viterbi_steps");
  decodes.add();
  step_count.add(steps);

  ViterbiPath path;
  path.margins.resize(steps);
  // back[t * S + s]: the best predecessor of state s at step t.
  std::vector<std::uint8_t> back(steps * S, 0);
  std::array<double, S> score;
  for (std::size_t s = 0; s < S; ++s) score[s] = start(s) + emit(0, s);
  path.margins[0] = detail::step_margin(score);
  std::array<double, S> next;
  for (std::size_t t = 1; t < steps; ++t) {
    std::uint8_t* const row = back.data() + t * S;
    for (std::size_t to = 0; to < S; ++to) {
      double best = kImpossible;
      std::size_t arg = 0;
      for (std::size_t from = 0; from < S; ++from) {
        const double cand = extend(t, from, to, score[from]);
        if (cand > best) {
          best = cand;
          arg = from;
        }
      }
      next[to] = best + emit(t, to);
      row[to] = static_cast<std::uint8_t>(arg);
    }
    score = next;
    path.margins[t] = detail::step_margin(score);
  }

  std::size_t state = 0;
  for (std::size_t s = 1; s < S; ++s) {
    if (score[s] > score[state]) state = s;
  }
  path.log_score = score[state];
  path.states.resize(steps);
  for (std::size_t t = steps; t-- > 0;) {
    path.states[t] = state;
    state = back[t * S + state];
  }
  return path;
}

}  // namespace lfbs::dsp
