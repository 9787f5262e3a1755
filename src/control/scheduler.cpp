#include "control/scheduler.h"

#include <algorithm>

namespace lfbs::control {

namespace {

/// splitmix64 finalizer — the deterministic per-tag tie-break hash.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Plan rates sorted ascending, filtered to the objective's manual cap.
/// Never empty for a non-empty plan: a cap below the slowest rate still
/// leaves the slowest rate (a fleet cannot transmit at nothing).
std::vector<BitRate> candidate_rates(const protocol::RatePlan& rates,
                                     BitRate cap) {
  std::vector<BitRate> out = rates.rates;
  std::sort(out.begin(), out.end());
  if (cap > 0.0) {
    while (out.size() > 1 && out.back() > cap * (1 + 1e-9)) out.pop_back();
  }
  return out;
}

/// Largest candidate at or below `rate`; the slowest one when `rate` sits
/// below the whole lattice (or was never observed).
std::size_t snap_level(const std::vector<BitRate>& cands, BitRate rate) {
  std::size_t level = 0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (cands[i] <= rate * (1 + 1e-9)) level = i;
  }
  return level;
}

double tag_success(const TagState& tag) {
  return std::clamp(tag.success, 0.0, 1.0);
}

}  // namespace

EpochPlan StaticAssignmentPolicy::plan(const FleetSnapshot& fleet,
                                       const protocol::RatePlan& rates,
                                       const ControlObjective& objective,
                                       std::uint64_t epoch) const {
  EpochPlan out;
  out.epoch = epoch;
  out.policy = name();
  out.collision_pressure = fleet.collision_pressure;
  const auto cands = candidate_rates(rates, objective.max_rate);
  if (cands.empty()) return out;
  out.max_rate = cands.back();
  for (const TagState& tag : fleet.tags) {
    // A tag whose rate was never observed defaults to the ceiling — the
    // paper's tags transmit at their configured (fast) rate until told
    // otherwise, which is exactly the no-control-plane behaviour.
    const std::size_t level = tag.rate > 0.0
                                  ? snap_level(cands, tag.rate)
                                  : cands.size() - 1;
    const double predicted = tag_success(tag) * cands[level];
    out.assignments.push_back({tag.key, cands[level], predicted});
    out.predicted_goodput_bps += predicted;
  }
  return out;
}

EpochPlan GreedyMarginalPolicy::plan(const FleetSnapshot& fleet,
                                     const protocol::RatePlan& rates,
                                     const ControlObjective& objective,
                                     std::uint64_t epoch) const {
  EpochPlan out;
  out.epoch = epoch;
  out.policy = name();
  out.collision_pressure = fleet.collision_pressure;
  const auto cands = candidate_rates(rates, objective.max_rate);
  if (cands.empty() || fleet.tags.empty()) {
    out.max_rate = cands.empty() ? 0.0 : cands.back();
    return out;
  }
  out.max_rate = cands.back();
  const double unit = cands.front();
  const double lambda =
      objective.collision_penalty * fleet.collision_pressure;

  struct Work {
    const TagState* tag;
    std::size_t level;
    double p;
    bool locked;
    std::uint64_t tiebreak;
  };
  std::vector<Work> work;
  work.reserve(fleet.tags.size());
  for (const TagState& tag : fleet.tags) {
    Work w;
    w.tag = &tag;
    w.level = 0;
    w.p = tag_success(tag);
    // Hopeless tags stay at base: at anything faster they only densify
    // the edge lattice for everyone else.
    w.locked = objective.min_confidence > 0.0 &&
               tag.confidence < objective.min_confidence;
    w.tiebreak = mix64(seed_ ^ tag.key);
    work.push_back(w);
  }

  std::vector<std::size_t> count(cands.size(), 0);
  count[0] = work.size();
  double total_units = static_cast<double>(work.size());  // all at 1 unit
  double predicted = 0.0;
  for (const Work& w : work) predicted += w.p * cands[0];

  // Each pass raises exactly one tag one notch, so the loop is bounded by
  // tags × (levels − 1) iterations.
  while (true) {
    if (objective.target_goodput > 0.0 &&
        predicted >= objective.target_goodput) {
      break;
    }
    std::size_t best = work.size();
    double best_gain = 0.0;
    std::uint64_t best_tie = 0;
    for (std::size_t i = 0; i < work.size(); ++i) {
      Work& w = work[i];
      if (w.locked || w.level + 1 >= cands.size()) continue;
      const BitRate r_cur = cands[w.level];
      const BitRate r_next = cands[w.level + 1];
      const double delta_units = (r_next - r_cur) / unit;
      if (objective.epoch_budget > 0.0 &&
          total_units + delta_units > objective.epoch_budget + 1e-9) {
        continue;
      }
      // Marginal utility: expected goodput gained minus the crowding cost
      // of joining the next rate class (and leaving the current one).
      const double gain =
          w.p * (r_next - r_cur) -
          lambda * (static_cast<double>(count[w.level + 1]) * r_next -
                    static_cast<double>(count[w.level] - 1) * r_cur);
      if (gain <= 1e-9) continue;
      const bool better =
          best == work.size() ||
          gain > best_gain + 1e-12 ||
          (gain > best_gain - 1e-12 && w.tiebreak > best_tie);
      if (better) {
        best = i;
        best_gain = gain;
        best_tie = w.tiebreak;
      }
    }
    if (best == work.size()) break;
    Work& w = work[best];
    const BitRate r_cur = cands[w.level];
    const BitRate r_next = cands[w.level + 1];
    count[w.level] -= 1;
    w.level += 1;
    count[w.level] += 1;
    total_units += (r_next - r_cur) / unit;
    predicted += w.p * (r_next - r_cur);
  }

  out.predicted_goodput_bps = predicted;
  for (const Work& w : work) {
    out.assignments.push_back(
        {w.tag->key, cands[w.level], w.p * cands[w.level]});
  }
  return out;  // fleet.tags is key-sorted, and order was preserved
}

std::unique_ptr<SchedulingPolicy> make_policy(std::string_view name,
                                              std::uint64_t seed) {
  if (name == "greedy") return std::make_unique<GreedyMarginalPolicy>(seed);
  if (name == "static") return std::make_unique<StaticAssignmentPolicy>();
  return nullptr;
}

}  // namespace lfbs::control
