#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "control/fleet_tracker.h"
#include "protocol/epoch.h"

namespace lfbs::control {

/// What the scheduler is asked to achieve, and under which constraints.
/// These are the gateway's remote-operable knobs (LFBW1 control-set).
struct ControlObjective {
  /// Stop raising rates once the plan's predicted aggregate goodput
  /// reaches this many bits/s; 0 = maximize.
  double target_goodput = 0.0;
  /// Tags whose smoothed decode confidence is below this are pinned to
  /// the slowest plan rate (they would waste air time at anything more).
  double min_confidence = 0.0;
  /// Manual override: cap every assignment at this rate (0 = plan max).
  BitRate max_rate = 0.0;
  /// Cap on the fleet's aggregate rate, in multiples of the slowest plan
  /// rate (the §3.2 base-rate unit); 0 = unlimited.
  double epoch_budget = 0.0;
  /// Scale of the same-rate crowding penalty. The effective penalty is
  /// collision_penalty × observed fleet collision pressure, so a clean
  /// fleet pays nothing and a colliding one spreads across rate classes.
  double collision_penalty = 1.0;
};

struct TagAssignment {
  std::uint64_t tag = 0;       ///< tracker tag key
  BitRate rate = 0.0;          ///< rate commanded for the next epoch
  double predicted_goodput = 0.0;  ///< bits/s the policy expects
};

/// One epoch's rate assignment for the whole fleet.
struct EpochPlan {
  std::uint64_t epoch = 0;     ///< epoch index the plan applies to
  std::string policy;          ///< name of the policy that produced it
  BitRate max_rate = 0.0;      ///< effective ceiling the policy planned under
  double predicted_goodput_bps = 0.0;
  double collision_pressure = 0.0;  ///< fleet pressure it planned against
  std::vector<TagAssignment> assignments;  ///< sorted by tag key
};

/// Pluggable epoch-rate assignment: the planning half of the control
/// plane. ControlLoop holds one policy with the rate plan and the
/// objective, and calls plan() once per step. Policies must be
/// deterministic: identical (snapshot, rates, objective, epoch) inputs —
/// and, for seeded policies, identical seeds — must produce identical
/// plans.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;
  virtual const char* name() const = 0;
  virtual EpochPlan plan(const FleetSnapshot& fleet,
                         const protocol::RatePlan& rates,
                         const ControlObjective& objective,
                         std::uint64_t epoch) const = 0;
};

/// Baseline: every tag keeps its currently observed rate, snapped to the
/// nearest plan rate at or below the objective's cap. This is what a
/// fleet does with no control plane — the A/B reference the acceptance
/// test compares the greedy packer against.
class StaticAssignmentPolicy final : public SchedulingPolicy {
 public:
  const char* name() const override { return "static"; }
  EpochPlan plan(const FleetSnapshot& fleet, const protocol::RatePlan& rates,
                 const ControlObjective& objective,
                 std::uint64_t epoch) const override;
};

/// Greedy marginal-goodput packing over the §3.2 multiple-of-base-rate
/// lattice. Every tag starts at the slowest plan rate; the policy then
/// repeatedly applies the single one-notch step-up with the best marginal
/// utility
///
///   Δu = p_tag · (r_next − r_cur) − λ · (n_next · r_next − (n_cur−1) · r_cur)
///
/// where p_tag is the tag's smoothed decode success, n_r the number of
/// tags already at rate r, and λ = collision_penalty × fleet collision
/// pressure. The penalty term charges same-rate crowding (same-rate tags
/// share one edge lattice, which is where collisions live), so under
/// pressure the packer spreads the fleet across rate classes instead of
/// stacking everyone at the ceiling. Terminates when no step improves
/// utility, the epoch budget is exhausted, or the target goodput is met.
/// Deterministic: ties are broken by a seed-keyed per-tag hash.
class GreedyMarginalPolicy final : public SchedulingPolicy {
 public:
  explicit GreedyMarginalPolicy(std::uint64_t seed = 0x1f53c0de)
      : seed_(seed) {}
  const char* name() const override { return "greedy"; }
  std::uint64_t seed() const { return seed_; }
  EpochPlan plan(const FleetSnapshot& fleet, const protocol::RatePlan& rates,
                 const ControlObjective& objective,
                 std::uint64_t epoch) const override;

 private:
  std::uint64_t seed_;
};

/// Policy factory for the CLI names ("greedy", "static"); nullptr on an
/// unknown name — the spec parser turns that into its typed error.
std::unique_ptr<SchedulingPolicy> make_policy(std::string_view name,
                                              std::uint64_t seed);

}  // namespace lfbs::control
