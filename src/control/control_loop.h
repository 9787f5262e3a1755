#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "control/fleet_tracker.h"
#include "control/scheduler.h"
#include "net/wire.h"
#include "protocol/epoch.h"

namespace lfbs::control {

struct ControlLoopConfig {
  ControlObjective objective{};
  std::string policy = "greedy";
  std::uint64_t seed = 0x1f53c0de;
  /// Freeze: the operator's "look, don't touch" flag. The loop keeps
  /// sensing, planning and publishing; the flag travels in the wire state
  /// and the plan event, for whoever acts on the plan downstream.
  bool frozen = false;
};

/// The fleet control plane's loop: sense (FleetTracker), plan (a
/// SchedulingPolicy over the rate plan and the objective), tell (typed
/// "control" events, control.* metrics, and — via the gateway glue —
/// LFBW1 kControlPlan broadcasts). The plan is advisory: nothing here
/// applies it; consumers of the broadcast act on it.
///
/// step() closes the tracker's open epoch, plans the next one, and
/// publishes the decision. The caller sets the pace: the gateway steps
/// once per run, after the run drains, with the capture's own duration;
/// tests step directly.
///
/// All entry points are thread-safe. The knob setters mirror the LFBW1
/// control-set message, so a remote operator and the local loop see one
/// consistent state.
class ControlLoop {
 public:
  ControlLoop(ControlLoopConfig config, protocol::RatePlan rates);

  FleetTracker& tracker() { return tracker_; }
  const char* policy_name() const { return policy_->name(); }

  /// Close epoch `epoch` (duration seconds of air time), plan the next
  /// epoch, publish. Returns the new plan.
  EpochPlan step(std::uint64_t epoch, Seconds duration);

  // --- knobs (the LFBW1 control-set surface) -----------------------------
  void set_frozen(bool frozen);
  bool frozen() const;
  ControlObjective objective() const;

  EpochPlan last_plan() const;

  /// Current state + plan as the wire message — the reply to control-get
  /// and the broadcast after each step.
  net::ControlPlanMsg wire_state() const;
  /// Applies a control-set message and returns the updated state. The
  /// gateway installs these two as its FrameServer control hooks.
  net::ControlPlanMsg apply_control_set(const net::ControlSet& set);

 private:
  void publish(const EpochPlan& plan, const FleetSnapshot& snapshot,
               bool frozen);

  FleetTracker tracker_;
  const std::unique_ptr<SchedulingPolicy> policy_;
  const protocol::RatePlan rates_;

  mutable std::mutex mutex_;
  ControlObjective objective_;
  bool frozen_ = false;
  EpochPlan last_plan_;
};

}  // namespace lfbs::control
