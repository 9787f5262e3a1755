#include "control/control_loop.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace lfbs::control {

ControlLoop::ControlLoop(ControlLoopConfig config, protocol::RatePlan rates)
    : policy_(make_policy(config.policy, config.seed)),
      rates_(std::move(rates)),
      objective_(config.objective),
      frozen_(config.frozen) {
  LFBS_CHECK(policy_ != nullptr);
  LFBS_CHECK(!rates_.rates.empty());
}

EpochPlan ControlLoop::step(std::uint64_t epoch, Seconds duration) {
  tracker_.end_epoch(epoch, duration);
  const FleetSnapshot snapshot = tracker_.snapshot();
  // The plan computed after closing epoch E applies to epoch E+1. It is
  // planned from a copy of the objective, which a control-set may rewrite
  // on the server's event-loop thread meanwhile.
  const EpochPlan plan =
      policy_->plan(snapshot, rates_, objective(), epoch + 1);

  bool frozen = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    last_plan_ = plan;
    frozen = frozen_;
  }
  publish(plan, snapshot, frozen);
  return plan;
}

void ControlLoop::set_frozen(bool frozen) {
  std::lock_guard<std::mutex> lock(mutex_);
  frozen_ = frozen;
}

bool ControlLoop::frozen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frozen_;
}

ControlObjective ControlLoop::objective() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return objective_;
}

EpochPlan ControlLoop::last_plan() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_plan_;
}

net::ControlPlanMsg ControlLoop::wire_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  net::ControlPlanMsg msg;
  msg.enabled = true;
  msg.frozen = frozen_;
  msg.target_goodput = objective_.target_goodput;
  msg.min_confidence = objective_.min_confidence;
  msg.max_rate = objective_.max_rate;
  msg.epoch = last_plan_.epoch;
  msg.policy =
      last_plan_.policy.empty() ? policy_->name() : last_plan_.policy;
  msg.predicted_goodput = last_plan_.predicted_goodput_bps;
  msg.collision_pressure = last_plan_.collision_pressure;
  msg.assignments.reserve(last_plan_.assignments.size());
  for (const TagAssignment& a : last_plan_.assignments) {
    msg.assignments.push_back({a.tag, a.rate, a.predicted_goodput});
  }
  return msg;
}

net::ControlPlanMsg ControlLoop::apply_control_set(
    const net::ControlSet& set) {
  ControlObjective objective;
  bool frozen = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (set.set_frozen) frozen_ = set.frozen;
    if (set.set_target_goodput) objective_.target_goodput = set.target_goodput;
    if (set.set_min_confidence) objective_.min_confidence = set.min_confidence;
    if (set.set_max_rate) objective_.max_rate = set.max_rate;
    objective = objective_;
    frozen = frozen_;
  }
  if (obs::EventLog* log = obs::event_log()) {
    log->emit("control",
              {obs::Field::str("action", "set"),
               obs::Field::flag("frozen", frozen),
               obs::Field::num("target_goodput", objective.target_goodput),
               obs::Field::num("min_confidence", objective.min_confidence),
               obs::Field::num("max_rate", objective.max_rate)});
  }
  return wire_state();
}

void ControlLoop::publish(const EpochPlan& plan,
                          const FleetSnapshot& snapshot, bool frozen) {
  static obs::Counter& plans = obs::metrics().counter("control.plans");
  plans.add();
  obs::metrics().gauge("control.collision_pressure")
      .set(plan.collision_pressure);
  obs::metrics().gauge("control.predicted_goodput")
      .set(plan.predicted_goodput_bps);

  // Per-tag gauges: last-write-wins state an operator can scrape without
  // parsing the event log.
  for (const TagAssignment& a : plan.assignments) {
    const std::string suffix = std::to_string(a.tag);
    obs::metrics().gauge("control.tag_rate." + suffix).set(a.rate);
  }
  for (const TagState& tag : snapshot.tags) {
    const std::string suffix = std::to_string(tag.key);
    obs::metrics().gauge("control.tag_goodput." + suffix).set(tag.goodput_bps);
  }

  obs::EventLog* log = obs::event_log();
  if (log == nullptr) return;
  log->emit("control",
            {obs::Field::str("action", "plan"),
             obs::Field::integer("epoch", static_cast<std::int64_t>(plan.epoch)),
             obs::Field::str("policy", plan.policy),
             obs::Field::integer("tags", static_cast<std::int64_t>(
                                             plan.assignments.size())),
             obs::Field::num("max_rate", plan.max_rate),
             obs::Field::num("predicted_goodput", plan.predicted_goodput_bps),
             obs::Field::num("collision_pressure", plan.collision_pressure),
             obs::Field::flag("frozen", frozen)});
  for (const TagAssignment& a : plan.assignments) {
    std::vector<obs::Field> fields = {
        obs::Field::str("action", "assign"),
        obs::Field::integer("epoch", static_cast<std::int64_t>(plan.epoch)),
        obs::Field::integer("tag", static_cast<std::int64_t>(a.tag)),
        obs::Field::num("rate", a.rate),
        obs::Field::num("goodput", a.predicted_goodput),
    };
    // Enrich with the tag's observed state when the tracker still has it.
    for (const TagState& tag : snapshot.tags) {
      if (tag.key != a.tag) continue;
      fields.push_back(obs::Field::num("observed_goodput", tag.goodput_bps));
      fields.push_back(obs::Field::num("success", tag.success));
      break;
    }
    log->emit("control", fields);
  }
}

}  // namespace lfbs::control
