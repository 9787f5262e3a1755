#include "control/spec.h"

#include "control/scheduler.h"

namespace lfbs::control {

namespace {

void require(bool ok, const KvField& field, const char* wants) {
  if (!ok) bad_value(field, wants);
}

}  // namespace

ControlSpec parse_control_spec(const std::string& spec) {
  if (spec.empty()) {
    throw SpecParseError(SpecError::kEmpty, "empty control spec");
  }
  ControlSpec out;
  if (spec == "on") return out;  // all defaults

  for (const KvField& field : parse_kv_spec(spec)) {
    if (field.key == "policy") {
      out.loop.policy = parse_policy_name(field.value);
    } else if (field.key == "seed") {
      out.loop.seed = kv_u64(field);
    } else if (field.key == "target-goodput") {
      out.loop.objective.target_goodput = kv_number(field, 0.0);
    } else if (field.key == "min-confidence") {
      out.loop.objective.min_confidence = kv_number(field, 0.0, 1.0);
    } else if (field.key == "max-rate") {
      out.loop.objective.max_rate = kv_number(field, 0.0);
    } else if (field.key == "budget") {
      out.loop.objective.epoch_budget = kv_number(field, 0.0);
    } else if (field.key == "penalty") {
      out.loop.objective.collision_penalty = kv_number(field, 0.0);
    } else if (field.key == "freeze") {
      const double v = kv_number(field, 0.0, 1.0);
      require(v == 0.0 || v == 1.0, field, "0 or 1");
      out.loop.frozen = v != 0.0;
    } else if (field.key == "alpha") {
      const double v = kv_number(field, 0.0, 1.0);
      require(v > 0.0, field, "a number in (0, 1]");
      out.loop.tracker.alpha = v;
    } else if (field.key == "forget") {
      const std::uint64_t v = kv_u64(field);
      require(v >= 1, field, "an integer >= 1");
      out.loop.tracker.forget_after = v;
    } else if (field.key == "period-ms") {
      const Seconds v = kv_millis(field);
      require(v > 0.0, field, "a duration > 0 ms");
      out.period = v;
    } else {
      bad_key(field, "control");
    }
  }
  return out;
}

std::string parse_policy_name(const std::string& name) {
  if (make_policy(name, 0) == nullptr) {
    throw SpecParseError(SpecError::kBadValue,
                         "unknown scheduling policy '" + name +
                             "' (expected greedy or static)");
  }
  return name;
}

}  // namespace lfbs::control
