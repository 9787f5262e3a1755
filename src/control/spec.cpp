#include "control/spec.h"

#include "control/scheduler.h"

namespace lfbs::control {

ControlLoopConfig parse_control_spec(const std::string& spec) {
  if (spec.empty()) {
    throw SpecParseError(SpecError::kEmpty, "empty control spec");
  }
  ControlLoopConfig out;
  if (spec == "on") return out;  // all defaults

  for (const KvField& field : parse_kv_spec(spec)) {
    if (field.key == "policy") {
      out.policy = parse_policy_name(field.value);
    } else if (field.key == "seed") {
      out.seed = kv_u64(field);
    } else if (field.key == "target-goodput") {
      out.objective.target_goodput = kv_number(field, 0.0);
    } else if (field.key == "min-confidence") {
      out.objective.min_confidence = kv_number(field, 0.0, 1.0);
    } else if (field.key == "max-rate") {
      out.objective.max_rate = kv_number(field, 0.0);
    } else if (field.key == "budget") {
      out.objective.epoch_budget = kv_number(field, 0.0);
    } else if (field.key == "penalty") {
      out.objective.collision_penalty = kv_number(field, 0.0);
    } else if (field.key == "freeze") {
      const double v = kv_number(field, 0.0, 1.0);
      if (v != 0.0 && v != 1.0) bad_value(field, "0 or 1");
      out.frozen = v != 0.0;
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
