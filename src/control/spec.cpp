#include "control/spec.h"

#include "common/kv_spec.h"
#include "control/scheduler.h"

namespace lfbs::control {

const char* to_string(ControlError code) {
  switch (code) {
    case ControlError::kEmpty:
      return "empty";
    case ControlError::kBadKey:
      return "bad key";
    case ControlError::kBadValue:
      return "bad value";
  }
  return "?";
}

namespace {

double control_number(const KvField& field) {
  try {
    return kv_number(field);
  } catch (const CheckError& e) {
    throw ControlParseError(ControlError::kBadValue, e.what());
  }
}

std::uint64_t control_u64(const KvField& field) {
  try {
    return kv_u64(field);
  } catch (const CheckError& e) {
    throw ControlParseError(ControlError::kBadValue, e.what());
  }
}

void require(bool ok, const KvField& field, const char* why) {
  if (!ok) {
    throw ControlParseError(ControlError::kBadValue,
                            "control clause '" + field.key + "=" +
                                field.value + "': " + why);
  }
}

}  // namespace

ControlSpec parse_control_spec(const std::string& spec) {
  if (spec.empty()) {
    throw ControlParseError(ControlError::kEmpty, "empty control spec");
  }
  ControlSpec out;
  if (spec == "on") return out;  // all defaults

  std::vector<KvField> fields;
  try {
    fields = parse_kv_spec(spec);
  } catch (const CheckError& e) {
    throw ControlParseError(ControlError::kBadValue, e.what());
  }
  if (fields.empty()) {
    throw ControlParseError(ControlError::kEmpty,
                            "control spec '" + spec + "' has no clauses");
  }
  for (const KvField& field : fields) {
    if (field.key == "policy") {
      out.loop.policy = parse_policy_name(field.value);
    } else if (field.key == "seed") {
      out.loop.seed = control_u64(field);
    } else if (field.key == "target-goodput") {
      const double v = control_number(field);
      require(v >= 0.0, field, "must be >= 0");
      out.loop.objective.target_goodput = v;
    } else if (field.key == "min-confidence") {
      const double v = control_number(field);
      require(v >= 0.0 && v <= 1.0, field, "must be in [0, 1]");
      out.loop.objective.min_confidence = v;
    } else if (field.key == "max-rate") {
      const double v = control_number(field);
      require(v >= 0.0, field, "must be >= 0");
      out.loop.objective.max_rate = v;
    } else if (field.key == "budget") {
      const double v = control_number(field);
      require(v >= 0.0, field, "must be >= 0");
      out.loop.objective.epoch_budget = v;
    } else if (field.key == "penalty") {
      const double v = control_number(field);
      require(v >= 0.0, field, "must be >= 0");
      out.loop.objective.collision_penalty = v;
    } else if (field.key == "freeze") {
      const double v = control_number(field);
      require(v == 0.0 || v == 1.0, field, "must be 0 or 1");
      out.loop.frozen = v != 0.0;
    } else if (field.key == "alpha") {
      const double v = control_number(field);
      require(v > 0.0 && v <= 1.0, field, "must be in (0, 1]");
      out.loop.tracker.alpha = v;
    } else if (field.key == "forget") {
      const std::uint64_t v = control_u64(field);
      require(v >= 1, field, "must be >= 1");
      out.loop.tracker.forget_after = v;
    } else if (field.key == "period-ms") {
      const double v = control_number(field);
      require(v > 0.0, field, "must be > 0");
      out.period = v * 1e-3;
    } else {
      throw ControlParseError(ControlError::kBadKey,
                              "unknown control key '" + field.key + "'");
    }
  }
  return out;
}

std::string parse_policy_name(const std::string& name) {
  if (make_policy(name, 0) == nullptr) {
    throw ControlParseError(ControlError::kBadValue,
                            "unknown scheduling policy '" + name +
                                "' (expected greedy or static)");
  }
  return name;
}

}  // namespace lfbs::control
