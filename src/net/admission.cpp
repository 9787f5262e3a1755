#include "net/admission.h"

#include <limits>

#include "common/kv_spec.h"

namespace lfbs::net {

const char* to_string(QuotaError code) {
  switch (code) {
    case QuotaError::kEmpty:
      return "empty clause";
    case QuotaError::kBadKey:
      return "unknown key";
    case QuotaError::kBadValue:
      return "bad value";
  }
  return "?";
}

namespace {

[[noreturn]] void bad_value(const KvField& field, const char* wants) {
  throw QuotaParseError(QuotaError::kBadValue,
                        "quota clause '" + field.key + "=" + field.value +
                            "' wants " + wants);
}

std::size_t quota_count(const KvField& field) {
  try {
    return kv_u64(field);
  } catch (const CheckError&) {
    bad_value(field, "a non-negative integer");
  }
}

std::size_t quota_bytes(const KvField& field) {
  const std::size_t kb = quota_count(field);
  if (kb > std::numeric_limits<std::size_t>::max() / 1024) {
    bad_value(field, "a size that fits in bytes");
  }
  return kb * 1024;
}

double quota_number(const KvField& field) {
  double value = 0.0;
  try {
    value = kv_number(field);
  } catch (const CheckError&) {
    bad_value(field, "a non-negative number");
  }
  if (value < 0.0) bad_value(field, "a non-negative number");
  return value;
}

}  // namespace

AdmissionConfig parse_quota_spec(const std::string& spec) {
  if (spec.empty()) {
    throw QuotaParseError(QuotaError::kEmpty, "empty quota spec");
  }
  // parse_kv_spec skips empty clauses; this grammar rejects them.
  if (spec.front() == ',' || spec.back() == ',' ||
      spec.find(",,") != std::string::npos) {
    throw QuotaParseError(QuotaError::kEmpty,
                          "empty clause in quota spec '" + spec + "'");
  }
  std::vector<KvField> fields;
  try {
    fields = parse_kv_spec(spec);
  } catch (const CheckError& e) {
    throw QuotaParseError(QuotaError::kBadValue, e.what());
  }
  AdmissionConfig config;
  config.enabled = true;
  for (const KvField& field : fields) {
    if (field.key == "conns") {
      config.max_connections = quota_count(field);
    } else if (field.key == "retry-after") {
      config.retry_after = quota_number(field);
    } else if (field.key == "be-clients") {
      config.best_effort.max_clients = quota_count(field);
    } else if (field.key == "be-fps") {
      config.best_effort.max_frames_per_sec = quota_number(field);
    } else if (field.key == "be-queue-kb") {
      config.best_effort.max_queue_bytes = quota_bytes(field);
    } else if (field.key == "prio-clients") {
      config.priority.max_clients = quota_count(field);
    } else if (field.key == "prio-fps") {
      config.priority.max_frames_per_sec = quota_number(field);
    } else if (field.key == "prio-queue-kb") {
      config.priority.max_queue_bytes = quota_bytes(field);
    } else {
      throw QuotaParseError(QuotaError::kBadKey,
                            "unknown quota key '" + field.key + "'");
    }
  }
  return config;
}

AdmissionDecision AdmissionController::admit_connection(
    std::size_t active_connections) const {
  if (!config_.enabled) return {};
  if (config_.max_connections > 0 &&
      active_connections >= config_.max_connections) {
    return {false, config_.retry_after, "connection budget exhausted"};
  }
  return {};
}

AdmissionDecision AdmissionController::admit_class(ClientClass cls) {
  if (!config_.enabled) return {};
  const ClassQuota& quota = config_.quota(cls);
  std::size_t& count =
      cls == ClientClass::kPriority ? priority_ : best_effort_;
  if (quota.max_clients > 0 && count >= quota.max_clients) {
    return {false, config_.retry_after,
            cls == ClientClass::kPriority
                ? "priority subscriber budget exhausted"
                : "best-effort subscriber budget exhausted"};
  }
  ++count;
  return {};
}

void AdmissionController::release_class(ClientClass cls) {
  std::size_t& count =
      cls == ClientClass::kPriority ? priority_ : best_effort_;
  if (count > 0) --count;
}

}  // namespace lfbs::net
