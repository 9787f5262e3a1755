#include "net/admission.h"

#include "common/kv_spec.h"

namespace lfbs::net {

AdmissionConfig parse_quota_spec(const std::string& spec) {
  if (spec.empty()) {
    throw SpecParseError(SpecError::kEmpty, "empty quota spec");
  }
  AdmissionConfig config;
  for (const KvField& field : parse_kv_spec(spec)) {
    if (field.key == "conns") {
      config.max_connections = kv_u64(field);
      if (config.max_connections == 0) bad_value(field, "an integer >= 1");
    } else if (field.key == "retry-after") {
      config.retry_after = kv_number(field, 0.0);
    } else {
      bad_key(field, "quota");
    }
  }
  return config;
}

}  // namespace lfbs::net
