#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lfbs {

/// One "key=value" field of a comma-separated spec string.
struct KvField {
  std::string key;
  std::string value;
};

/// Splits a comma-separated "key=value" spec — the grammar shared by
/// `--inject-faults` (runtime::parse_fault_plan), `--chaos`
/// (net::parse_chaos_config), `--control` (control::parse_control_spec)
/// and `--quota` (net::parse_quota_spec) — into ordered fields. Empty
/// fields between commas are skipped; a field without '=' throws
/// CheckError so the CLIs can report it as a usage error. Key
/// interpretation is the caller's job.
std::vector<KvField> parse_kv_spec(const std::string& spec);

/// The field's value as a finite number. The whole value must parse (no
/// trailing characters, no leading whitespace or '+'); anything else, and
/// nan or inf, throws CheckError naming the key.
double kv_number(const KvField& field);

/// The field's value as an unsigned integer: digits only, no sign, within
/// 64 bits; otherwise throws CheckError naming the key, like kv_number.
std::uint64_t kv_u64(const KvField& field);

}  // namespace lfbs
