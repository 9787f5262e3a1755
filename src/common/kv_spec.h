#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace lfbs {

/// What, structurally, is wrong with a key=value spec string. The one
/// error vocabulary of every spec grammar — `--inject-faults`
/// (runtime::parse_fault_plan), `--chaos` (net::parse_chaos_config),
/// `--control` (control::parse_control_spec) and `--quota`
/// (net::parse_quota_spec) — so each CLI reports a bad spec the same way:
/// exit 2, the offending clause named.
enum class SpecError {
  kEmpty,     ///< the spec, or one of its clauses, is empty
  kBadKey,    ///< unknown key
  kBadValue,  ///< value missing, unparseable or out of range
};

const char* to_string(SpecError code);

/// Thrown by every spec parser. Derives from CheckError so generic catch
/// sites keep working; the CLIs switch on code() for the usage message.
class SpecParseError : public CheckError {
 public:
  SpecParseError(SpecError code, const std::string& what)
      : CheckError(what), code_(code) {}
  SpecError code() const { return code_; }

 private:
  SpecError code_;
};

/// One "key=value" field of a comma-separated spec string.
struct KvField {
  std::string key;
  std::string value;
};

/// Splits a comma-separated "key=value" spec into ordered fields. An empty
/// spec has no fields; an empty clause (",k=v", "k=v,", "a=1,,b=2") throws
/// kEmpty and a clause without '=' throws kBadValue. Key interpretation is
/// the caller's job: an unknown key is kBadKey (see bad_key).
std::vector<KvField> parse_kv_spec(const std::string& spec);

/// The field's value as a finite number in [lo, hi]. The whole value must
/// parse (no trailing characters, no leading whitespace or '+'); anything
/// else, nan or inf included, throws kBadValue naming the clause.
double kv_number(const KvField& field,
                 double lo = -std::numeric_limits<double>::infinity(),
                 double hi = std::numeric_limits<double>::infinity());

/// A probability: kv_number in [0, 1].
double kv_probability(const KvField& field);

/// A duration written in milliseconds (kv_number ≥ 0), returned in
/// seconds.
Seconds kv_millis(const KvField& field);

/// The field's value as an unsigned integer: digits only, no sign, within
/// 64 bits; otherwise throws kBadValue naming the clause, like kv_number.
std::uint64_t kv_u64(const KvField& field);

/// Throws kBadValue for `field`, saying what its key `wants`.
[[noreturn]] void bad_value(const KvField& field, const std::string& wants);

/// Throws kBadKey for `field`; `grammar` names the spec ("quota", ...).
[[noreturn]] void bad_key(const KvField& field, const char* grammar);

}  // namespace lfbs
