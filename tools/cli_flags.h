#pragma once

// Numeric and spec command-line flags of the lfbs_* tools, parsed with the
// grammar every spec flag uses (common/kv_spec.h): the whole value must
// parse, integers take no sign, numbers must be finite. A bad flag value is
// a usage error: one line naming the flag on stderr, then exit status 2.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "common/check.h"
#include "common/kv_spec.h"

namespace lfbs::tools {

inline constexpr std::uint64_t kNoLimit =
    std::numeric_limits<std::uint64_t>::max();

/// `value` as an unsigned integer no larger than `max`; nullopt otherwise.
inline std::optional<std::uint64_t> parse_u64(const std::string& value,
                                              std::uint64_t max) {
  try {
    const std::uint64_t v = kv_u64({"", value});
    if (v <= max) return v;
  } catch (const CheckError&) {
  }
  return std::nullopt;
}

inline std::uint64_t flag_u64(const std::string& flag, const char* value,
                              std::uint64_t max = kNoLimit) {
  if (const auto v = parse_u64(value, max)) return *v;
  if (max == kNoLimit) {
    std::fprintf(stderr, "error: %s wants an unsigned integer, got '%s'\n",
                 flag.c_str(), value);
  } else {
    std::fprintf(stderr,
                 "error: %s wants an unsigned integer up to %llu, got '%s'\n",
                 flag.c_str(), static_cast<unsigned long long>(max), value);
  }
  std::exit(2);
}

inline double flag_number(const std::string& flag, const char* value) {
  try {
    return kv_number({flag, value});
  } catch (const CheckError&) {
  }
  std::fprintf(stderr, "error: %s wants a finite number, got '%s'\n",
               flag.c_str(), value);
  std::exit(2);
}

/// `spec` parsed by `parse` (one of the key=value spec grammars); a
/// SpecParseError names the flag, the error's kind and the clause.
template <typename Parse>
auto flag_spec(const std::string& flag, const std::string& spec,
               Parse parse) {
  try {
    return parse(spec);
  } catch (const SpecParseError& e) {
    std::fprintf(stderr, "error: bad %s spec (%s): %s\n", flag.c_str(),
                 to_string(e.code()), e.what());
  }
  std::exit(2);
}

}  // namespace lfbs::tools
