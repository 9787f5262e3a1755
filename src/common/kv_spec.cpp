#include "common/kv_spec.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <sstream>

namespace lfbs {

const char* to_string(SpecError code) {
  switch (code) {
    case SpecError::kEmpty:
      return "empty clause";
    case SpecError::kBadKey:
      return "unknown key";
    case SpecError::kBadValue:
      return "bad value";
  }
  return "?";
}

std::vector<KvField> parse_kv_spec(const std::string& spec) {
  std::vector<KvField> fields;
  if (spec.empty()) return fields;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string field = spec.substr(begin, end - begin);
    begin = end + 1;
    if (field.empty()) {
      throw SpecParseError(SpecError::kEmpty,
                           "empty clause in spec '" + spec + "'");
    }
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw SpecParseError(SpecError::kBadValue,
                           "spec clause '" + field + "' needs key=value");
    }
    fields.push_back({field.substr(0, eq), field.substr(eq + 1)});
  }
  return fields;
}

namespace {

/// std::from_chars over the whole value: true only when every character
/// was consumed and the result is in range.
template <typename T>
bool parse_whole(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void bad_value(const KvField& field, const std::string& wants) {
  throw SpecParseError(SpecError::kBadValue, "spec clause '" + field.key +
                                                 "=" + field.value +
                                                 "' wants " + wants);
}

void bad_key(const KvField& field, const char* grammar) {
  throw SpecParseError(SpecError::kBadKey, std::string("unknown ") + grammar +
                                               " key '" + field.key + "'");
}

double kv_number(const KvField& field, double lo, double hi) {
  double value = 0.0;
  if (parse_whole(field.value, value) && std::isfinite(value) &&
      value >= lo && value <= hi) {
    return value;
  }
  std::ostringstream wants;
  wants << "a finite number in [" << lo << ", " << hi << "]";
  bad_value(field, wants.str());
}

double kv_probability(const KvField& field) {
  return kv_number(field, 0.0, 1.0);
}

Seconds kv_millis(const KvField& field) {
  return kv_number(field, 0.0) * 1e-3;
}

std::uint64_t kv_u64(const KvField& field) {
  std::uint64_t value = 0;
  if (!parse_whole(field.value, value)) {
    bad_value(field, "an unsigned integer");
  }
  return value;
}

}  // namespace lfbs
