#include "common/kv_spec.h"

#include <charconv>
#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace lfbs {

std::vector<KvField> parse_kv_spec(const std::string& spec) {
  std::vector<KvField> fields;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string field = spec.substr(begin, end - begin);
    begin = end + 1;
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    LFBS_CHECK_MSG(eq != std::string::npos,
                   "spec field needs key=value: " + field);
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

double kv_number(const KvField& field) {
  double value = 0.0;
  LFBS_CHECK_MSG(parse_whole(field.value, value) && std::isfinite(value),
                 "spec key '" + field.key +
                     "' needs a finite number, got: " + field.value);
  return value;
}

std::uint64_t kv_u64(const KvField& field) {
  std::uint64_t value = 0;
  LFBS_CHECK_MSG(parse_whole(field.value, value),
                 "spec key '" + field.key +
                     "' needs an unsigned integer, got: " + field.value);
  return value;
}

}  // namespace lfbs
