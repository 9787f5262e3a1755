#pragma once

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <string_view>

namespace lfbs::obs {

struct MetricsSnapshot;

/// Microseconds since a process-wide steady-clock epoch (first use). All
/// telemetry — spans, events, snapshots — stamps time off this one clock,
/// so a report can correlate a frame event with the window span that
/// produced it.
std::int64_t now_us();

/// Escapes a string for embedding in a JSON string literal.
std::string json_escape(std::string_view s);

/// Thread-safe line-at-a-time writer for JSONL telemetry files. One mutex
/// per writer: lines from concurrent threads interleave whole, never torn.
class JsonlWriter {
 public:
  /// Opens `path` for writing ("-" writes to stdout).
  explicit JsonlWriter(const std::string& path);
  /// Borrows an open stream (tests).
  explicit JsonlWriter(std::ostream& os);

  bool ok() const { return out_ != nullptr && out_->good(); }
  void write_line(std::string_view line);
  std::size_t lines() const;
  void flush();

 private:
  std::ofstream owned_;
  std::ostream* out_ = nullptr;
  mutable std::mutex mutex_;
  std::size_t lines_ = 0;
};

/// One field of a structured event. Built via the static helpers so call
/// sites read as `Field::num("confidence", 0.93)`.
struct Field {
  enum class Kind { kNumber, kInteger, kString, kBool };

  static Field num(std::string_view key, double value);
  static Field integer(std::string_view key, std::int64_t value);
  static Field str(std::string_view key, std::string_view value);
  static Field flag(std::string_view key, bool value);

  std::string key;
  Kind kind = Kind::kNumber;
  double number = 0.0;
  std::int64_t integer_value = 0;
  std::string string_value;
  bool flag_value = false;
};

/// Typed structured event log: every line is one JSON object with at least
/// {"type": ..., "ts_us": ...}. This is the machine-readable trail: frame
/// deliveries (with confidence and fallback stage), health transitions,
/// gateway, federation, chaos and control-plane events, and periodic
/// metric snapshots all land here, interleaved with span records when the
/// tracer shares the same writer.
class EventLog {
 public:
  explicit EventLog(JsonlWriter& out) : out_(out) {}

  void emit(std::string_view type, std::initializer_list<Field> fields);
  /// Span overload for events whose field count is only known at runtime
  /// (e.g. one control-plan event per scheduled tag assignment).
  void emit(std::string_view type, std::span<const Field> fields);
  /// Writes a {"type":"snapshot", ...} line carrying every counter and
  /// gauge of the snapshot (histograms are summarized as count/p50/p99).
  void snapshot(const MetricsSnapshot& snap);

  JsonlWriter& writer() { return out_; }

 private:
  JsonlWriter& out_;
};

/// Process-global event sink. Null (the default) disables structured
/// events everywhere at the cost of one pointer load and branch —
/// the same null-sink contract the tracer follows.
EventLog* event_log();
void set_event_log(EventLog* log);

}  // namespace lfbs::obs
