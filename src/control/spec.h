#pragma once

#include <string>

#include "common/check.h"
#include "common/units.h"
#include "control/control_loop.h"

namespace lfbs::control {

/// What, structurally, is wrong with a control spec string — the same
/// typed-error shape as net::QuotaError, so the gateway CLI reports all
/// of its spec grammars the same way (exit 2, clause named).
enum class ControlError {
  kEmpty,     ///< spec or one of its clauses is empty
  kBadKey,    ///< unknown key
  kBadValue,  ///< value does not parse or is out of range
};

const char* to_string(ControlError code);

class ControlParseError : public CheckError {
 public:
  ControlParseError(ControlError code, const std::string& what)
      : CheckError(what), code_(code) {}
  ControlError code() const { return code_; }

 private:
  ControlError code_;
};

/// Parsed `--control` configuration: the loop itself plus how the
/// gateway should pace it.
struct ControlSpec {
  ControlLoopConfig loop{};
  /// Background stepping period; 0 = no thread, the gateway steps once
  /// when its run drains (the deterministic default).
  Seconds period = 0.0;
};

/// Parses the gateway's `--control` grammar: comma-separated key=value
/// clauses, all optional, or the literal "on" for all defaults.
///
///   policy=NAME        scheduling policy: greedy (default) | static
///   seed=N             tie-break seed for seeded policies
///   target-goodput=X   stop raising rates at X predicted bits/s (0 = max)
///   min-confidence=X   pin tags below confidence X to the base rate [0,1]
///   max-rate=X         manual cap on every assignment, bits/s (0 = plan)
///   budget=X           aggregate-rate cap, multiples of the base rate
///   penalty=X          collision crowding penalty scale (default 1)
///   freeze=0|1         plan and publish but never apply
///   alpha=X            tracker EWMA weight (0, 1]
///   forget=N           epochs unseen before a tag is forgotten (≥ 1)
///   period-ms=X        step the loop every X ms while the run streams
///
/// Throws ControlParseError (typed) on anything else.
ControlSpec parse_control_spec(const std::string& spec);

/// Validates a `policy=` name ("greedy" | "static"); throws
/// ControlParseError(kBadValue) on anything else.
std::string parse_policy_name(const std::string& name);

}  // namespace lfbs::control
