#pragma once

#include <string>

#include "common/kv_spec.h"
#include "common/units.h"
#include "control/control_loop.h"

namespace lfbs::control {

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
/// Throws SpecParseError (common/kv_spec.h) on anything else.
ControlSpec parse_control_spec(const std::string& spec);

/// Validates a `policy=` name ("greedy" | "static"); throws
/// SpecParseError(kBadValue) on anything else.
std::string parse_policy_name(const std::string& name);

}  // namespace lfbs::control
