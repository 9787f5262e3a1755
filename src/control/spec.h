#pragma once

#include <string>

#include "common/kv_spec.h"
#include "control/control_loop.h"

namespace lfbs::control {

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
///   freeze=0|1         report the plan as frozen (the flag is advisory)
///
/// Throws SpecParseError (common/kv_spec.h) on anything else.
ControlLoopConfig parse_control_spec(const std::string& spec);

/// Validates a `policy=` name ("greedy" | "static"); throws
/// SpecParseError(kBadValue) on anything else.
std::string parse_policy_name(const std::string& name);

}  // namespace lfbs::control
