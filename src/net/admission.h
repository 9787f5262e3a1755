#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"

namespace lfbs::net {

/// Overload protection for the gateway: two limits, each enforced in one
/// place by the FrameServer.
///
///   Connections (AdmissionConfig) — at most max_connections at once.
///     A dial past it gets a typed Bye(kAdmissionDenied) with a
///     retry-after hint, so a storm of dials degrades into a polite,
///     self-spacing retry schedule instead of a kernel-backlog pileup.
///
///   One queue per client (FrameServerConfig::send_queue_messages) — the
///     class a subscriber announces in its hello picks what happens at the
///     bound: a best-effort client loses its oldest queued frame
///     (queue_drops); a priority client is evicted with Bye(kEvicted) and
///     never loses a frame silently.
///
/// Together they cap queue memory: at most max_connections queues of
/// send_queue_messages frames each, plus the replay ring's replay_frames.

/// The connection limit and its deny.
struct AdmissionConfig {
  /// Connections admitted at once; must be ≥ 1. Dials beyond it get a
  /// typed Bye(kAdmissionDenied) instead of parking in the listen backlog.
  std::size_t max_connections = 64;
  /// Retry hint attached to every deny.
  Seconds retry_after = 0.5;
};

/// Parses the gateway's `--quota` grammar: comma-separated key=value
/// clauses, both optional.
///
///   conns=N          max simultaneous connections, N ≥ 1
///   retry-after=S    deny retry hint, seconds (fractional ok, ≥ 0)
///
/// Throws SpecParseError (common/kv_spec.h) on anything else, the empty
/// spec included.
AdmissionConfig parse_quota_spec(const std::string& spec);

}  // namespace lfbs::net
