#!/usr/bin/env sh
# Performance regression gate for bench_runtime_throughput, compared
# against the committed BENCH_summary.json baseline:
#
#   - effective decode throughput (serial_msps, samples/sec) may not drop
#     more than 15% below the baseline;
#   - window-latency p99 (window_latency_p99_ms) may not rise more than
#     15% above the baseline;
#   - gateway publish rate (publish_kfps, frames/sec through
#     FrameServer::publish with admission on) may not drop more than 15%
#     below the baseline;
#   - publish-path admission overhead (publish_admission_overhead_pct,
#     admission on vs off) is capped absolutely at 2% — overload
#     protection must cost the publishing thread almost nothing when
#     nothing is shed;
#   - publish-path control-plane overhead (publish_control_overhead_pct,
#     the FleetTracker bus tap on vs off) is likewise capped absolutely
#     at 2% — fleet sensing rides every published frame, the scheduling
#     work happens off this path at epoch boundaries.
#
# The bench is run fresh (--json) and its numbers are compared with awk;
# a baseline that lacks a metric skips that check with a notice instead of
# failing, so the gate degrades gracefully on older baselines.
#
# Usage: scripts/check_bench_regression.sh [build-dir] [baseline.json]
#   build-dir defaults to build; baseline defaults to BENCH_summary.json.
# Env: LFBS_BENCH_TOLERANCE_PCT overrides the 15% threshold;
#      LFBS_PUBLISH_OVERHEAD_CAP_PCT overrides the 2% publish cap;
#      LFBS_CONTROL_OVERHEAD_CAP_PCT overrides the 2% control-tap cap.
set -e

build="${1:-build}"
baseline="${2:-BENCH_summary.json}"
tolerance="${LFBS_BENCH_TOLERANCE_PCT:-15}"
publish_cap="${LFBS_PUBLISH_OVERHEAD_CAP_PCT:-2}"
control_cap="${LFBS_CONTROL_OVERHEAD_CAP_PCT:-2}"

bench="$build/bench/bench_runtime_throughput"
if [ ! -x "$bench" ]; then
  echo "check_bench_regression: $bench not built" >&2
  exit 2
fi
if [ ! -f "$baseline" ]; then
  echo "check_bench_regression: no baseline at $baseline" >&2
  exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
fresh="$work/fresh.json"

"$bench" --json "$fresh" > "$work/bench.log" 2>&1 || {
  echo "check_bench_regression: bench failed" >&2
  cat "$work/bench.log" >&2
  exit 1
}

# Single-level JSON written by our own tools: sed extraction is enough.
extract() { # file key
  sed -n "s/.*\"$2\": \([0-9.]*\).*/\1/p" "$1" | head -n 1
}

failures=0

# check NAME fresh baseline direction
#   direction=min: fresh must stay >= baseline * (1 - tol)
#   direction=max: fresh must stay <= baseline * (1 + tol)
check() {
  name="$1"; fresh_v="$2"; base_v="$3"; direction="$4"
  if [ -z "$base_v" ]; then
    echo "check_bench_regression: baseline lacks $name, skipping"
    return 0
  fi
  if [ -z "$fresh_v" ]; then
    echo "check_bench_regression: FAIL — bench emitted no $name" >&2
    failures=$((failures + 1))
    return 0
  fi
  verdict=$(awk -v f="$fresh_v" -v b="$base_v" -v t="$tolerance" \
                -v d="$direction" 'BEGIN {
    if (d == "min") { limit = b * (1 - t / 100.0); ok = (f >= limit) }
    else            { limit = b * (1 + t / 100.0); ok = (f <= limit) }
    printf "%s %.3f", ok ? "OK" : "FAIL", limit
  }')
  status="${verdict%% *}"
  limit="${verdict#* }"
  echo "check_bench_regression: $name fresh=$fresh_v baseline=$base_v" \
       "limit=$limit -> $status"
  if [ "$status" = "FAIL" ]; then
    failures=$((failures + 1))
  fi
}

check serial_msps \
      "$(extract "$fresh" serial_msps)" \
      "$(extract "$baseline" serial_msps)" min
check window_latency_p99_ms \
      "$(extract "$fresh" window_latency_p99_ms)" \
      "$(extract "$baseline" window_latency_p99_ms)" max
check publish_kfps \
      "$(extract "$fresh" publish_kfps)" \
      "$(extract "$baseline" publish_kfps)" min

# Absolute cap, not baseline-relative: admission overhead on the publish
# path is a contract (≤2%), not a trend.
overhead="$(extract "$fresh" publish_admission_overhead_pct)"
if [ -z "$overhead" ]; then
  echo "check_bench_regression: FAIL — bench emitted no" \
       "publish_admission_overhead_pct" >&2
  failures=$((failures + 1))
else
  verdict=$(awk -v o="$overhead" -v cap="$publish_cap" \
                'BEGIN { print (o <= cap) ? "OK" : "FAIL" }')
  echo "check_bench_regression: publish_admission_overhead_pct" \
       "fresh=$overhead cap=$publish_cap -> $verdict"
  if [ "$verdict" = "FAIL" ]; then
    failures=$((failures + 1))
  fi
fi

# Same absolute-cap contract for the control plane's bus tap: the
# FleetTracker fold on every published frame must stay ≤2%.
control_overhead="$(extract "$fresh" publish_control_overhead_pct)"
if [ -z "$control_overhead" ]; then
  echo "check_bench_regression: FAIL — bench emitted no" \
       "publish_control_overhead_pct" >&2
  failures=$((failures + 1))
else
  verdict=$(awk -v o="$control_overhead" -v cap="$control_cap" \
                'BEGIN { print (o <= cap) ? "OK" : "FAIL" }')
  echo "check_bench_regression: publish_control_overhead_pct" \
       "fresh=$control_overhead cap=$control_cap -> $verdict"
  if [ "$verdict" = "FAIL" ]; then
    failures=$((failures + 1))
  fi
fi

if [ "$failures" -gt 0 ]; then
  echo "check_bench_regression: $failures metric(s) regressed >$tolerance%" >&2
  exit 1
fi
echo "check_bench_regression: OK (tolerance ${tolerance}%)"
