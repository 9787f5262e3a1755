#!/usr/bin/env sh
# Control-plane smoke test: the CI shape of the fleet-control acceptance
# checks, kept to seconds so it can ride in tier-1:
#
#   1. Serve with --control: a gateway decoding a multi-tag scenario under
#      the greedy scheduler must log the control plane coming up, step the
#      loop once when the run drains, and broadcast the epoch plan — a
#      tailing subscriber must print exactly one plan (epoch 1) and its
#      per-tag assignments.
#   2. Remote operability: --control-get against a live gateway must
#      answer with the loop's state (exit 0, "control:" lines).
#   3. Typed CLI: malformed --control specs are usage errors (exit 2)
#      naming the offending clause.
#   4. Report round-trip: the serve's telemetry must render through
#      lfbs_report's "== control ==" section with the plan history and
#      per-tag rate trajectories.
#
# Usage: scripts/control_smoke.sh [build-dir]   (default: build)
set -e

build="${1:-build}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# --- 1+2. serve with --control, probe it, tail it ---------------------------
portfile="$work/gateway.port"
"$build/tools/lfbs_gateway" --scenario --tags 8 --epochs 2 \
    --control "policy=greedy,penalty=2" \
    --port-file "$portfile" --wait-subscriber 10 --workers 2 \
    --trace-out "$work/control_trace.jsonl" 2> "$work/serve.err" &
server_pid=$!

tries=0
while [ ! -s "$portfile" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "control_smoke: server never wrote $portfile" >&2
    cat "$work/serve.err" >&2 || true
    kill "$server_pid" 2> /dev/null || true
    exit 1
  fi
  sleep 0.1
done
port="$(cat "$portfile")"

# Probe the control surface while the gateway waits for its subscriber.
"$build/tools/lfbs_gateway" --control-get "127.0.0.1:$port" \
    > "$work/probe.out" || {
  echo "control_smoke: --control-get against a live gateway failed" >&2
  exit 1
}
grep -q "^control:" "$work/probe.out" || {
  echo "control_smoke: --control-get printed no control state" >&2
  cat "$work/probe.out" >&2
  exit 1
}
echo "control_smoke: --control-get answers"

# Tail the stream; the final broadcast plan must reach the subscriber.
"$build/tools/lfbs_gateway" --connect "127.0.0.1:$port" \
    > "$work/tail.out"

wait "$server_pid"
server_status=$?
if [ "$server_status" -ne 0 ]; then
  echo "control_smoke: serve exited $server_status" >&2
  cat "$work/serve.err" >&2
  exit 1
fi
grep -q "control plane on" "$work/serve.err" || {
  echo "control_smoke: serve log missing the control-plane banner" >&2
  cat "$work/serve.err" >&2
  exit 1
}
grep -q "gateway: control epoch=" "$work/serve.err" || {
  echo "control_smoke: serve log missing the final control step" >&2
  cat "$work/serve.err" >&2
  exit 1
}
# The loop steps once per run, so the tail sees exactly one plan: epoch 1.
plan_lines="$(grep -c "^control: epoch=" "$work/tail.out" || true)"
if [ "$plan_lines" -ne 1 ] || ! grep -q "^control: epoch=1 " "$work/tail.out"
then
  echo "control_smoke: tail printed $plan_lines plan lines, expected" \
       "exactly one 'control: epoch=1'" >&2
  cat "$work/tail.out" >&2
  exit 1
fi
grep -q "^control: tag=" "$work/tail.out" || {
  echo "control_smoke: broadcast plan carried no per-tag assignments" >&2
  cat "$work/tail.out" >&2
  exit 1
}
echo "control_smoke: serve broadcast its epoch plan to the tail"

# --- 3. typed CLI errors -----------------------------------------------------
for bad in "--control warp=9" "--control policy=chaotic" \
           "--control budget=12x"; do
  bad_rc=0
  # shellcheck disable=SC2086  # word splitting is the point here
  "$build/tools/lfbs_gateway" --scenario $bad 2> "$work/bad.err" || bad_rc=$?
  if [ "$bad_rc" -ne 2 ]; then
    echo "control_smoke: '$bad' exited $bad_rc, expected 2" >&2
    cat "$work/bad.err" >&2
    exit 1
  fi
  grep -q "error: bad" "$work/bad.err" || {
    echo "control_smoke: '$bad' produced no typed error" >&2
    cat "$work/bad.err" >&2
    exit 1
  }
done
echo "control_smoke: malformed control flags are typed usage errors"

# --- 4. report round-trip ----------------------------------------------------
report="$("$build/tools/lfbs_report" "$work/control_trace.jsonl")"
echo "$report" | grep -q "== control ==" || {
  echo "control_smoke: lfbs_report produced no control section" >&2
  exit 1
}
echo "$report" | grep -q "rate trajectory" || {
  echo "control_smoke: control section missing the rate trajectories" >&2
  echo "$report" >&2
  exit 1
}
echo "control_smoke: report control section round-trips"
echo "control_smoke: OK"
