#!/usr/bin/env sh
# Overload smoke test: the CI shape of the gateway overload-protection
# acceptance checks, kept to ~a minute so it can ride in tier-1:
#
#   1. Overload drill: lfbs_soak --overload dials a 32-connection storm at
#      a gateway admitting 8, with 4 slow best-effort consumers and one
#      priority subscriber. The run must end healthy: every deny typed with
#      a retry-after hint, the frame ledger closed exactly, the priority
#      stream bit-identical to the serial reference, and the peak queue
#      bytes within what the connection limit and the queue bound allow.
#   2. Report round-trip: the drill's telemetry must render through
#      lfbs_report's "== overload ==" section, and the report's own ledger
#      check must agree that the accounting closes.
#   3. Gateway CLI: a malformed --quota spec, a zero connection limit and a
#      removed quota key are typed usage errors (exit 2 with the offending
#      clause named); a well-formed overload config must serve a capture to
#      completion with a priority tail proving completeness.
#
# Usage: scripts/overload_smoke.sh [build-dir]   (default: build)
set -e

build="${1:-build}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# --- 1. overload drill -------------------------------------------------------
"$build/tools/lfbs_soak" --overload --epochs 2 --tags 4 --duration-ms 100 \
    --trace-out "$work/overload_trace.jsonl" \
    2> "$work/overload.err" || {
  echo "overload_smoke: overload drill FAILED" >&2
  cat "$work/overload.err" >&2
  exit 1
}
grep -q "health healthy" "$work/overload.err" || {
  echo "overload_smoke: overload drill did not end healthy" >&2
  cat "$work/overload.err" >&2
  exit 1
}
grep "overload epochs" "$work/overload.err"
# The summary must carry the deny accounting; the drill itself fails an
# epoch whose storm got no typed deny.
grep -q "typed denies" "$work/overload.err" || {
  echo "overload_smoke: drill summary missing the deny accounting" >&2
  exit 1
}
echo "overload_smoke: overload drill healthy"

# --- 2. report round-trip ----------------------------------------------------
report="$("$build/tools/lfbs_report" "$work/overload_trace.jsonl")"
echo "$report" | grep -q "== overload ==" || {
  echo "overload_smoke: lfbs_report produced no overload section" >&2
  exit 1
}
echo "$report" | grep "frame ledger closes" || {
  echo "overload_smoke: report says the frame ledger does not close" >&2
  echo "$report" | grep "frame ledger" >&2 || true
  exit 1
}
echo "overload_smoke: report overload section round-trips"

# --- 3. gateway CLI: typed quota errors, then a real admitted serve ----------
# Each bad spec, then the text its error must name.
for bad in "bogus=4 bogus" "conns=0 conns=0" "be-fps=1 be-fps"; do
  spec="${bad% *}"
  named="${bad#* }"
  bad_rc=0
  "$build/tools/lfbs_gateway" --scenario --quota "$spec" \
      2> "$work/badquota.err" || bad_rc=$?
  if [ "$bad_rc" -ne 2 ]; then
    echo "overload_smoke: --quota $spec exited $bad_rc, expected 2" >&2
    cat "$work/badquota.err" >&2
    exit 1
  fi
  grep -q "error: bad --quota spec" "$work/badquota.err" &&
    grep -q -- "$named" "$work/badquota.err" || {
    echo "overload_smoke: --quota $spec error is untyped or does not name" \
         "the clause" >&2
    cat "$work/badquota.err" >&2
    exit 1
  }
done
echo "overload_smoke: malformed overload flags are typed usage errors"

capture="$work/capture.lfbsiq"
portfile="$work/gateway.port"
"$build/examples/capture_replay" "$capture" > /dev/null

"$build/tools/lfbs_gateway" "$capture" \
    --port-file "$portfile" --wait-subscriber 10 --workers 2 \
    --quota "conns=8,retry-after=0.2" --client-queue 128 &
server_pid=$!

tries=0
while [ ! -s "$portfile" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "overload_smoke: server never wrote $portfile" >&2
    kill "$server_pid" 2> /dev/null || true
    exit 1
  fi
  sleep 0.1
done
port="$(cat "$portfile")"

# A priority tail through the admission path: exit 0 asserts a clean
# Bye(end-of-stream) and received == frames_published — admission on a
# fault-free run must not cost a single frame.
"$build/tools/lfbs_gateway" --connect "127.0.0.1:$port" --priority --quiet

wait "$server_pid"
server_status=$?
if [ "$server_status" -ne 0 ]; then
  echo "overload_smoke: admitted serve exited $server_status" >&2
  exit 1
fi
echo "overload_smoke: admitted serve delivered the full stream"
echo "overload_smoke: OK"
