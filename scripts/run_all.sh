#!/usr/bin/env sh
# Build, test, and regenerate every paper table/figure, plus the publish-
# path record (BENCH_runtime.json) and a consolidated BENCH_summary.json:
# per-bench wall seconds and, where a bench wrote its own JSON, its
# headline metrics. A record only: no gate reads it (scripts/perf_gate.py
# compares a change with its parent instead).
set -e
# Reuses an existing build tree with whatever generator and build type it
# was configured with; a fresh tree gets CMake's defaults.
cmake -S . -B build
cmake --build build
ctest --test-dir build --output-on-failure

summary="BENCH_summary.json"
printf '{\n  "benches": {' > "$summary"
first=1
for b in build/bench/bench_*; do
  name="$(basename "$b")"
  start=$(date +%s)
  case "$name" in
    bench_runtime_throughput) "$b" --json BENCH_runtime.json ;;
    bench_robustness_sweep) "$b" --json BENCH_robustness.json ;;
    *) "$b" ;;
  esac
  wall=$(( $(date +%s) - start ))
  # Headline metric per bench, lifted from the JSON the bench itself wrote
  # (crude extraction, but the files are ours and single-level).
  metric=""
  case "$name" in
    bench_runtime_throughput)
      for k in publish_kfps publish_control_overhead_pct; do
        v=$(sed -n "s/.*\"$k\": \(-\{0,1\}[0-9.]*\).*/\1/p" BENCH_runtime.json | head -n 1)
        [ -n "$v" ] && metric="$metric, \"$k\": $v"
      done
      ;;
    bench_robustness_sweep)
      v=$(grep -o '"rescued_captures": [0-9]*' BENCH_robustness.json | \
          awk -F': ' '{s += $2} END {print s}')
      [ -n "$v" ] && metric=", \"rescued_captures\": $v"
      ;;
  esac
  [ $first -eq 0 ] && printf ',' >> "$summary"
  first=0
  printf '\n    "%s": {"wall_seconds": %s%s}' "$name" "$wall" "$metric" >> "$summary"
done
printf '\n  }\n}\n' >> "$summary"
echo "wrote $summary"
