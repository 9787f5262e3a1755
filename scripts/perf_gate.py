#!/usr/bin/env python3
"""Performance gate: a change against its parent, on the same machine.

    python3 scripts/perf_gate.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of the repository. The gate builds each tree's
perfbench through that tree's own perfbench/run.py, and each tree's
bench_runtime_throughput in <tree>/build-perfgate (Release). It then runs
both trees in interleaved pairs: pair i runs seed i on both sides, and the
side that runs first alternates, so a host that drifts in speed over minutes
lands on both sides alike. Every comparison is a ratio of the change's
median to the parent's, never an absolute number, because host-scaled
figures do not carry from one machine to another.

The gate fails when
  - any perfbench run reads correct=false or failed > 0;
  - epoch16 throughput_msps falls below 0.95 x the parent's;
  - stream3 throughput_msps falls below 0.85 x the parent's;
  - stream3 latency_tail_ms rises above 1.15 x the parent's;
  - publish_kfps falls below 0.85 x the parent's;
  - the median over the change's runs of the publish-path overhead of the
    control-plane tap is above 2%;
  - stream3's or shard2's frame_recovery or frame_precision, averaged over
    the gate's seeds, is below the parent's.
stream3 gets the wider throughput bound because its own A/A pairs spread
about 10%; epoch16, the decoder alone with no runtime queues, is the
check that catches a slowdown in the decoder itself. shard2 runs stream3's
captures through forked ShardWorker processes; it has no speed bound, and
runs so that a
wrong decode or a change in decode quality on that path fails the gate.
stream3's and shard2's recovery and precision score the serial reference
decode of their 12 captures, so each is deterministic per seed: a change
that loses or fabricates frames moves them, with no noise to hide in,
while the speed checks above pass a wrong-but-fast decode.

For every workload and every end-to-end metric in BENCHMARK.json, the
report prints both sides' medians with quartiles, their ratio and the
change's wins out of the pairs, and for the quality checks both sides'
value at every seed. Every host-scaled figure is divided by the speed of
perfbench's calibration kernel, HostSpeed::sample, whose own speed can
move with its address in the binary; so for each side the report also
prints that address (nm -C), and over its epoch16 runs the median kernel
time and the median raw, unscaled throughput. That is a report, not a
check. The gate exits 0 when every check passes, 1 when one fails and 2
when a tree does not build or a run prints no result.
"""

import hashlib
import importlib.util
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# (workload, pairs, seconds per run): an even number of pairs, so each side
# runs first equally often. epoch16 gets more pairs because its bound is
# the tight one; stream3's latency tail needs the longer runs. shard2 is
# checked only for correctness and quality, which do not need long runs.
PERFBENCH_RUNS = (("epoch16", 8, 4.0), ("stream3", 4, 10.0),
                  ("shard2", 2, 5.0))
# (workload, metric, bound): the change's median over the parent's must be
# at least the bound for a higher-is-better metric, at most for a lower one.
PERFBENCH_CHECKS = (
    ("epoch16", "throughput_msps", 0.95),
    ("stream3", "throughput_msps", 0.85),
    ("stream3", "latency_tail_ms", 1.15),
)
# (workload, metric): the change's mean over the gate's seeds must be at
# least the parent's. Deterministic per seed, so compared exactly.
QUALITY_CHECKS = (
    ("stream3", "frame_recovery"),
    ("stream3", "frame_precision"),
    ("shard2", "frame_recovery"),
    ("shard2", "frame_precision"),
)
# The workload whose runs the host-speed report summarizes, the kernel's
# symbol, and the two perfbench stdout lines it reads.
HOST_SPEED_WORKLOAD = "epoch16"
KERNEL_SYMBOL = "perfbench::HostSpeed::sample()"
KERNEL_MS = re.compile(r"^host speed: calibration kernel median ([0-9.]+) ms",
                       re.M)
RAW_MSPS = re.compile(r"^as measured: .*; ([0-9.]+) Msps over", re.M)
PUBLISH_RUNS = 6
PUBLISH_MIN_RATIO = 0.85
OVERHEAD_CAP_PCT = 2.0
OVERHEAD_KEYS = ("publish_control_overhead_pct",)
BENCH = "bench_runtime_throughput"
BENCH_TIMEOUT_S = 600


class GateError(Exception):
    """A tree that does not build, or a run that prints no result."""


def build(tree):
    """Builds the tree's perfbench (via its run.py) and its publish bench;
    returns the two binaries' paths, perfbench's first."""
    run_py = os.path.join(tree, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", run_py)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not module.build():
        raise GateError(f"{tree}: perfbench does not build")

    build_dir = os.path.join(tree, "build-perfgate")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", tree, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise GateError(f"{tree}: cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", BENCH,
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise GateError(f"{tree}: {BENCH} does not build")
    return module.BINARY, os.path.join(build_dir, "bench", BENCH)


def run_perfbench(tree, workload, seed, seconds):
    """One run of the tree's own perfbench; returns its result object, with
    the run's calibration kernel median and raw throughput from its stdout
    under "host" (None where a line is missing)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise GateError(f"{tree}: perfbench {workload} seed {seed} printed "
                        f"no result (exit {proc.returncode})") from None
    kernel = KERNEL_MS.search(proc.stdout)
    raw = RAW_MSPS.search(proc.stdout)
    result["host"] = {"kernel_ms": float(kernel.group(1)) if kernel else None,
                      "raw_msps": float(raw.group(1)) if raw else None}
    return result


def kernel_address(binary):
    """The calibration kernel's address in a perfbench binary, as nm -C
    prints it, or a note why there is none."""
    try:
        proc = subprocess.run(["nm", "-C", binary], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "n/a (no nm)"
    for line in proc.stdout.splitlines():
        if line.endswith(" " + KERNEL_SYMBOL):
            return "0x" + line.split()[0].lstrip("0")
    return "n/a (symbol not found)"


def report_host_speed(parent_binary, change_binary, parent, change):
    """Prints, for each side, the kernel's address in its perfbench binary
    and the medians of its kernel time and raw throughput over the given
    runs."""
    print(f"\n== host-speed kernel over the {HOST_SPEED_WORKLOAD} runs "
          f"(a report, not a check) ==")
    for side, binary, results in (("parent", parent_binary, parent),
                                  ("change", change_binary, change)):
        medians = []
        for key in ("kernel_ms", "raw_msps"):
            values = [r["host"][key] for r in results]
            medians.append("n/a" if None in values
                           else f"{statistics.median(values):.4f}")
        print(f"{side}: {KERNEL_SYMBOL} at {kernel_address(binary)}; kernel "
              f"median {medians[0]} ms; raw throughput median {medians[1]} "
              f"Msps")


def run_publish(binary):
    """One run of the publish bench; returns its JSON object."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "publish.json")
        try:
            proc = subprocess.run([binary, "--json", out],
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL,
                                  timeout=BENCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise GateError(f"{binary} timed out") from None
        try:
            with open(out) as f:
                return json.load(f)
        except (OSError, ValueError):
            raise GateError(f"{binary} wrote no result "
                            f"(exit {proc.returncode})") from None


def value(result, name):
    """A perfbench result's value of one metric, or None when absent."""
    entry = result["metrics"].get(name)
    return None if entry is None else entry["value"]


def interleave(pairs, run_parent, run_change):
    """Runs `pairs` pairs, alternating which side goes first; pair i gets
    seed i on both sides. Returns the two sides' results in pair order."""
    parent, change = [], []
    for seed in range(1, pairs + 1):
        if seed % 2:
            parent.append(run_parent(seed))
            change.append(run_change(seed))
        else:
            change.append(run_change(seed))
            parent.append(run_parent(seed))
    return parent, change


def summary(values):
    """'median [q1, q3]' of a list of numbers."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def ratio(parent, change):
    base = statistics.median(parent)
    return statistics.median(change) / base if base else float("nan")


def wins(parent, change, higher_is_better):
    """Pairs the change reads better in; ties count for neither side."""
    if higher_is_better:
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def tree_digest(tree, sub):
    """SHA-256 over the names and contents of every file under tree/sub."""
    h = hashlib.sha256()
    root = os.path.join(tree, sub)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def check(failures, label, parent, change, bound, higher):
    """Gates the ratio of the change's median to the parent's: at least
    `bound` for a higher-is-better metric, at most `bound` otherwise."""
    if None in parent or None in change:
        failures.append(f"{label} missing from a run")
        return
    r = ratio(parent, change)
    ok = r >= bound if higher else r <= bound
    print(f"check {label}: ratio {r:.3f} {'>=' if higher else '<='} "
          f"{bound} -> {'OK' if ok else 'FAIL'}")
    if not ok:
        failures.append(f"{label} ratio {r:.3f} past {bound}")


def check_quality(failures, label, parent, change):
    """Gates a per-seed deterministic quality metric: the change's mean over
    the seeds must be at least the parent's. Prints every seed's pair."""
    if None in parent or None in change:
        failures.append(f"{label} missing from a run")
        return
    print(f"{label} per seed, parent/change: " + ", ".join(
        f"{seed}: {p:.6f}/{c:.6f}"
        for seed, (p, c) in enumerate(zip(parent, change), start=1)))
    p_mean, c_mean = statistics.mean(parent), statistics.mean(change)
    ok = c_mean >= p_mean
    print(f"check {label}: change's mean {c_mean:.6f} >= parent's "
          f"{p_mean:.6f} -> {'OK' if ok else 'FAIL'}")
    if not ok:
        failures.append(f"{label} mean {c_mean:.6f} below the parent's "
                        f"{p_mean:.6f}")


def compare_perfbench(parent_tree, change_tree, workload, pairs, seconds,
                      end_to_end, failures):
    """Runs one workload in pairs, prints its table and records every run
    that is not correct; returns both sides' results."""
    parent, change = interleave(
        pairs,
        lambda seed: run_perfbench(parent_tree, workload, seed, seconds),
        lambda seed: run_perfbench(change_tree, workload, seed, seconds))
    print(f"\n== {workload}: {pairs} pairs of {seconds:g} s, seeds "
          f"1-{pairs}, medians [quartiles] ==")
    print(f"{'metric':18} {'parent':28} {'change':28} {'ratio':>7} "
          f"{'wins':>6}")
    for metric in end_to_end:
        name = metric["name"]
        p = [value(r, name) for r in parent]
        c = [value(r, name) for r in change]
        if None in p or None in c:
            print(f"{name:18} n/a")
            continue
        higher = metric["better"] == "higher"
        print(f"{name:18} {summary(p):28} {summary(c):28} "
              f"{ratio(p, c):7.3f} {wins(p, c, higher):3}/{pairs}")
    for side, results in (("parent", parent), ("change", change)):
        for seed, r in enumerate(results, start=1):
            if not r["correct"] or r["failed"] > 0:
                failures.append(f"{workload} {side} seed {seed}: "
                                f"correct={r['correct']} "
                                f"failed={r['failed']}")
    return parent, change


def gate(parent_tree, change_tree):
    """Runs every workload and check; returns the list of failures."""
    failures = []
    with open(os.path.join(change_tree, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    higher = {m["name"]: m["better"] == "higher" for m in end_to_end}
    if tree_digest(parent_tree, "perfbench") != tree_digest(change_tree,
                                                            "perfbench"):
        print("note: perfbench/ differs between the trees; each side is "
              "measured with its own harness")

    parent_perfbench, parent_bench = build(parent_tree)
    change_perfbench, change_bench = build(change_tree)

    for workload, pairs, seconds in PERFBENCH_RUNS:
        parent, change = compare_perfbench(parent_tree, change_tree,
                                           workload, pairs, seconds,
                                           end_to_end, failures)
        for check_workload, name, bound in PERFBENCH_CHECKS:
            if check_workload == workload:
                check(failures, f"{workload} {name}",
                      [value(r, name) for r in parent],
                      [value(r, name) for r in change], bound, higher[name])
        for check_workload, name in QUALITY_CHECKS:
            if check_workload == workload:
                check_quality(failures, f"{workload} {name}",
                              [value(r, name) for r in parent],
                              [value(r, name) for r in change])
        if workload == HOST_SPEED_WORKLOAD:
            report_host_speed(parent_perfbench, change_perfbench, parent,
                              change)

    parent, change = interleave(PUBLISH_RUNS,
                                lambda _: run_publish(parent_bench),
                                lambda _: run_publish(change_bench))
    print(f"\n== publish path: {PUBLISH_RUNS} runs per side of {BENCH} ==")
    print(f"{'metric':32} {'parent':28} {'change':28} {'ratio':>7}")
    for name in ("publish_kfps",) + OVERHEAD_KEYS:
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        print(f"{name:32} {summary(p):28} {summary(c):28} "
              f"{ratio(p, c):7.3f}")
    check(failures, "publish_kfps", [r["publish_kfps"] for r in parent],
          [r["publish_kfps"] for r in change], PUBLISH_MIN_RATIO, True)
    for name in OVERHEAD_KEYS:
        overhead = statistics.median(r[name] for r in change)
        ok = overhead <= OVERHEAD_CAP_PCT
        print(f"check {name}: change's median {overhead:.2f}% <= "
              f"{OVERHEAD_CAP_PCT}% -> {'OK' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{name} {overhead:.2f}% above "
                            f"{OVERHEAD_CAP_PCT}%")
    return failures


def main():
    if len(sys.argv) != 3:
        print("usage: perf_gate.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    parent_tree, change_tree = (os.path.abspath(t) for t in sys.argv[1:])
    sys.stdout.reconfigure(line_buffering=True)
    # Importing a tree's run.py must leave no bytecode cache in perfbench/,
    # which tree_digest compares.
    sys.dont_write_bytecode = True
    start = time.monotonic()
    try:
        failures = gate(parent_tree, change_tree)
    except GateError as e:
        print(f"perf_gate: {e}", file=sys.stderr)
        return 2
    print(f"\nperf_gate: wall time {time.monotonic() - start:.0f} s")
    if failures:
        for failure in failures:
            print(f"perf_gate: FAIL {failure}")
        return 1
    print("perf_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
