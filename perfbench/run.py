#!/usr/bin/env python3
"""Benchmark of the fews serving stack.

Run one workload (builds `fews` and the benchmark binary first):

    python3 perfbench/run.py --workload zipf-node --seed 1 --seconds 40 --trace 0

Workloads: zipf-node, zipf-routed (see BENCHMARK.json). `--trace 1` runs the traced variant that reports the
per-layer metrics. The last line of stdout is the JSON result.

Compare two result sets (files holding the stdout of any number of runs):

    python3 perfbench/run.py compare parent.log change.log

prints, per workload and metric, each side's median and quartiles, the
delta, and a verdict against the metric's bound in BENCHMARK.json.

Build outputs go to $CARGO_TARGET_DIR (default: .bench_build at the
repository root); run scratch goes under it too.
"""

import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
# One run must end within 180 s; a run that takes longer is aborted here.
RUN_LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    """Build the shipped `fews` binary and the benchmark binary; return their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "cli")
    ):
        fail(f"{ROOT} holds no fews workspace to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "fews-cli"],
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
    ):
        res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stderr[-4000:])
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "fews"), os.path.join(release, "perfbench")


def git_commit():
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    fews, bench = build(target)
    work = os.path.join(target, "perfbench")
    os.makedirs(work, exist_ok=True)
    cmd = [bench, *argv, "--fews", fews, "--work", work, "--commit", git_commit()]
    # A process group of its own, so a run that overstays is killed with every
    # serving process it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_LIMIT_S} s")
    if code != 0:
        sys.exit(code)


def load_records(path):
    """Per (workload, trace) the metric values of every run in a log."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("record "):
                continue
            rec = json.loads(line[len("record ") :])
            key = (rec["workload"], rec["trace"])
            runs.setdefault(key, []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(a_path, b_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a_runs, b_runs = load_records(a_path), load_records(b_path)
    cell = "{:.5g} [{:.5g}, {:.5g}]"
    header = (
        f"{'workload':<12} {'metric':<14} {'A median [q1, q3]':>36} "
        f"{'B median [q1, q3]':>36} {'delta':>8}  verdict"
    )
    print(header)
    print("-" * len(header))
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, _ = key
        names = sorted(
            set(a_runs[key][0]["metrics"]) & set(b_runs[key][0]["metrics"]),
            key=lambda n: list(specs).index(n) if n in specs else len(specs),
        )
        for name in names:
            a = [r["metrics"][name]["value"] for r in a_runs[key]]
            b = [r["metrics"][name]["value"] for r in b_runs[key]]
            a = [x for x in a if x is not None]
            b = [x for x in b if x is not None]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("inf")
            print(
                f"{workload:<12} {name:<14} {cell.format(qa[1], qa[0], qa[2]):>36} "
                f"{cell.format(qb[1], qb[0], qb[2]):>36} {delta:>+8.2%}  "
                f"{verdict(specs.get(name, {}), a, b, qa, qb)}"
            )
    print(
        "runs per side: "
        + ", ".join(
            f"{w}{' traced' if t else ''} {len(a_runs[(w, t)])}/{len(b_runs[(w, t)])}"
            for (w, t) in sorted(set(a_runs) & set(b_runs))
        )
    )


def verdict(spec, a, b, qa, qb):
    """improved / worse / unresolved / same, by the rule of the benchmark:
    unresolved when either side's quartile spread exceeds the bound."""
    bound = spec.get("bound")
    lower = spec.get("better", "lower") == "lower"
    (a1, am, a3), (b1, bm, b3) = qa, qb
    if bound is None or not am:
        return "info"
    spread = max((a3 - a1) / abs(am), (b3 - b1) / abs(bm) if bm else 0.0)
    worse = (bm - am) / abs(am) if lower else (am - bm) / abs(am)
    if spread > bound:
        every_better = max(b) < min(a) if lower else min(b) > max(a)
        return "improved" if every_better else "unresolved"
    if worse > bound:
        return "worse"
    if -worse * abs(am) > (a3 - a1):
        return "improved"
    return "same"


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare A.log B.log")
        compare(argv[1], argv[2])
        return
    run(argv)


if __name__ == "__main__":
    main()
