#!/usr/bin/env python3
"""Interleaved A/B of the host-speed benchmark between two checkouts.

usage: python3 scripts/ab_bench.py --parent DIR --change DIR
           [--workloads a,b] [--pairs N] [--seed N] [--target-dir DIR]

Each checkout is a full source tree, e.g. the parent made with
`git worktree add ../parent HEAD~1` or `git archive HEAD~1 | tar -x -C ../parent`.
For every workload (default: all in the change's BENCHMARK.json) the script
runs each checkout's `perfbench/run.py --trace 0` N times, each run as long
as BENCHMARK.json's `run_seconds`. The side that runs
first alternates from pair to pair, and each side builds under its own
CARGO_TARGET_DIR (<target-dir>/parent, <target-dir>/change), so neither
reuses the other's objects. One discarded 1 s warm-up run per side and
workload absorbs the build.

For each end-to-end metric of BENCHMARK.json it prints the parent and change
medians, the change/parent ratio, the pairs the change won (strictly better
in the metric's `better` direction), the parent's interquartile range, and
a verdict: `unresolved` when the parent's IQR is wider than the metric's
bound (relative to its median) and not every change run beats every parent
run, since the runs then spread too widely to tell; otherwise `WORSE` when
the change's median is worse than the parent's by more than the bound, and
`ok` when it is not. Exits 1 when a run fails or reports incorrect results,
or when a verdict is not `ok`; 0 otherwise. BENCHMARK.json and perfbench/
are only read.
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
WARMUP_SECONDS = 1


def run_once(checkout, target, workload, seed, seconds, names):
    """One perfbench run; returns the value of each metric in `names`."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} exited {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        correct = result["correct"]
        metrics = {k: result["metrics"][k]["value"] for k in names}
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise RuntimeError(
            f"{checkout}: {workload} printed a malformed result record ({e!r})") from e
    if not correct:
        raise RuntimeError(f"{checkout}: {workload} reported incorrect results")
    return metrics


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def worse_by(better, parent, change):
    """Relative amount by which `change` is worse than `parent` (<= 0 when
    it is not worse)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def judge(better, bound, parent, change):
    """Verdict on one metric of one workload from both sides' runs."""
    pm = statistics.median(parent)
    spread = iqr(parent) / abs(pm) if pm else (
        0.0 if iqr(parent) == 0 else float("inf"))
    beats_every_run = all(worse_by(better, a, b) < 0
                          for a in parent for b in change)
    if spread > bound and not beats_every_run:
        return f"unresolved: parent IQR {spread:.1%} > bound {bound}"
    if worse_by(better, pm, statistics.median(change)) > bound:
        return f"WORSE than bound {bound}"
    return "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=pathlib.Path)
    ap.add_argument("--change", required=True, type=pathlib.Path)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--target-dir", type=pathlib.Path,
                    default=pathlib.Path(".ab_bench"))
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    names = [m["name"] for m in bench["end_to_end"]]
    targets = {side: (args.target_dir / side).resolve() for side in SIDES}

    failed = False
    for workload in workloads:
        samples = {side: [] for side in SIDES}
        try:
            for side in SIDES:  # warm-up: builds, result discarded
                run_once(checkouts[side], targets[side], workload, args.seed,
                         WARMUP_SECONDS, names)
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    samples[side].append(run_once(
                        checkouts[side], targets[side], workload, args.seed,
                        seconds, names))
                print(f"{workload}: pair {i + 1}/{args.pairs} done",
                      file=sys.stderr)
        except RuntimeError as e:
            print(f"ab_bench: {e}", file=sys.stderr)
            failed = True
            continue

        print(f"\n{workload} ({args.pairs} pairs, {seconds} s runs, "
              f"parent first on odd pairs)")
        print("| metric | parent median | change median | change/parent "
              "| wins | parent IQR | verdict |")
        print("|---|---:|---:|---:|---:|---:|---|")
        for m in bench["end_to_end"]:
            name, better = m["name"], m["better"]
            p = [s[name] for s in samples["parent"]]
            c = [s[name] for s in samples["change"]]
            pm, cm = statistics.median(p), statistics.median(c)
            wins = sum(1 for a, b in zip(p, c)
                       if worse_by(better, a, b) < 0)
            ratio = cm / pm if pm else float("nan")
            verdict = judge(better, m["bound"], p, c)
            failed = failed or verdict != "ok"
            print(f"| {name} | {pm:.6g} | {cm:.6g} | {ratio:.4f} "
                  f"| {wins}/{args.pairs} | {iqr(p):.4g} | {verdict} |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
