#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent revision against the working tree.

    python tools/bench_pairs.py PARENT_REV --workload train-highway50 --pairs 10 \\
        --seed-base 2901 --out BENCH_29.json

Pair i runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once on each side, with S = seed base + i and T the `run_seconds` of
BENCHMARK.json (30).  The parent runs first in even pairs and second in odd
ones.  The parent's committed files are exported with `git archive` into a
temporary directory, so both sides build what they run from their own
sources; the directory is removed at the end, and each run is waited for
(or stopped) before the next starts.  --workload may be repeated; without
it every workload in BENCHMARK.json runs.

The output has BENCH_25.json's schema: for each workload and end-to-end
metric of BENCHMARK.json, both sides' runs in pair order, their medians and
quartiles (linear interpolation) and the number of pairs the working tree
won (a tie counts for neither side), and whether every run passed all of
its checks.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from shutil import rmtree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, into: str) -> str:
    """Extract rev's committed files into the directory `into`; return rev's short hash."""
    git = ["git", "-C", ROOT]
    short = subprocess.run(git + ["rev-parse", "--short", rev], check=True,
                           capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(git + ["archive", "--format=tar", short], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return short


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object run.py prints last, plus the environment line it prints."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.terminate()  # run.py stops its pass's process group on SIGTERM
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           + err[-2000:])
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(line[len("# env "):]) for line in lines
                          if line.startswith("# env ")), None)
    return result


def summary(parent: list, change: list, better: str) -> dict:
    def quartiles(runs):
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        return [q1, q3]
    sign = 1 if better == "lower" else -1
    return {
        "parent_median": statistics.median(parent), "parent_quartiles": quartiles(parent),
        "change_median": statistics.median(change), "change_quartiles": quartiles(change),
        "pairs": len(parent),
        f"change_{better}_in": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "parent_runs": parent, "change_runs": change,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", metavar="PARENT_REV")
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed-base", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 (quartiles need two runs)")
    seconds = float(bench["run_seconds"])
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    # on SIGTERM unwind through run_once and the clean-up below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        parent_root = os.path.join(tmp, "parent")
        short = export(args.parent, parent_root)
        runs = {w: {"parent": [], "change": []} for w in args.workload or names}
        for workload, sides in runs.items():
            for i in range(args.pairs):
                order = [("parent", parent_root), ("change", ROOT)]
                for side, root in order[::-1] if i % 2 else order:
                    result = run_once(root, workload, args.seed_base + i, seconds)
                    sides[side].append(result)
                    print(f"{workload} pair {i} {side}: " + ", ".join(
                        f"{m} {result['metrics'][m]['value']:.4g}" for m in metrics),
                        file=sys.stderr, flush=True)
    finally:
        rmtree(tmp, ignore_errors=True)

    report = {
        "parent": short,
        "change": "working tree",
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "seeds": f"{args.seed_base}-{args.seed_base + args.pairs - 1} for every workload, "
                 "the parent first in even pairs",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "env": next(iter(runs.values()))["change"][0]["env"]},
        "workloads": {},
    }
    for workload, sides in runs.items():
        def values(side, metric):
            return [r["metrics"][metric]["value"] for r in sides[side]]
        report["workloads"][workload] = {
            **{m: summary(values("parent", m), values("change", m), better)
               for m, better in metrics.items()},
            "every_run_correct_with_0_failed": all(
                r["correct"] and r["failed"] == 0 for rs in sides.values() for r in rs),
        }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
