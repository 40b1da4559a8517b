"""Regenerate references.json: reference fingerprints and their tolerance.

    python3 perfbench/make_references.py --seconds 30 --seeds 1 2

Run from the repository root.  For each BLAS thread count (1 and 2), seed
and workload it makes one untraced pass sized to --seconds and stores the
output fingerprint.  The float tolerance is set from a measurement: how far
the 2-thread trajectories land from the 1-thread ones (GEMMs split across
threads sum in another order, like a fused or reordered kernel would).
The tolerance is TOLERANCE_FACTOR times the largest relative loss
difference seen, and the measurement is stored next to it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from env import pin_threads

import run

THREADS = (1, 2)
TOLERANCE_FACTOR = 100.0
MIN_REL_TOLERANCE = 1e-12
ACCURACY_SAMPLES = 2  # accuracy may differ by this many samples
PASS_LIMIT_S = 900.0  # two BLAS threads per pool worker oversubscribe two cores


def _values(fingerprint: dict) -> list[tuple]:
    """(label, loss-like values, accuracy-like values) of a fingerprint."""
    if "epochs" in fingerprint:
        return [("loss", e[0]) for e in fingerprint["epochs"]] + \
               [("accuracy", e[1]) for e in fingerprint["epochs"]]
    return [("loss", v) for rows in fingerprint["search"].values()
            for row in sorted(rows) for v in row[2:]]


def _difference(a: dict, b: dict) -> dict:
    rel, acc, equal, total = 0.0, 0.0, 0, 0
    for (kind, x), (_, y) in zip(_values(a), _values(b)):
        total += 1
        equal += x == y
        if kind == "accuracy":
            acc = max(acc, abs(x - y) * a["inputs"])
        else:
            rel = max(rel, abs(x - y) / max(abs(x), abs(y)))
    return {"max_rel_loss": rel, "max_accuracy_samples": round(acc),
            "bitwise_equal": equal, "values": total}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    pin_threads(1)

    runs: dict = {str(t): {w: {} for w in run.WORKLOADS} for t in THREADS}
    for threads in THREADS:
        for workload in run.WORKLOADS:
            for seed in args.seeds:
                result = run.run_pass(workload, seed, args.seconds, False, threads,
                                      time.monotonic() + PASS_LIMIT_S)
                runs[str(threads)][workload][str(seed)] = result["fingerprint"]
                print(f"{threads} thread(s) {workload} seed {seed}: "
                      f"{result['checks']['failed']} failed checks", file=sys.stderr)

    measured = {w: {str(s): _difference(runs["1"][w][str(s)], runs["2"][w][str(s)])
                    for s in args.seeds} for w in run.WORKLOADS}
    worst = max(d["max_rel_loss"] for per_seed in measured.values() for d in per_seed.values())
    refs = {
        "tolerance": {
            "rel": max(MIN_REL_TOLERANCE, TOLERANCE_FACTOR * worst),
            "accuracy_samples": ACCURACY_SAMPLES,
            "basis": f"{TOLERANCE_FACTOR:g} x the largest relative loss difference between "
                     "1 and 2 BLAS threads over every workload and seed below "
                     f"(at least {MIN_REL_TOLERANCE:g})",
        },
        "measured_1_vs_2_threads": measured,
        "seconds": args.seconds,
        "runs": runs,
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    with open(path, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps(refs["tolerance"], indent=1))
    print(json.dumps(measured, indent=1))
    return 0 if all(math.isfinite(d["max_rel_loss"]) for m in measured.values()
                    for d in m.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
