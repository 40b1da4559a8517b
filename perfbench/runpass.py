"""One pass of one workload, in a process of its own.

    python3 perfbench/runpass.py --workload conv-cifar --seed 1 --budget 12 \
        --trace 1 --blas-threads 1 --workdir .bench_out/w --out .bench_out/p.json

run.py starts this once per pass so each pass has a fresh process (peak
memory, set-up) and can be stopped as a process group.  It pins the BLAS
threads before numpy loads, runs the workload, and writes its results as
JSON to --out; a traced pass also saves its spans next to that file.
Both kinds of pass sample the machine's speed (speed.py) while they run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from env import peak_kb, pin_threads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_pass(workload: str, seed: int, sizes, trace: bool, workdir: str,
             blas_threads: int, spans_path: str | None = None) -> dict:
    """Run one workload pass in this process and return its results."""
    import numpy as np

    import checks
    import env
    import metrics
    import workloads
    from speed import Speed
    from tracing import Tracer

    environment = env.describe()
    tracer = Tracer() if trace else None
    speed = Speed()
    clock = workloads.Clock(speed, tracer)
    check = checks.Checker()
    run, finish = workloads.RUNNERS[workload]
    os.makedirs(workdir, exist_ok=True)
    if tracer:
        tracer.install()
    speed.start()
    try:
        out = run(seed, sizes, clock, workdir)
    finally:
        speed.stop()
        if tracer:
            tracer.uninstall()
    self_peak_kb = peak_kb()  # before the checks allocate anything
    result = finish(out, sizes, clock, check)

    refs = checks.load_references()
    ref = checks.reference_for(refs, blas_threads, workload, seed)
    if ref is not None:
        checks.compare(check, refs, workload, result["fingerprint"], ref)

    result.update(workload=workload, seed=seed, trace=trace, sizes=asdict(sizes),
                  env=environment, checks=check.summary(), reference_found=ref is not None,
                  self_peak_kb=self_peak_kb, phase_times=dict(clock.times))
    if tracer:
        cols = tracer.arrays()
        result["span_metrics"] = metrics.span_metrics(cols, workloads.SEARCH_JOBS)
        if spans_path:
            np.savez_compressed(spans_path, **cols)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True, help="seconds of work to size the pass to")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    pin_threads(args.blas_threads)
    sys.path.insert(0, SRC)
    import workloads

    sizes = workloads.sizes_for(args.workload, args.budget)
    spans_path = os.path.splitext(args.out)[0] + "-spans.npz" if args.trace else None
    result = run_pass(args.workload, args.seed, sizes, bool(args.trace), args.workdir,
                      args.blas_threads, spans_path)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
