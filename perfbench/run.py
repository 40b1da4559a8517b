"""highwaynet benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload train-highway50 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Run from the repository root; the library is imported from ./src.  With
--trace 0 one untraced pass sized to --seconds gives the end-to-end
metrics.  With --trace 1 an untraced and a traced pass, each sized to a
third of --seconds, give the per-layer metrics, the tracing overhead and a check
that tracing did not change any output.  Each pass runs in a fresh process
(runpass.py) with every BLAS/OpenMP thread count pinned to 1.
Timings are wall seconds scaled to a reference machine speed that the pass
samples while it runs (speed.py); the unscaled seconds are the per-layer
metrics wall.*.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it print the environment and every metric with its
unit.  The full report (environment, sizes, checks, fingerprints) is written
to .bench_out/.  `--workload all` runs every workload untraced and prints a
table instead.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

from env import peak_kb, pin_threads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("train-highway50", "search-shallow", "conv-cifar")
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0
# A traced run makes an untraced and a traced pass, each this share of
# --seconds: per-layer numbers need less run time than bounded ones.
TRACED_SHARE = 1 / 3


class BenchError(RuntimeError):
    pass


def _children(pid: int) -> list[int]:
    pids = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as f:
                pids += [int(p) for p in f.read().split()]
        except OSError:
            pass
    return pids


def run_pass(workload: str, seed: int, budget: float, trace: bool, blas_threads: int,
             deadline: float) -> dict:
    """Run runpass.py in a new process group; sample its pool workers' memory.

    peak_rss_mb is the pass process's own peak plus the largest sum of the
    peaks of pool workers alive at the same time (sampled every 0.1 s).
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    out = os.path.join(OUT_DIR, f"pass-{tag}.json")
    workdir = os.path.join(OUT_DIR, f"work-{tag}")
    cmd = [sys.executable, os.path.join(HERE, "runpass.py"), "--workload", workload,
           "--seed", str(seed), "--budget", repr(budget), "--trace", str(int(trace)),
           "--blas-threads", str(blas_threads), "--workdir", workdir, "--out", out]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    workers_kb = 0
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise BenchError(f"{workload} pass did not finish in time")
            workers_kb = max(workers_kb, sum(peak_kb(p) for p in _children(proc.pid)))
            time.sleep(0.1)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with code {proc.returncode}")
    with open(out) as f:
        result = json.load(f)
    os.remove(out)
    result["e2e"]["peak_rss_mb"] = (result["self_peak_kb"] + workers_kb) * 1024 / 1e6
    return result


def _fingerprint(result: dict) -> str:
    return json.dumps(result["fingerprint"], sort_keys=True)


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """The metrics of one run, with the passes it made."""
    from metrics import END_TO_END

    if not trace:
        p = run_pass(workload, seed, seconds, False, BLAS_THREADS, deadline)
        return {"passes": [p], "metrics": {m: p["e2e"][m] for m in END_TO_END},
                "attempted": p["checks"]["attempted"], "failed": p["checks"]["failed"]}

    plain = run_pass(workload, seed, seconds * TRACED_SHARE, False, BLAS_THREADS, deadline)
    traced = run_pass(workload, seed, seconds * TRACED_SHARE, True, BLAS_THREADS, deadline)
    same = _fingerprint(plain) == _fingerprint(traced)
    attempted = plain["checks"]["attempted"] + traced["checks"]["attempted"] + 1
    failed = plain["checks"]["failed"] + traced["checks"]["failed"] + (not same)
    c = traced["counts"]
    m = dict(traced["span_metrics"])
    m.update({
        "optim.sgd_step.tensors": c["sgd_step_tensors"],
        "data.cifar_bytes": c["cifar_bytes"],
        "checkpoint.bytes": c["checkpoint_bytes"],
        "search.task_bytes": c["task_bytes"],
        "search.trials_ok_frac": c.get("trials_ok_frac", 0.0),
        "search.trials_diverged": c.get("trials_diverged", 0),
        "counts.step_gemm_gflop": c["step_gemm_gflop"],
        "counts.step_gemm_mb": c["step_gemm_mb"],
        **{f"phase.{k}": v for k, v in plain["phases"].items()},
        **{f"wall.{k}": v for k, v in plain["wall"].items()},
        "speed.slowdown": plain["slowdown"],
        **{f"trace.overhead.{k}": traced["e2e"][k] - plain["e2e"][k] for k in END_TO_END},
        "check.failed_frac": failed / attempted,
        "check.bitwise_equal": sum(p["checks"]["bitwise_equal"] for p in (plain, traced)),
        "check.reference_values": sum(p["checks"]["reference_values"] for p in (plain, traced)),
    })
    return {"passes": [plain, traced], "metrics": m, "attempted": attempted,
            "failed": failed, "traced_equals_untraced": same}


def _write_report(name: str, report: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return path


def _print_run(workload: str, run: dict, units: dict) -> None:
    first = run["passes"][0]
    print(f"# {workload} seed={first['seed']} sizes={json.dumps(first['sizes'])}")
    print(f"# env {json.dumps(first['env'], sort_keys=True)}")
    for name, value in run["metrics"].items():
        print(f"{workload:16s} {name:38s} {value:>16.6g} {units[name]}")
    compared = sum(p["checks"]["reference_values"] for p in run["passes"])
    if first["reference_found"]:
        print(f"# reference fingerprint: {compared} values compared with references.json")
    else:
        print(f"# reference fingerprint: none stored for seed {first['seed']} at these sizes; "
              "the invariants and the loss and gradient checks ran")
    failures = [f for p in run["passes"] for f in p["checks"]["failures"]]
    print(f"{workload:16s} {'failed_frac':38s} {run['failed'] / run['attempted']:>16.6g} "
          f"ratio ({run['failed']} of {run['attempted']} checks failed)")
    for failure in failures:
        print(f"# check failed: {failure}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="highwaynet benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()
    # on SIGTERM unwind through run_pass, which stops the pass's process group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(ROOT, "src", "highwaynet", "__init__.py")):
        print(f"error: no highwaynet sources under {os.path.join(ROOT, 'src')}; "
              "run from the repository root", file=sys.stderr)
        return 2
    pin_threads(BLAS_THREADS)
    from metrics import END_TO_END, PER_LAYER

    units = {**END_TO_END, **PER_LAYER}
    try:
        if args.workload == "all":
            failed = 0
            for workload in WORKLOADS:
                run = measure(workload, args.seed, args.seconds, False,
                              time.monotonic() + TIME_LIMIT_S)
                _print_run(workload, run, units)
                failed += run["failed"]
            return 1 if failed else 0
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      started + TIME_LIMIT_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_run(args.workload, run, units)
    _write_report(f"report-{args.workload}-s{args.seed}-t{args.trace}.json", run)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
