"""Metric names and units, and the per-layer numbers computed from spans.

BENCHMARK.json at the repository root lists the same names; the
benchmark's tests check that the two agree.
"""

from __future__ import annotations

import numpy as np

from tracing import self_times

# name -> unit.  Every end-to-end metric is reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "epoch_s": "s",
    "command_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer self time: metric -> span names whose self time it sums.
SELF_TIME = {
    "ops.sigmoid.self_s": ("ops.sigmoid",),
    "ops.matmul.self_s": ("ops.matmul",),
    "ops.activation.self_s": ("ops.activation",),
    "layers.highway.self_s": ("layers.highway.fwd", "layers.highway.bwd"),
    "layers.plain.self_s": ("layers.plain.fwd", "layers.plain.bwd"),
    "layers.conv_highway.self_s": ("layers.conv_highway.fwd", "layers.conv_highway.bwd"),
    "layers.head.self_s": ("layers.head.fwd_bwd", "layers.head.probs"),
    "layers.forward_caches.self_s": ("layers.forward_caches",),
    "layers.step.self_s": ("layers.step",),
    "optim.sgd_step.self_s": ("optim.sgd_step",),
    "optim.evaluate.self_s": ("optim.evaluate",),
    "optim.train.self_s": ("optim.train",),
    "data.batches.wait_s": ("data.batches",),
}

# Per-call duration percentiles: metric -> (span name, batch size or None,
# percentile, unit).
PER_CALL = {
    "layers.highway.fwd_b64_us_p50": ("layers.highway.fwd", 64, 50, "us"),
    "layers.highway.fwd_b64_us_p95": ("layers.highway.fwd", 64, 95, "us"),
    "layers.highway.bwd_b64_us_p50": ("layers.highway.bwd", 64, 50, "us"),
    "layers.highway.bwd_b64_us_p95": ("layers.highway.bwd", 64, 95, "us"),
    "layers.highway.fwd_b512_us_p50": ("layers.highway.fwd", 512, 50, "us"),
    "layers.plain.fwd_b64_us_p50": ("layers.plain.fwd", 64, 50, "us"),
    "layers.plain.bwd_b64_us_p50": ("layers.plain.bwd", 64, 50, "us"),
    "layers.conv_highway.fwd_b64_ms_p50": ("layers.conv_highway.fwd", 64, 50, "ms"),
    "layers.conv_highway.bwd_b64_ms_p50": ("layers.conv_highway.bwd", 64, 50, "ms"),
    "layers.head.fwd_bwd_us_p50": ("layers.head.fwd_bwd", 64, 50, "us"),
    "layers.step_ms_p50": ("layers.step", 64, 50, "ms"),
    "layers.step_ms_p95": ("layers.step", 64, 95, "ms"),
    "optim.sgd_step.ms_p50": ("optim.sgd_step", None, 50, "ms"),
    "data.synthetic_digits.s": ("data.synthetic_digits", None, 50, "s"),
    "data.load_cifar_binary.s": ("data.load_cifar_binary", None, 50, "s"),
    "init.build_network.s": ("init.build_network", None, 50, "s"),
    "init.init_network.s": ("init.init_network", None, 50, "s"),
    "checkpoint.save.s": ("checkpoint.save", None, 50, "s"),
    "checkpoint.load.s": ("checkpoint.load", None, 50, "s"),
    "analysis.gate_report.s": ("analysis.gate_report", None, 50, "s"),
    "analysis.export_report.s": ("analysis.export_report", None, 50, "s"),
    "search.trial_s_p50": ("search.trial", None, 50, "s"),
    "search.trial_s_max": ("search.trial", None, 100, "s"),
}

CALLS = {
    "ops.sigmoid.calls": "ops.sigmoid",
    "ops.matmul.calls": "ops.matmul",
}

PER_LAYER = {
    **{name: "count" for name in CALLS},
    **{name: "s" for name in SELF_TIME},
    **{name: spec[3] for name, spec in PER_CALL.items()},
    "ops.matmul.gflop": "Gflop",
    "optim.sgd_step.tensors": "count",
    "optim.evaluate.epoch_share": "ratio",
    "data.cifar_bytes": "B",
    "checkpoint.bytes": "B",
    "search.task_bytes": "B",
    "search.worker_busy_frac": "ratio",
    "search.pool_overhead_s": "s",
    "search.trials_ok_frac": "ratio",
    "search.trials_diverged": "count",
    "counts.step_gemm_gflop": "Gflop",
    "counts.step_gemm_mb": "MB",
    "phase.eval_s": "s",
    "phase.analyze_s": "s",
    "phase.search_s": "s",
    "wall.setup_s": "s",
    "wall.epoch_s": "s",
    "wall.command_s": "s",
    "speed.slowdown": "ratio",
    **{f"trace.overhead.{name}": unit for name, unit in END_TO_END.items()},
    "trace.unattributed_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.spans": "count",
    "check.failed_frac": "ratio",
    "check.bitwise_equal": "count",
    "check.reference_values": "count",
}


_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def span_metrics(cols: dict, jobs: int) -> dict:
    """The span-derived per-layer metrics of one traced pass; `jobs` is the
    search pool size."""
    names = list(cols["names"])
    nid = cols["name"]
    dur = cols["end"] - cols["start"]
    own = self_times(cols)
    ids = {n: i for i, n in enumerate(names)}

    def where(name):
        return nid == ids.get(name, -1)

    out = {}
    for metric, span_names in SELF_TIME.items():
        out[metric] = float(sum(own[where(n)].sum() for n in span_names))
    for metric, span_name in CALLS.items():
        out[metric] = int(where(span_name).sum())
    for metric, (span_name, batch, q, unit) in PER_CALL.items():
        sel = where(span_name)
        if batch is not None:
            sel &= cols["size"] == batch
        out[metric] = _pct(dur[sel], q) * _SCALE[unit]
    out["ops.matmul.gflop"] = float(cols["size"][where("ops.matmul")].sum()) / 1e9
    out["optim.sgd_step.tensors"] = int(cols["size"][where("optim.sgd_step")].max(initial=0))

    train = where("optim.train")
    in_train = where("optim.evaluate") & (cols["parent"] >= 0)
    in_train[in_train] = train[cols["parent"][in_train]]
    out["optim.evaluate.epoch_share"] = (
        float(dur[in_train].sum() / dur[train].sum()) if train.any() else 0.0)

    searches = np.flatnonzero(where("search.run_search"))
    trials = where("search.trial")
    busy = overhead = 0.0
    for s in searches:
        mine = trials & (cols["parent"] == s)
        per_worker = [dur[mine & (cols["proc"] == p)].sum() for p in np.unique(cols["proc"][mine])]
        busy += dur[mine].sum()
        overhead += dur[s] - max(per_worker, default=0.0)
    wall = dur[searches].sum()
    out["search.worker_busy_frac"] = float(busy / (jobs * wall)) if searches.size else 0.0
    out["search.pool_overhead_s"] = float(overhead / searches.size) if searches.size else 0.0

    bench = np.array([n.startswith("bench.") for n in names], dtype=bool)[nid] if names else nid < 0
    phase_wall = dur[bench & (cols["parent"] < 0)].sum()
    out["trace.unattributed_s"] = float(own[bench].sum())
    out["trace.unattributed_frac"] = float(own[bench].sum() / phase_wall) if phase_wall else 0.0
    out["trace.spans"] = int(nid.size)
    return out
