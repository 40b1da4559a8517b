"""Gate and block introspection for trained (or fresh) gated networks.

Produces, per body layer and per block: the learned gate bias, the gate's
mean output over a sample set, its output for one probe sample, and that
sample's block outputs.  The numbers are exported as CSV heatmap tables
(layers down the rows, blocks across the columns); rendering is left to
external plotting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .layers import HighwayLayer, Network
from .ops import check_paths, write_csv
from .optim import EVAL_BATCH

MAX_SAMPLES = 10000  # gate means are taken over at most this many samples
SPARSE_BELOW = 0.1  # gate_sparsity counts a gate below this activity as shut


class AnalysisError(ValueError):
    """Raised when a network has nothing to introspect (no gated body)."""


@dataclass
class GateReport:
    bias_map: np.ndarray       # [layers, n] learned gate biases
    mean_activity: np.ndarray  # [layers, n] gate output averaged over samples
    sample_trace: np.ndarray   # [layers, n] gate output for the probe sample
    block_outputs: np.ndarray  # [layers, n] layer outputs for the probe sample
    sample_count: int


def gate_report(net: Network, samples: Dataset, probe_index: int = 0) -> GateReport:
    """Observe the gates; the network is left untouched.

    Mean activity averages each gate's output over the first
    min(MAX_SAMPLES, len(samples)) examples.  The probe sample additionally
    contributes its per-layer gate trace and block outputs.
    """
    if net.body_kind != HighwayLayer.KIND:
        raise AnalysisError(
            f"gate analysis needs a dense gated body, network has {net.body_kind!r}"
        )
    if not 0 <= probe_index < samples.count:
        raise ValueError(f"probe index {probe_index} outside [0, {samples.count})")

    used = min(MAX_SAMPLES, samples.count)
    sums = np.zeros((len(net.body), net.body[0].out_width))
    # Layer by layer, so one layer's cache is alive at a time, not the depth's;
    # a dense net's layers are the input layer, then the body.
    for start in range(0, used, EVAL_BATCH):
        x = samples.rows(slice(start, min(start + EVAL_BATCH, used)))
        for row, layer in enumerate(net.layers):
            x, cache = layer.forward(x)
            if row:
                sums[row - 1] += cache["t"].sum(axis=0)
    mean_activity = sums / used

    # Block i's output is block i+1's input; the last block's is the result.
    y, caches = net.forward_caches(samples.rows(slice(probe_index, probe_index + 1)))
    body_caches = caches[1:]
    sample_trace = np.stack([cache["t"][0] for cache in body_caches])
    block_outputs = np.stack([cache["x"][0] for cache in body_caches[1:]] + [y[0]])

    bias_map = np.stack([layer.b_T for layer in net.body])
    return GateReport(bias_map, mean_activity, sample_trace, block_outputs, used)


def gate_sparsity(report: GateReport) -> dict:
    """Per-layer fraction of gates with activity below SPARSE_BELOW.

    Reporting convention only; returned for both the mean activity and the
    single-sample trace.
    """
    return {
        "mean": (report.mean_activity < SPARSE_BELOW).mean(axis=1),
        "sample": (report.sample_trace < SPARSE_BELOW).mean(axis=1),
    }


def bias_activity_correlation(report: GateReport) -> float:
    """Pearson correlation between per-layer mean bias and mean activity.

    Purely descriptive; trained networks tend to show this negative, with
    strongly negative biases marking the selective (not shut-off) layers.
    """
    bias = report.bias_map.mean(axis=1)
    act = report.mean_activity.mean(axis=1)
    if bias.std() == 0 or act.std() == 0:
        return float("nan")
    return float(np.corrcoef(bias, act)[0, 1])


_CSV_NAMES = ("bias_map", "mean_activity", "sample_trace", "block_outputs")


def export_report(report: GateReport, out_dir) -> list[str]:
    """Write the four heatmap tables, cells at 17 significant digits; rows
    are layers with depth increasing downward, columns are blocks.  Returns
    the file paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name in _CSV_NAMES:
        path, matrix = os.path.join(out_dir, f"{name}.csv"), getattr(report, name)
        try:
            write_csv(path, [f"block_{j}" for j in range(matrix.shape[1])],
                      ([f"{v:.17g}" for v in row] for row in matrix))
        except OSError as exc:
            raise OSError(f"could not write {path}: {exc}") from exc
        paths.append(path)
    return paths


def load_matrix_csv(path) -> np.ndarray:
    """Read back a table written by export_report (full printed precision)."""
    check_paths(path=path)
    with open(path) as f:
        if not f.readline():
            raise ValueError(f"no header line in {path}")
        rows = [[float(v) for v in line.strip().split(",")] for line in f if line.strip()]
    return np.array(rows)
