"""Output checks: seed-independent invariants and stored reference fingerprints.

Every check counts as one attempted operation; a failed check (or an
operation that raised) counts as failed.  Reference values are compared with
the tolerance recorded in references.json, and exact bitwise agreement is
counted on the side, not treated as a requirement.  References exist only
for the seeds and sizes stored there; `check_model` holds for every seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from highwaynet import layers

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_values = 0
        self.bitwise_equal = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def close(self, got: float, want: float, rel: float, absolute: float, what: str) -> bool:
        """One reference value: within max(rel*|want|, absolute) of it."""
        self.reference_values += 1
        self.bitwise_equal += got == want
        ok = math.isfinite(got) and abs(got - want) <= max(rel * abs(want), absolute)
        return self.check(ok, f"{what}: got {got!r}, reference {want!r}")

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:20],
            "reference_values": self.reference_values,
            "bitwise_equal": self.bitwise_equal,
        }


# -- invariants --------------------------------------------------------------

def check_log(check: Checker, log, epochs: int, what: str) -> None:
    """Each epoch: finite loss, accuracy in [0, 1]; and no divergence."""
    check.check(not log.diverged and len(log.entries) == epochs,
                f"{what}: {len(log.entries)} of {epochs} epochs, diverged={log.diverged}")
    for e in log.entries:
        check.check(math.isfinite(e.loss) and 0.0 <= e.accuracy <= 1.0,
                    f"{what} epoch {e.epoch}: loss {e.loss!r}, accuracy {e.accuracy!r}")


def check_round_trip(check: Checker, net, loaded, what: str) -> None:
    """Same kind, same parameter names and shapes, bit-identical values."""
    a, b = net.parameters(), loaded.parameters()
    same = (net.body_kind == loaded.body_kind and len(a) == len(b) and all(
        na == nb and pa.shape == pb.shape and pa.tobytes() == pb.tobytes()
        for (na, pa), (nb, pb) in zip(a, b)))
    check.check(same, f"{what}: checkpoint round trip is not bit-exact")


def check_gate_tables(check: Checker, report, layers: int, width: int, reread) -> None:
    """Four layers x width tables, activities in (0, 1), exported exactly."""
    for name in ("bias_map", "mean_activity", "sample_trace", "block_outputs"):
        table = getattr(report, name)
        check.check(table.shape == (layers, width) and np.isfinite(table).all(),
                    f"gate table {name}: shape {table.shape}, finite={np.isfinite(table).all()}")
        check.check(np.array_equal(reread(name), table), f"gate table {name}: CSV round trip differs")
    for name in ("mean_activity", "sample_trace"):
        table = getattr(report, name)
        check.check(((table > 0.0) & (table < 1.0)).all(), f"gate table {name}: activity outside (0, 1)")


# -- the model's loss and gradient -------------------------------------------

MODEL_POOL = 256          # samples the checked batch is taken from
MODEL_BATCH = 16          # samples of the loss and gradient checks
# Least |relu pre-activation| of a checked sample.  One gradient step moved
# the pre-activations of every workload's nets by at most 1.2e-5, so such a
# sample cannot cross a kink.
KINK_MARGIN = 1e-4
LOSS_REL_TOL = 1e-9       # library loss vs reference_loss
GRADIENT_STEP = 1e-7      # central-difference step along each direction
GRADIENT_DIRECTIONS = 5   # directions that must agree
GRADIENT_TRIES = 20       # directions drawn at most
# |numeric - analytic| over the gradient's norm.  The trained and fresh
# nets of every workload stayed below 3e-9 over 100 directions each.
GRADIENT_TOL = 1e-6


def _conv(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation, summed directly."""
    p = kernels.shape[-1] // 2
    padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = sliding_window_view(padded, kernels.shape[2:], axis=(2, 3))
    return np.einsum("bcijuv,ocuv->boij", win, kernels)


def reference_loss(net, x: np.ndarray, labels: np.ndarray, pre: list | None = None) -> float:
    """Mean cross-entropy of a relu network, written from the layer
    equations with plain numpy.  It reads only net.parameters(), so it
    shares no code with the library's forward pass.  If `pre` is a list,
    every relu pre-activation is appended to it."""
    p = dict(net.parameters())

    def relu(a):
        if pre is not None:
            pre.append(a)
        return np.maximum(a, 0.0)

    def gate(s):  # the logistic function
        return 0.5 * (1.0 + np.tanh(0.5 * s))

    y = x
    if "input.W_H" in p:
        y = relu(y @ p["input.W_H"].T + p["input.b_H"])
    i = 0
    while f"body.{i}.b_H" in p:
        q = {n[len(f"body.{i}."):]: v for n, v in p.items() if n.startswith(f"body.{i}.")}
        if "K_H" in q:
            h = relu(_conv(y, q["K_H"]) + q["b_H"][:, None, None])
            t = gate(_conv(y, q["K_T"]) + q["b_T"][:, None, None])
            y = h * t + y * (1.0 - t)
        elif "W_T" in q:
            h = relu(y @ q["W_H"].T + q["b_H"])
            t = gate(y @ q["W_T"].T + q["b_T"])
            y = h * t + y * (1.0 - t)
        else:
            y = relu(y @ q["W_H"].T + q["b_H"])
        i += 1
    z = y.reshape(len(y), -1) @ p["head.W"].T + p["head.b"]
    z = z - z.max(axis=1, keepdims=True)
    return float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(z)), labels]))


def clear_of_kinks(net, x: np.ndarray) -> np.ndarray:
    """Indices of the samples whose relu pre-activations all lie at least
    KINK_MARGIN from 0, in order."""
    pre: list = []
    reference_loss(net, x, np.zeros(len(x), dtype=np.int64), pre)
    margin = np.full(len(x), np.inf)
    for a in pre:
        margin = np.minimum(margin, np.abs(a).reshape(len(a), -1).min(axis=1))
    return np.flatnonzero(margin >= KINK_MARGIN)


def check_model(check: Checker, net, x: np.ndarray, labels: np.ndarray, what: str) -> None:
    """The library's loss and gradient on one batch, against independent ones.

    The batch is the first MODEL_BATCH samples of `x` that are clear of
    relu kinks (`clear_of_kinks`): at a kink the loss has no derivative,
    and central differences across it disagree with any gradient.  Every
    label is shifted to a wrong class, so the loss and its gradient are
    large next to rounding even for a net that fits its data.  The loss of
    `layers.network_forward_backward` must match `reference_loss`.  Its
    gradient along random directions must match central differences of its
    own loss.  A direction whose step still moves a relu pre-activation
    across 0 (the reference forward shows it) is not used.  Both checks
    hold for every seed, so they also cover runs that have no stored
    reference.  The parameters are restored bit for bit.
    """
    params = net.parameters()
    keep = clear_of_kinks(net, x)[:MODEL_BATCH]
    x, labels = x[keep], (labels[keep] + 1) % dict(params)["head.b"].size
    loss, grads = layers.network_forward_backward(net, x, labels)
    signs: list = []
    want = reference_loss(net, x, labels, signs)
    check.check(abs(loss - want) <= LOSS_REL_TOL * abs(want),
                f"{what}: loss {loss!r}, reference loss {want!r}")
    saved = [p.copy() for _, p in params]
    norm = math.sqrt(sum(float((grads[n] ** 2).sum()) for n, _ in params))
    rng = np.random.default_rng(0)
    errors = []
    try:
        for _ in range(GRADIENT_TRIES):
            d = [rng.standard_normal(p.shape) for _, p in params]
            ends, smooth = [], True
            for sign in (1.0, -1.0):
                for (_, p), p0, di in zip(params, saved, d):
                    np.copyto(p, p0 + sign * GRADIENT_STEP * di)
                ends.append(layers.network_forward_backward(net, x, labels)[0])
                moved: list = []
                reference_loss(net, x, labels, moved)
                smooth &= all(np.array_equal(a > 0.0, b > 0.0) for a, b in zip(signs, moved))
            if smooth:
                analytic = sum(float((grads[n] * di).sum()) for (n, _), di in zip(params, d))
                numeric = (ends[0] - ends[1]) / (2 * GRADIENT_STEP)
                errors.append(abs(numeric - analytic) / norm)
                if len(errors) == GRADIENT_DIRECTIONS:
                    break
    finally:
        for (_, p), p0 in zip(params, saved):
            np.copyto(p, p0)
    check.check(len(errors) == GRADIENT_DIRECTIONS and max(errors) <= GRADIENT_TOL,
                f"{what}: gradient differs from central differences by "
                f"{max(errors, default=math.nan):.3g} of its norm over {len(errors)} directions")


# -- references --------------------------------------------------------------

def load_references(path: str = REFERENCES) -> dict:
    with open(path) as f:
        return json.load(f)


def reference_for(refs: dict, blas_threads: int, workload: str, seed: int):
    return refs.get("runs", {}).get(str(blas_threads), {}).get(workload, {}).get(str(seed))


def compare(check: Checker, refs: dict, workload: str, fingerprint: dict, ref: dict) -> None:
    """Compare a fingerprint with its reference over what both cover.

    Training trajectories are compared epoch by epoch over the common
    prefix (a longer run repeats a shorter one's epochs); search trials are
    compared by trial index.  The inputs must have the same size.
    """
    tol = refs["tolerance"]
    rel = tol["rel"]
    if ref.get("inputs") != fingerprint.get("inputs"):
        return
    if "epochs" in fingerprint:
        acc_abs = tol["accuracy_samples"] / fingerprint["inputs"]
        for i, (got, want) in enumerate(zip(fingerprint["epochs"], ref["epochs"])):
            check.close(got[0], want[0], rel, 0.0, f"{workload} epoch {i + 1} loss")
            check.close(got[1], want[1], 0.0, acc_abs, f"{workload} epoch {i + 1} accuracy")
        return
    for template, ranked in fingerprint["search"].items():
        want_trials = {row[0]: row for row in ref["search"].get(template, [])}
        for trial, status, best, final in ranked:
            want = want_trials.get(trial)
            if want is None:
                continue
            check.check(status == want[1], f"{workload} {template} trial {trial}: status {status}")
            check.close(best, want[2], rel, 0.0, f"{workload} {template} trial {trial} best loss")
            check.close(final, want[3], rel, 0.0, f"{workload} {template} trial {trial} final loss")
