"""Minibatch SGD with classical momentum and per-epoch lr decay.

The training loop is deliberately plain: shuffle, step through minibatches, decay
the rate once per epoch, and measure the full training set after every
epoch.  Divergence (non-finite loss) ends the run with a status instead of
propagating NaNs into the log.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .data import Dataset, batches
from .layers import Network, network_forward_backward
from .ops import Rng, ShapeError, require_counts, write_csv

EVAL_BATCH = 512  # rows per evaluation-only forward


@dataclass(frozen=True)
class SgdConfig:
    lr0: float
    momentum: float = 0.9
    decay: float = 1.0
    epochs: int = 10
    batch_size: int = 64

    def __post_init__(self):
        require_counts(self, "epochs", "batch_size")
        for name in ("lr0", "momentum", "decay"):  # a bool compares as 0 or 1
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        # lr0 == 0 is allowed as the null update; useful in tests
        if not self.lr0 >= 0:
            raise ValueError(f"lr0 must be non-negative, got {self.lr0}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 < self.decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float
    lr: float
    seconds: float


@dataclass
class TrainLog:
    entries: list[EpochStats] = field(default_factory=list)
    diverged: bool = False

    def best_loss(self) -> float:
        return min((e.loss for e in self.entries), default=float("inf"))

    def final_loss(self) -> float:
        return self.entries[-1].loss if self.entries else float("inf")

    def write_csv(self, path) -> None:
        write_csv(path, [f.name for f in fields(EpochStats)], map(astuple, self.entries))


def sgd_step(theta, grad, velocity, lr: float, momentum: float) -> None:
    """One heavy-ball update of flat vectors, in place:
    v <- momentum*v - lr*g; theta <- theta + v."""
    if not theta.shape == grad.shape == velocity.shape:
        raise ShapeError(f"sgd_step shapes disagree: {theta.shape}, {grad.shape}, {velocity.shape}")
    velocity *= momentum
    velocity -= lr * grad
    theta += velocity


def evaluate(net: Network, ds: Dataset):
    """Mean cross-entropy and accuracy over the whole dataset, by EVAL_BATCH rows."""
    if ds.count == 0:
        raise ValueError("empty dataset: nothing to evaluate")
    total_loss, correct = 0.0, 0
    for xb, yb in batches(ds, EVAL_BATCH):
        loss, probs = net.head.loss_probs(net.forward(xb), yb)
        total_loss += loss * xb.shape[0]
        correct += int((probs.argmax(axis=1) == yb).sum())
    return total_loss / ds.count, correct / ds.count


def train(net: Network, ds: Dataset, cfg: SgdConfig, rng: Rng):
    """Optimize the network in place; returns (net, TrainLog).

    After each epoch the log records the loss/accuracy of a fresh pass over
    the full training set, the lr used during the epoch (lr0 * decay^e
    exactly), and wall time.  A non-finite minibatch loss stops the run and
    flags the log as diverged.
    """
    velocity = np.zeros_like(net.theta)
    grad = np.empty_like(net.theta)
    grad_views = net.split(grad)  # every step's gradients are written into grad
    log = TrainLog()
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for epoch in range(cfg.epochs):
            lr = cfg.lr0 * cfg.decay ** epoch
            started = time.perf_counter()
            for xb, yb in batches(ds, cfg.batch_size, rng):
                loss, _ = network_forward_backward(net, xb, yb, out=grad_views)
                if not np.isfinite(loss):
                    log.diverged = True
                    return net, log
                sgd_step(net.theta, grad, velocity, lr, cfg.momentum)
            epoch_loss, epoch_acc = evaluate(net, ds)
            seconds = time.perf_counter() - started
            if not np.isfinite(epoch_loss):
                log.diverged = True
                return net, log
            log.entries.append(EpochStats(epoch + 1, float(epoch_loss), float(epoch_acc),
                                          lr, seconds))
    return net, log
