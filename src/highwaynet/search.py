"""Random hyperparameter search over seeded, independently re-runnable trials.

Each trial samples a configuration (log-uniform lr, uniform momentum/decay/
gate bias, a coin flip for the activation), initializes a fresh network, and
trains it; trials are ranked by the best training cross-entropy they ever
logged, diverged trials last.  Trial i's seed is derived from the master
seed by XOR with splitmix64(i), so any single trial can be reproduced
standalone and parallel execution cannot change the outcome.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

from .data import Dataset
from .init import InitScheme, NetworkTemplate, build_network, init_network
from .ops import ACTIVATIONS, Rng, derive_seed, require_counts, require_int, write_csv
from .optim import SgdConfig, TrainLog, train


@dataclass(frozen=True)
class SearchSpace:
    lr0: tuple = (1e-3, 1e-1)          # log-uniform
    momentum: tuple = (0.5, 0.99)      # uniform
    decay: tuple = (0.9, 1.0)          # uniform
    activations: tuple = ("relu", "tanh")
    gate_bias: tuple | None = (-10.0, -1.0)  # uniform; None for plain networks
    trials: int = 5
    epochs: int = 15
    batch_size: int = 64

    def __post_init__(self):
        require_counts(self, "trials", "epochs", "batch_size")
        ranges = ("lr0", "momentum", "decay") + (() if self.gate_bias is None else ("gate_bias",))
        for name in ranges:
            bounds = getattr(self, name)
            if not (isinstance(bounds, tuple) and len(bounds) == 2 and all(
                    isinstance(b, numbers.Real) for b in bounds) and bounds[0] <= bounds[1]):
                raise ValueError(f"{name} must be a (low, high) range of numbers, got {bounds!r}")
        if not self.lr0[0] > 0:
            raise ValueError(f"lr0 range must be positive for log-uniform sampling: {self.lr0}")
        for end in (0, 1):  # every draw lies between the ends, so both runs must be valid
            SgdConfig(self.lr0[end], self.momentum[end], self.decay[end])
            if self.gate_bias is not None:
                InitScheme(gate_bias=self.gate_bias[end])
        if not self.activations or not set(self.activations) <= set(ACTIVATIONS):
            raise ValueError(f"activations must be a non-empty subset of {ACTIVATIONS}, "
                             f"got {self.activations!r}")


@dataclass(frozen=True)
class TrainConfig(SgdConfig):
    """One run's settings: the SGD schedule plus the two network choices a
    search draws; gate_bias None takes InitScheme's default."""
    activation: str = "relu"
    gate_bias: float | None = None


@dataclass
class TrialResult:
    trial: int
    config: TrainConfig
    seed: int
    status: str              # "ok" | "diverged"
    best_loss: float
    final_loss: float
    log: TrainLog


def sample_config(space: SearchSpace, rng: Rng) -> TrainConfig:
    """One independent draw per searched field."""
    lo, hi = space.lr0
    lr0 = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    momentum = float(rng.uniform(*space.momentum))
    decay = float(rng.uniform(*space.decay))
    activation = rng.choice(space.activations)
    gate_bias = float(rng.uniform(*space.gate_bias)) if space.gate_bias is not None else None
    return TrainConfig(lr0=lr0, momentum=momentum, decay=decay, epochs=space.epochs,
                       batch_size=space.batch_size, activation=activation, gate_bias=gate_bias)


def fit(template: NetworkTemplate, dataset: Dataset, config: TrainConfig, seed: int):
    """One run, the same for `train` and a search trial: a fresh network
    initialized from derive_seed(seed, 1), trained with batch order from
    derive_seed(seed, 2) on a view of the inputs in the template's shape
    ([count, c, h, w] for conv); returns (net, TrainLog)."""
    t = template
    net = build_network(t.kind, t.depth, t.width, t.in_features, t.classes, config.activation,
                        image_shape=t.image_shape, kernel_size=t.kernel_size)
    bias = {} if config.gate_bias is None else {"gate_bias": config.gate_bias}
    init_network(net, InitScheme(t.init_kind, rng_seed=derive_seed(seed, 1), **bias))
    if net.is_conv:
        dataset = replace(dataset, stored=dataset.stored.reshape(-1, *t.image_shape))
    return train(net, dataset, config, Rng(derive_seed(seed, 2)))


def run_trial(template: NetworkTemplate, dataset: Dataset, config: TrainConfig,
              seed: int, trial: int = 0) -> TrialResult:
    """Train one sampled configuration; reproducible from (config, seed)."""
    _, log = fit(template, dataset, config, seed)
    status = "diverged" if log.diverged else "ok"
    return TrialResult(trial, config, seed, status, log.best_loss(), log.final_loss(), log)


_helper_state: tuple = ()  # (dataset, counter), set by the initializer in each search helper


def _share(dataset: Dataset, counter) -> None:
    global _helper_state
    _helper_state = (dataset, counter)


def _trial_for_index(template, dataset, space, master_seed, i):
    seed = derive_seed(master_seed, i)
    config = sample_config(space, Rng(derive_seed(seed, 0)))
    return run_trial(template, dataset, config, seed, trial=i)


def _claim_trials(template, dataset, counter, space, master_seed) -> list[TrialResult]:
    """Run unclaimed trials until none is left; any exception, Ctrl-C too, ends all claims."""
    results = []
    try:
        while True:
            with counter.get_lock():
                i, counter.value = counter.value, counter.value + 1
            if i >= space.trials:
                return results
            results.append(_trial_for_index(template, dataset, space, master_seed, i))
    except BaseException:
        with counter.get_lock():
            counter.value = space.trials
        raise


def _helper_trials(template, space, master_seed) -> list[TrialResult]:
    return _claim_trials(template, *_helper_state, space, master_seed)


def run_search(space: SearchSpace, template: NetworkTemplate, dataset: Dataset,
               master_seed: int, jobs: int = 1) -> list[TrialResult]:
    """Run the whole search; returns trials ranked best-first.

    Ranking is ascending best training cross-entropy with diverged trials
    last; ties break on trial index, so serial and parallel runs agree.
    The caller and min(jobs, trials) - 1 helpers take trial indices from one
    shared counter; helpers get the dataset once, from the pool initializer
    (inherited, not pickled, under the fork start method).
    """
    helpers = min(require_int("jobs", jobs), space.trials) - 1
    if template.kind == "plain":
        space = replace(space, gate_bias=None)
    context = multiprocessing.get_context()
    counter = context.Value("i", 0)
    with (ProcessPoolExecutor(helpers, context, _share, (dataset, counter)) if helpers
          else nullcontext()) as pool:
        futures = [pool.submit(_helper_trials, template, space, master_seed)
                   for _ in range(helpers)]
        results = _claim_trials(template, dataset, counter, space, master_seed)
        results += [r for future in futures for r in future.result()]
    results.sort(key=lambda r: (r.status != "ok", r.best_loss, r.trial))
    return results


CONFIG_COLUMNS = ("lr0", "momentum", "decay", "activation", "gate_bias")


def config_cells(c: TrainConfig) -> tuple:
    """The CONFIG_COLUMNS cells of search.csv and sweep.csv; no gate bias is an empty cell."""
    return c.lr0, c.momentum, c.decay, c.activation, "" if c.gate_bias is None else c.gate_bias


def write_search_csv(results: list[TrialResult], path) -> None:
    """Summary CSV: one row per trial in ranked order."""
    write_csv(path, ("trial", "status", *CONFIG_COLUMNS, "best_loss", "final_loss", "seed"),
              [(r.trial, r.status, *config_cells(r.config), r.best_loss, r.final_loss, r.seed)
               for r in results])
