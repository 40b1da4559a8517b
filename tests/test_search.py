import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from highwaynet import search
from highwaynet.data import Dataset, synthetic_digits
from highwaynet.ops import Rng, derive_seed
from highwaynet.optim import TrainLog
from highwaynet.search import (
    NetworkTemplate,
    SearchSpace,
    TrainConfig,
    TrialResult,
    run_search,
    run_trial,
    sample_config,
    write_search_csv,
)


class TestSampleConfig:
    def test_degenerate_space_is_point_mass(self):
        space = SearchSpace(lr0=(0.01, 0.01), momentum=(0.9, 0.9), decay=(0.95, 0.95),
                            activations=("relu",), gate_bias=(-2.0, -2.0))
        cfg = sample_config(space, Rng(0))
        assert cfg.lr0 == pytest.approx(0.01)
        assert cfg.momentum == 0.9
        assert cfg.decay == 0.95
        assert cfg.activation == "relu"
        assert cfg.gate_bias == -2.0

    def test_gate_bias_containment(self):
        space = SearchSpace()
        rng = Rng(1)
        draws = [sample_config(space, rng).gate_bias for _ in range(10_000)]
        assert min(draws) >= -10.0 and max(draws) <= -1.0

    def test_lr_log_uniform_median(self):
        space = SearchSpace(lr0=(1e-3, 1e-1))
        rng = Rng(2)
        draws = sorted(sample_config(space, rng).lr0 for _ in range(10_000))
        median = draws[5000]
        assert abs(median - 1e-2) / 1e-2 < 0.2

    def test_plain_space_has_no_gate_bias(self):
        cfg = sample_config(replace(SearchSpace(), gate_bias=None), Rng(3))
        assert cfg.gate_bias is None

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(momentum=(0.9, 0.5))

    def test_nonpositive_lr_range_rejected(self):
        with pytest.raises(ValueError, match="log-uniform"):
            SearchSpace(lr0=(0.0, 0.1))

    @pytest.mark.parametrize("field, bounds, message", [
        ("momentum", (0.5, 1.5), r"momentum must be in \[0, 1\), got 1.5"),
        ("momentum", (-0.1, 0.5), r"momentum must be in \[0, 1\), got -0.1"),
        ("decay", (0.0, 1.0), r"decay must be in \(0, 1\], got 0.0"),
        ("decay", (0.9, 1.1), r"decay must be in \(0, 1\], got 1.1"),
        ("gate_bias", (-3.0, 0.3), "gate_bias must be negative, got 0.3"),
        ("gate_bias", (-3.0, 0.0), "gate_bias must be negative, got 0.0"),
    ])
    def test_range_end_outside_its_rule_rejected(self, field, bounds, message):
        """A range is refused whole, not only when a draw lands outside the
        rule SgdConfig or InitScheme applies to one run."""
        with pytest.raises(ValueError, match=message):
            SearchSpace(**{field: bounds})

    def test_range_ends_on_the_rules_accepted(self):
        space = SearchSpace(momentum=(0.0, 0.0), decay=(1.0, 1.0), gate_bias=(-1e-3, -1e-3))
        assert sample_config(space, Rng(4)).momentum == 0.0
        assert SearchSpace(gate_bias=None).gate_bias is None


class TestFieldChecks:
    @pytest.mark.parametrize("field", ["trials", "epochs", "batch_size"])
    @pytest.mark.parametrize("value", [2.0, "2", True, 0])
    def test_space_counts_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchSpace(**{field: value})

    @pytest.mark.parametrize("field", ["depth", "width", "kernel_size"])
    @pytest.mark.parametrize("value", [3.0, "3", False])
    def test_template_sizes_must_be_integers(self, field, value):
        args = dict(kind="highway", depth=3, width=12, in_features=784, classes=10)
        with pytest.raises(ValueError, match=field):
            NetworkTemplate(**{**args, field: value})

    @pytest.mark.parametrize("field, bounds", [("lr0", (True, True)), ("momentum", (False, 0.9)),
                                               ("decay", (0.9, True)), ("gate_bias", (-3.0, False))])
    def test_range_ends_refuse_a_bool(self, field, bounds):
        with pytest.raises(ValueError, match=field):
            SearchSpace(**{field: bounds})

    def test_numpy_integers_pass(self):
        SearchSpace(trials=np.int64(2), epochs=np.int32(1), batch_size=np.int64(8))
        NetworkTemplate("highway", np.int64(3), np.int64(12), 784, 10, kernel_size=np.int64(3))

    def test_template_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            NetworkTemplate("residual", 3, 12, 784, 10)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activations"):
            SearchSpace(activations=("relu", "swish"))


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
START_METHODS = ("fork", "forkserver", "spawn")


@pytest.fixture
def forked(monkeypatch):
    """Search helpers forked from this process, so they see its monkeypatches."""
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: fork)


def record_trials(monkeypatch, tmp_path, fail_in=None, helper_hold=0.1):
    """Replace run_trial, in the caller and in every helper forked after this,
    with a fake that leaves a file '<trial>-<pid>' per trial it starts.

    fail_in "caller" or "helper" makes every trial of that side raise, and
    holds each trial of the other side until 0.2 s after one has raised
    (2 s at most), time enough for the raiser to close the counter.
    Without it, a helper's trial takes helper_hold seconds (0.1 s lets the
    caller claim one too).
    Returns a function that lists the (trial, pid) pairs started so far."""
    caller = os.getpid()

    def fake_run_trial(template, dataset, config, seed, trial=0):
        (tmp_path / f"{trial}-{os.getpid()}").touch()
        in_caller = os.getpid() == caller
        if fail_in is not None and in_caller == (fail_in == "caller"):
            (tmp_path / "raised").touch()
            raise RuntimeError(f"trial {trial} failed")
        if fail_in is None:
            time.sleep(0.0 if in_caller else helper_hold)
        else:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and not (tmp_path / "raised").exists():
                time.sleep(0.01)
            time.sleep(0.2)
        return search.TrialResult(trial, config, seed, "ok", 1.0, 1.0, None)

    monkeypatch.setattr(search, "run_trial", fake_run_trial)
    return lambda: [tuple(map(int, p.name.split("-"))) for p in tmp_path.glob("*-*")]


def comparable(results) -> list:
    """Every TrialResult field, log entries included, except their seconds."""
    rows = [dataclasses.asdict(r) for r in results]
    for row in rows:
        for entry in row["log"]["entries"]:
            del entry["seconds"]
    return rows


TINY_SPACE = SearchSpace(trials=3, epochs=2, batch_size=32)
TEMPLATE = NetworkTemplate("highway", 3, 12, 784, 10)


class PickleCountingDataset(Dataset):
    """Counts how often this process pickles it."""
    pickles = 0

    def __getstate__(self):
        type(self).pickles += 1
        return self.__dict__


@pytest.fixture(scope="module")
def tiny_dataset():
    return synthetic_digits(200, seed=13)


class TestRunSearch:
    def test_single_trial(self, tiny_dataset):
        results = run_search(SearchSpace(trials=1, epochs=1), TEMPLATE, tiny_dataset, 42)
        assert len(results) == 1
        assert results[0].status in ("ok", "diverged")

    def test_same_master_seed_identical(self, tiny_dataset):
        a = run_search(TINY_SPACE, TEMPLATE, tiny_dataset, 7)
        b = run_search(TINY_SPACE, TEMPLATE, tiny_dataset, 7)
        assert [(r.trial, r.best_loss, r.final_loss) for r in a] == \
               [(r.trial, r.best_loss, r.final_loss) for r in b]

    def test_parallel_matches_serial(self, tiny_dataset):
        serial = run_search(TINY_SPACE, TEMPLATE, tiny_dataset, 11, jobs=1)
        parallel = run_search(TINY_SPACE, TEMPLATE, tiny_dataset, 11, jobs=2)
        assert [(r.trial, r.best_loss) for r in serial] == \
               [(r.trial, r.best_loss) for r in parallel]

    def test_ranking_ascending_with_diverged_last(self, tiny_dataset):
        results = run_search(TINY_SPACE, TEMPLATE, tiny_dataset, 19)
        ok = [r for r in results if r.status == "ok"]
        assert all(a.best_loss <= b.best_loss for a, b in zip(ok, ok[1:]))
        statuses = [r.status for r in results]
        assert statuses == sorted(statuses, key=lambda s: s != "ok")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_diverged_trials_rank_by_trial_index(self, tiny_dataset, monkeypatch, forked, jobs):
        """Every trial diverges, so every best loss is inf and the trial index
        alone orders them.  Each fake run takes 0.05 s, so a helper claims some."""
        def diverged(template, dataset, config, seed):
            time.sleep(0.05)
            return None, TrainLog(diverged=True)

        monkeypatch.setattr(search, "fit", diverged)
        results = run_search(SearchSpace(trials=6, epochs=1), TEMPLATE, tiny_dataset, 5, jobs)
        assert [r.status for r in results] == ["diverged"] * 6
        assert [r.trial for r in results] == list(range(6))

    def test_parallel_search_ships_dataset_once_per_worker(self, tiny_dataset):
        PickleCountingDataset.pickles = 0
        ds = PickleCountingDataset(tiny_dataset.inputs, tiny_dataset.labels,
                                   tiny_dataset.num_classes, tiny_dataset.name)
        results = run_search(SearchSpace(trials=4, epochs=1, batch_size=32), TEMPLATE, ds, 3,
                             jobs=2)
        assert len(results) == 4
        assert PickleCountingDataset.pickles <= 1  # one helper; the caller's trials use it as is

    @pytest.mark.parametrize("jobs, trials, helpers", [(8, 3, 2), (2, 4, 1), (1, 3, 0),
                                                        (8, 1, 0)])
    def test_caller_is_one_of_the_jobs(self, tiny_dataset, tmp_path, monkeypatch, forked,
                                       jobs, trials, helpers):
        pools = []

        class CountingPool(search.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(search, "ProcessPoolExecutor", CountingPool)
        started = record_trials(monkeypatch, tmp_path)
        space = SearchSpace(trials=trials, epochs=1, batch_size=32)
        results = run_search(space, TEMPLATE, tiny_dataset, 11, jobs=jobs)
        assert pools == ([helpers] if helpers else [])
        assert sorted(r.trial for r in results) == list(range(trials))
        runs = started()
        assert sorted(trial for trial, _ in runs) == list(range(trials))  # each ran once
        assert os.getpid() in {pid for _, pid in runs}

    @pytest.mark.parametrize("fail_in", ["caller", "helper"])
    def test_failing_trial_stops_the_search(self, tiny_dataset, tmp_path, monkeypatch, forked,
                                            fail_in):
        started = record_trials(monkeypatch, tmp_path, fail_in)
        space = SearchSpace(trials=8, epochs=1, batch_size=32)
        with pytest.raises(RuntimeError, match="failed"):
            run_search(space, TEMPLATE, tiny_dataset, 11, jobs=2)
        assert len(started()) <= 2  # the failed trial and the one the other process held

    def test_counter_hands_out_each_trial_once(self, tiny_dataset, tmp_path, monkeypatch,
                                               forked):
        """Eight processes on fewer cores claim 300 instant trials: a lost
        update of the shared counter would run a trial twice or skip one."""
        started = record_trials(monkeypatch, tmp_path, helper_hold=0.0)
        space = SearchSpace(trials=300, epochs=1, batch_size=32)
        results = run_search(space, TEMPLATE, tiny_dataset, 11, jobs=8)
        assert sorted(r.trial for r in results) == list(range(300))
        runs = started()
        assert sorted(trial for trial, _ in runs) == list(range(300))
        assert len({pid for _, pid in runs}) > 1

    def test_parallel_matches_serial_under_every_start_method(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
        runs = {}
        for method in START_METHODS:
            done = subprocess.run([sys.executable, os.path.abspath(__file__), method], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            runs.update({f"{method} jobs={j}": rows
                         for j, rows in json.loads(done.stdout).items()})
        assert len(runs) == 9 and runs["fork jobs=1"][0]["log"]["entries"]
        for name, rows in runs.items():
            assert rows == runs["fork jobs=1"], name

    def test_trial_reproducible_standalone(self, tiny_dataset):
        results = run_search(TINY_SPACE, TEMPLATE, tiny_dataset, 23)
        probe = results[0]
        redo = run_trial(TEMPLATE, tiny_dataset, probe.config, probe.seed, trial=probe.trial)
        assert redo.best_loss == probe.best_loss
        assert redo.final_loss == probe.final_loss
        assert [e.loss for e in redo.log.entries] == [e.loss for e in probe.log.entries]

    def test_best_beats_median_on_small_search(self, tiny_dataset):
        # internal consistency: with >= 1 distinct sampled config the best
        # trial must strictly beat the median trial
        space = SearchSpace(trials=8, epochs=3, batch_size=32)
        template = NetworkTemplate("highway", 10, 24, 784, 10)
        ds = synthetic_digits(2000, seed=21)
        results = run_search(space, template, ds, 31)
        losses = [r.best_loss for r in results if r.status == "ok"]
        assert len(losses) >= 4
        assert losses[0] < losses[len(losses) // 2]

    def test_plain_template_drops_gate_bias(self, tiny_dataset):
        template = NetworkTemplate("plain", 3, 12, 784, 10)
        results = run_search(TINY_SPACE, template, tiny_dataset, 5)
        assert all(r.config.gate_bias is None for r in results)

    def test_summary_csv(self, tiny_dataset, tmp_path):
        results = run_search(TINY_SPACE, TEMPLATE, tiny_dataset, 3)
        path = tmp_path / "search.csv"
        write_search_csv(results, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("trial,status,lr0,momentum,decay,activation,"
                            "gate_bias,best_loss,final_loss,seed")
        assert len(lines) == 1 + len(results)
        cells = lines[1].split(",")
        assert float(cells[7]) == results[0].best_loss

    def test_numpy_scalar_cells_read_back(self, tmp_path):
        """A config drawn by hand from Rng.uniform holds numpy scalars."""
        lr0, momentum, decay, gate_bias, loss = Rng(4).uniform(size=5)
        config = TrainConfig(lr0, momentum, decay, activation="tanh", gate_bias=-gate_bias)
        result = TrialResult(0, config, 9, "ok", loss, loss, TrainLog())
        write_search_csv([result], tmp_path / "search.csv")
        cells = (tmp_path / "search.csv").read_text().splitlines()[1].split(",")
        assert [float(cells[i]) for i in (2, 3, 4, 6, 7, 8)] == [
            lr0, momentum, decay, -gate_bias, loss, loss]


class TestSeedDerivation:
    def test_trial_seeds_distinct(self):
        seeds = [derive_seed(99, i) for i in range(40)]
        assert len(set(seeds)) == 40

    def test_matches_documented_formula(self):
        # master XOR splitmix64((i+1) * golden gamma)
        assert derive_seed(0, 0) != 0
        assert derive_seed(5, 2) == 5 ^ derive_seed(0, 2)


if __name__ == "__main__":
    # One 5-trial search at jobs 1, 2 and 3 under the start method named by
    # the argument; prints comparable() of each as JSON keyed by jobs.
    multiprocessing.set_start_method(sys.argv[1])
    dataset = synthetic_digits(200, seed=13)
    space = SearchSpace(trials=5, epochs=2, batch_size=32)
    print(json.dumps({jobs: comparable(run_search(space, TEMPLATE, dataset, 11, jobs=jobs))
                      for jobs in (1, 2, 3)}))
