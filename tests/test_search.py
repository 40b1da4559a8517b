from dataclasses import replace

import numpy as np
import pytest

from highwaynet import search
from highwaynet.data import Dataset, synthetic_digits
from highwaynet.ops import Rng, derive_seed
from highwaynet.search import (
    NetworkTemplate,
    SearchSpace,
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

    def test_numpy_integers_pass(self):
        SearchSpace(trials=np.int64(2), epochs=np.int32(1), batch_size=np.int64(8))
        NetworkTemplate("highway", np.int64(3), np.int64(12), 784, 10, kernel_size=np.int64(3))

    def test_template_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            NetworkTemplate("residual", 3, 12, 784, 10)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activations"):
            SearchSpace(activations=("relu", "swish"))


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

    def test_parallel_search_ships_dataset_once_per_worker(self, tiny_dataset):
        PickleCountingDataset.pickles = 0
        ds = PickleCountingDataset(tiny_dataset.inputs, tiny_dataset.labels,
                                   tiny_dataset.num_classes, tiny_dataset.name)
        results = run_search(SearchSpace(trials=4, epochs=1, batch_size=32), TEMPLATE, ds, 3,
                             jobs=2)
        assert len(results) == 4
        assert PickleCountingDataset.pickles <= 2  # the pool has 2 workers, the search 4 tasks

    @pytest.mark.parametrize("trials, pools", [(3, [3]), (1, [])])
    def test_pool_has_no_more_workers_than_trials(self, tiny_dataset, monkeypatch,
                                                  trials, pools):
        workers = []

        class InProcessPool:
            """Records the pool size and runs the tasks here, as a worker would."""
            def __init__(self, max_workers, initializer, initargs):
                workers.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        monkeypatch.setattr(search, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(search, "_worker_dataset", None)  # undone after the test
        space = SearchSpace(trials=trials, epochs=1, batch_size=32)
        assert len(run_search(space, TEMPLATE, tiny_dataset, 11, jobs=8)) == trials
        assert workers == pools  # one trial runs here, with no pool

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


class TestSeedDerivation:
    def test_trial_seeds_distinct(self):
        seeds = [derive_seed(99, i) for i in range(40)]
        assert len(set(seeds)) == 40

    def test_matches_documented_formula(self):
        # master XOR splitmix64((i+1) * golden gamma)
        assert derive_seed(0, 0) != 0
        assert derive_seed(5, 2) == 5 ^ derive_seed(0, 2)
