"""Dataset storage: inputs kept as uint8 pixel bytes (byte k stands for
k/255) or as float64, and decoded to float64 rows only through
Dataset.rows, a batch or a slice at a time.

Byte and float storage of the same values must give the same bits
everywhere, and nothing in the library may decode a whole corpus: the
guard below makes Dataset.inputs raise and runs every reader.
"""

import multiprocessing

import numpy as np
import pytest

from highwaynet.analysis import gate_report
from highwaynet.data import (
    Dataset,
    DatasetSpec,
    load_cifar_binary,
    load_idx,
    save_cifar_binary,
    save_idx,
    subset,
    synthetic_digits,
)
from highwaynet.init import NetworkTemplate
from highwaynet.ops import Rng
from highwaynet.optim import evaluate
from highwaynet.search import SearchSpace, TrainConfig, fit, run_search
from test_data import traced_peak
from test_search import TEMPLATE, comparable

CONV_TEMPLATE = NetworkTemplate("conv-highway", 1, 0, 3072, 10, image_shape=(3, 32, 32))
CONFIG = TrainConfig(lr0=0.05, epochs=2, batch_size=16, activation="tanh", gate_bias=-2.0)


def float_twin(ds: Dataset) -> Dataset:
    """The same values, stored as float64."""
    return Dataset(ds.inputs, ds.labels, ds.num_classes, ds.name)


def entries(log) -> list:
    return [(e.epoch, e.loss, e.accuracy, e.lr) for e in log.entries]


@pytest.fixture
def cifar_path(tmp_path):
    rng = Rng(61)
    pixels = rng.integers(256, size=(24, 3072)).astype(np.uint8)
    path = tmp_path / "data_batch_1.bin"
    save_cifar_binary(Dataset(pixels, rng.integers(10, size=24), 10, "cifar10"), path)
    return path


@pytest.fixture
def no_corpus_decode(monkeypatch):
    """Dataset.inputs raises, here and in search helpers forked after this."""
    def refuse(self):
        raise AssertionError("Dataset.inputs decoded a whole corpus")

    monkeypatch.setattr(Dataset, "inputs", property(refuse))
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: fork)


class TestDecode:
    def test_every_byte_decodes_to_k_over_255(self):
        ds = Dataset(np.arange(256, dtype=np.uint8)[:, None], np.zeros(256, dtype=np.int64),
                     1, "bytes")
        got = ds.rows(slice(None))
        assert got.dtype == np.float64
        assert got[:, 0].tolist() == [float(k) / 255.0 for k in range(256)]

    def test_producers_keep_bytes(self, tmp_path, cifar_path):
        digits = synthetic_digits(30, 2)
        save_idx(digits, tmp_path / "i", tmp_path / "l")
        for ds in (digits, load_idx(tmp_path / "i", tmp_path / "l"),
                   load_cifar_binary([cifar_path]),
                   load_cifar_binary([cifar_path], as_images=True),
                   subset(digits, 10, Rng(1))):
            assert ds.stored.dtype == np.uint8


class TestBytesEqualFloats:
    """A byte dataset and a float Dataset of its values train alike."""

    def test_fit(self):
        ds = synthetic_digits(150, 21)
        (a, log_a), (b, log_b) = (fit(TEMPLATE, d, CONFIG, 5) for d in (ds, float_twin(ds)))
        assert entries(log_a) == entries(log_b) and len(log_a.entries) == 2
        assert a.theta.tobytes() == b.theta.tobytes()

    def test_conv_fit(self, cifar_path):
        ds = load_cifar_binary([cifar_path])
        config = TrainConfig(lr0=0.01, epochs=1, batch_size=8)
        (a, log_a), (b, log_b) = (fit(CONV_TEMPLATE, d, config, 6) for d in (ds, float_twin(ds)))
        assert entries(log_a) == entries(log_b)
        assert a.theta.tobytes() == b.theta.tobytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_search(self, jobs):
        ds = synthetic_digits(120, 22)
        space = SearchSpace(trials=3, epochs=2, batch_size=32)
        got, want = (run_search(space, TEMPLATE, d, 8, jobs=jobs) for d in (ds, float_twin(ds)))
        assert comparable(got) == comparable(want)


class TestNoCorpusDecode:
    """Every reader in the library goes through Dataset.rows."""

    def test_dense_fit_evaluate_and_gate_report(self, no_corpus_decode):
        ds = synthetic_digits(100, 23)
        net, log = fit(TEMPLATE, ds, CONFIG, 7)
        assert evaluate(net, ds) == (log.entries[-1].loss, log.entries[-1].accuracy)
        assert gate_report(net, ds, probe_index=3).sample_count == 100

    def test_conv_fit(self, no_corpus_decode, cifar_path):
        net, log = fit(CONV_TEMPLATE, load_cifar_binary([cifar_path]),
                       TrainConfig(lr0=0.01, epochs=1, batch_size=8), 6)
        assert len(log.entries) == 1

    def test_parallel_search(self, no_corpus_decode):
        results = run_search(SearchSpace(trials=2, epochs=1, batch_size=32), TEMPLATE,
                             synthetic_digits(80, 24), 9, jobs=2)
        assert sorted(r.trial for r in results) == [0, 1]

    def test_subset_writers_and_spec(self, no_corpus_decode, tmp_path, cifar_path):
        digits = synthetic_digits(40, 25)
        save_idx(subset(digits, 20, Rng(3)), tmp_path / "i", tmp_path / "l")
        save_cifar_binary(load_cifar_binary([cifar_path]), tmp_path / "c.bin")
        assert (tmp_path / "c.bin").read_bytes() == cifar_path.read_bytes()
        for spec in (DatasetSpec(count=30, subset=10),
                     DatasetSpec(name="mnist", images=str(tmp_path / "i"),
                                 labels=str(tmp_path / "l")),
                     DatasetSpec(name="cifar10", paths=(str(cifar_path),))):
            assert spec.load(4).stored.dtype == np.uint8


class TestPeaks:
    def test_synthetic_corpus_holds_no_float_copy(self):
        """A float64 copy of 10k digits would take 62.7 MB; the bytes take 7.8."""
        ds, peak = traced_peak(lambda: synthetic_digits(10000, 2026))
        assert ds.stored.nbytes == 10000 * 784 and peak < 16 * 2**20

    def test_byte_writer_makes_no_float_temporary(self, tmp_path):
        """Writing bytes copies them once, into the file's buffer; a float
        temporary alone would take eight times the bytes."""
        ds = synthetic_digits(1000, 26)
        _, peak = traced_peak(lambda: save_idx(ds, tmp_path / "i", tmp_path / "l"))
        assert peak <= 1.5 * ds.stored.nbytes
