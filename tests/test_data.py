import hashlib
import os
import struct
import tracemalloc
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from highwaynet.analysis import load_matrix_csv
from highwaynet.checkpoint import load_checkpoint, save_checkpoint
from highwaynet.data import (
    CIFAR_PIXELS,
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    Dataset,
    DatasetSpec,
    FormatError,
    batches,
    load_cifar_binary,
    load_idx,
    save_cifar_binary,
    save_idx,
    subset,
    synthetic_digits,
)
from highwaynet.init import build_network
from highwaynet.ops import Rng, derive_seed
from highwaynet.optim import TrainLog
from highwaynet.search import write_search_csv

MNIST_DIR = os.environ.get("HIGHWAYNET_DATA_DIR", "data")
MNIST_IMAGES = os.path.join(MNIST_DIR, "train-images-idx3-ubyte")
MNIST_LABELS = os.path.join(MNIST_DIR, "train-labels-idx1-ubyte")


@pytest.fixture
def idx_pair(tmp_path):
    """Small synthetic dataset written to IDX files."""
    ds = synthetic_digits(64, seed=12)
    images = tmp_path / "images-idx3-ubyte"
    labels = tmp_path / "labels-idx1-ubyte"
    save_idx(ds, images, labels)
    return ds, images, labels


def loads_or_format_error(load) -> None:
    """The loaders' contract on any input: a Dataset, or a FormatError."""
    try:
        ds = load()
    except FormatError:
        return
    assert isinstance(ds, Dataset)


def idx_bytes(labels, rows: int = 2, cols: int = 3) -> tuple[bytes, bytes]:
    """A valid IDX image/label pair of len(labels) tiny images."""
    count = len(labels)
    pixels = bytes(i % 256 for i in range(count * rows * cols))
    return (struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols) + pixels,
            struct.pack(">II", IDX_LABEL_MAGIC, count) + bytes(labels))


def cifar_bytes(labels, label_bytes: int) -> bytes:
    records = [bytes([label] * label_bytes) + bytes(CIFAR_PIXELS) for label in labels]
    return b"".join(records)


def mutated(data, raw: bytes, header_words: int) -> bytes:
    """raw with one mutation drawn by hypothesis: a header word replaced by
    any 32-bit value, the length cut or extended, or one byte replaced."""
    raw = bytearray(raw)
    how = data.draw(st.sampled_from(["header", "length", "byte"]))
    if how == "header" and header_words:
        word = data.draw(st.integers(0, header_words - 1))
        struct.pack_into(">I", raw, 4 * word, data.draw(st.integers(0, 2 ** 32 - 1)))
    elif how == "length":
        cut = data.draw(st.integers(0, len(raw)))
        raw = raw[:cut] + data.draw(st.binary(max_size=16))
    else:
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    return bytes(raw)


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestLoaderFuzz:
    @FUZZ
    @given(images=st.binary(max_size=48), labels=st.binary(max_size=24))
    def test_idx_arbitrary_bytes(self, tmp_path, images, labels):
        (tmp_path / "i").write_bytes(images)
        (tmp_path / "l").write_bytes(labels)
        loads_or_format_error(lambda: load_idx(tmp_path / "i", tmp_path / "l"))

    @FUZZ
    @given(labels=st.lists(st.integers(0, 9), max_size=5), which=st.sampled_from([0, 1]),
           data=st.data())
    def test_idx_mutated_files(self, tmp_path, labels, which, data):
        files = list(idx_bytes(labels))
        files[which] = mutated(data, files[which], 4 if which == 0 else 2)
        (tmp_path / "i").write_bytes(files[0])
        (tmp_path / "l").write_bytes(files[1])
        loads_or_format_error(lambda: load_idx(tmp_path / "i", tmp_path / "l"))

    @FUZZ
    @given(raw=st.binary(max_size=7000), variant=st.sampled_from(["cifar10", "cifar100"]))
    def test_cifar_arbitrary_bytes(self, tmp_path, raw, variant):
        (tmp_path / "c").write_bytes(raw)
        loads_or_format_error(lambda: load_cifar_binary([tmp_path / "c"], variant))

    @FUZZ
    @given(labels=st.lists(st.integers(0, 9), min_size=1, max_size=3),
           variant=st.sampled_from(["cifar10", "cifar100"]), data=st.data())
    def test_cifar_mutated_file(self, tmp_path, labels, variant, data):
        raw = cifar_bytes(labels, 1 if variant == "cifar10" else 2)
        (tmp_path / "c").write_bytes(mutated(data, raw, 0))
        loads_or_format_error(lambda: load_cifar_binary([tmp_path / "c"], variant))


class TestIdx:
    def test_class_count_is_ten_without_class_nine(self, tmp_path):
        images, labels = idx_bytes([0, 3, 8, 8, 1])
        (tmp_path / "i").write_bytes(images)
        (tmp_path / "l").write_bytes(labels)
        ds = load_idx(tmp_path / "i", tmp_path / "l")
        assert ds.num_classes == 10 and ds.labels.max() == 8

    @pytest.mark.parametrize("labels, match", [([0, 10, 2], "label 10"), ([], "no images")])
    def test_bad_labels_or_empty(self, tmp_path, labels, match):
        images, label_file = idx_bytes(labels)
        (tmp_path / "i").write_bytes(images)
        (tmp_path / "l").write_bytes(label_file)
        with pytest.raises(FormatError, match=match):
            load_idx(tmp_path / "i", tmp_path / "l")

    @pytest.mark.parametrize("dims", [(0, 2 ** 32 - 1, 2 ** 32 - 1), (2, 0, 2 ** 32 - 1),
                                      (2, 3, 0)])
    def test_zero_dimension_holds_no_images(self, tmp_path, dims):
        (tmp_path / "i").write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, *dims))
        (tmp_path / "l").write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, dims[0]) + bytes(dims[0]))
        with pytest.raises(FormatError, match="i holds no images"):
            load_idx(tmp_path / "i", tmp_path / "l")

    def test_empty_label_file(self, tmp_path):
        (tmp_path / "i").write_bytes(idx_bytes([1, 2])[0])
        (tmp_path / "l").write_bytes(idx_bytes([])[1])
        with pytest.raises(FormatError, match="l holds no labels"):
            load_idx(tmp_path / "i", tmp_path / "l")

    def test_round_trip_bytes(self, idx_pair, tmp_path):
        ds, images, labels = idx_pair
        loaded = load_idx(images, labels)
        save_idx(loaded, tmp_path / "i2", tmp_path / "l2")
        assert (tmp_path / "i2").read_bytes() == images.read_bytes()
        assert (tmp_path / "l2").read_bytes() == labels.read_bytes()

    def test_loaded_values_match(self, idx_pair):
        ds, images, labels = idx_pair
        loaded = load_idx(images, labels)
        assert np.array_equal(loaded.inputs, ds.inputs)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_pixels_normalized(self, idx_pair):
        _, images, labels = idx_pair
        loaded = load_idx(images, labels)
        assert loaded.inputs.min() >= 0.0 and loaded.inputs.max() <= 1.0

    def test_corrupt_image_magic(self, idx_pair, tmp_path):
        _, images, labels = idx_pair
        raw = bytearray(images.read_bytes())
        raw[3] = 0x42
        bad = tmp_path / "bad-images"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="0x00000842"):
            load_idx(bad, labels)

    def test_corrupt_label_magic(self, idx_pair, tmp_path):
        _, images, labels = idx_pair
        raw = bytearray(labels.read_bytes())
        raw[3] = 0x07
        bad = tmp_path / "bad-labels"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="label magic"):
            load_idx(images, bad)

    def test_truncated_pixels(self, idx_pair, tmp_path):
        _, images, labels = idx_pair
        bad = tmp_path / "short-images"
        bad.write_bytes(images.read_bytes()[:-10])
        with pytest.raises(FormatError, match="expected 50176 image bytes, found 50166"):
            load_idx(bad, labels)

    @pytest.mark.parametrize("labels, match", [([0, -1, 2], "label -1 outside"),
                                               ([0, 3, -2], "label -2 outside"),
                                               ([0, 3, 2], "label 3 outside")])
    def test_dataset_refuses_a_label_outside_the_classes(self, labels, match):
        with pytest.raises(FormatError, match=match):
            Dataset(np.zeros((3, 4)), np.array(labels), 3, "bad")

    def test_count_mismatch(self, idx_pair, tmp_path):
        _, images, labels = idx_pair
        ds2 = synthetic_digits(32, seed=9)
        other_labels = tmp_path / "other-labels"
        save_idx(ds2, tmp_path / "other-images", other_labels)
        with pytest.raises(FormatError, match="count mismatch: 64 inputs vs 32 labels"):
            load_idx(images, other_labels)

    @pytest.mark.skipif(not os.path.exists(MNIST_IMAGES),
                        reason="real MNIST archives not on disk")
    def test_real_mnist_headers(self):
        ds = load_idx(MNIST_IMAGES, MNIST_LABELS)
        assert ds.count == 60000
        assert ds.features == 784
        assert ds.num_classes == 10


class TestCifar:
    @pytest.fixture
    def cifar10_file(self, tmp_path):
        rng = Rng(44)
        inputs = rng.uniform(0.0, 1.0, size=(20, 3072))
        inputs = np.rint(inputs * 255.0) / 255.0
        labels = rng.integers(10, size=20).astype(np.int64)
        ds = Dataset(inputs, labels, 10, "cifar10")
        path = tmp_path / "data_batch_1.bin"
        save_cifar_binary(ds, path, "cifar10")
        return ds, path

    def test_round_trip(self, cifar10_file, tmp_path):
        ds, path = cifar10_file
        loaded = load_cifar_binary([path], "cifar10")
        assert loaded.count == 20 and loaded.features == 3072
        save_cifar_binary(loaded, tmp_path / "again.bin", "cifar10")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_record_count_from_file_size(self, cifar10_file):
        _, path = cifar10_file
        assert os.path.getsize(path) == 20 * 3073

    def test_cifar100_keeps_fine_label(self, tmp_path):
        rng = Rng(45)
        inputs = np.rint(rng.uniform(0.0, 1.0, size=(8, 3072)) * 255.0) / 255.0
        fine = rng.integers(100, size=8).astype(np.int64)
        ds = Dataset(inputs, fine, 100, "cifar100")
        path = tmp_path / "train.bin"
        save_cifar_binary(ds, path, "cifar100")
        assert os.path.getsize(path) == 8 * 3074
        loaded = load_cifar_binary([path], "cifar100")
        assert np.array_equal(loaded.labels, fine)

    def test_cifar100_round_trip_bytes(self, tmp_path):
        """Coarse labels are written as 0, so a write, load, write cycle
        reproduces the file."""
        rng = Rng(47)
        inputs = np.rint(rng.uniform(0.0, 1.0, size=(5, 3072)) * 255.0) / 255.0
        path = tmp_path / "train.bin"
        save_cifar_binary(Dataset(inputs, rng.integers(100, size=5), 100, "cifar100"),
                          path, "cifar100")
        assert path.read_bytes()[0::3074] == bytes(5)  # the coarse label bytes
        again = load_cifar_binary([path], "cifar100")
        save_cifar_binary(again, tmp_path / "again.bin", "cifar100")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("variant", ["cifar-10", "CIFAR100", "cifar20"])
    def test_writer_refuses_unknown_variant(self, cifar10_file, tmp_path, variant):
        ds, _ = cifar10_file
        with pytest.raises(ValueError, match=f"unknown CIFAR variant: '{variant}'"):
            save_cifar_binary(ds, tmp_path / "out.bin", variant)
        assert not (tmp_path / "out.bin").exists()

    def test_truncated_file(self, cifar10_file, tmp_path):
        _, path = cifar10_file
        bad = tmp_path / "trunc.bin"
        bad.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(FormatError, match="record"):
            load_cifar_binary([bad], "cifar10")

    def test_as_images_shape(self, cifar10_file):
        _, path = cifar10_file
        loaded = load_cifar_binary([path], "cifar10", as_images=True)
        assert loaded.inputs.shape == (20, 3, 32, 32)

    def test_bare_path_refused(self, cifar10_file):
        _, path = cifar10_file
        with pytest.raises(TypeError, match="paths must be a list of paths"):
            load_cifar_binary(path, "cifar10")

    def test_empty_path_list_refused(self):
        with pytest.raises(FormatError, match="empty path list"):
            load_cifar_binary([], "cifar10")

    def test_files_are_read_in_order(self, cifar10_file):
        ds, path = cifar10_file
        twice = load_cifar_binary([path, path], "cifar10")
        assert twice.inputs.tobytes() == np.concatenate([ds.inputs, ds.inputs]).tobytes()
        assert np.array_equal(twice.labels, np.concatenate([ds.labels, ds.labels]))


class TestWriterRefusals:
    """A label or pixel that a byte cannot hold is refused before the file is
    opened, not written modulo 256."""

    WRITERS = {
        "idx": (784, lambda ds, out: save_idx(ds, out / "images", out / "labels")),
        "cifar": (CIFAR_PIXELS, lambda ds, out: save_cifar_binary(ds, out / "images")),
    }

    @pytest.mark.parametrize("label, pixel, match", [
        (256, 0.5, "labels must fit in a byte"),
        (-1, 0.5, "labels must fit in a byte"),
        (3, 1.5, r"pixels must lie in \[0, 1\]"),
        (3, -0.01, r"pixels must lie in \[0, 1\]"),
        (3, np.nan, r"pixels must lie in \[0, 1\]"),
    ])
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_refused_before_writing(self, tmp_path, writer, label, pixel, match):
        features, write = self.WRITERS[writer]
        inputs = np.full((2, features), 0.25)
        inputs[1, 7] = pixel
        ds = Dataset(inputs, np.array([0, 0]), 300, "bad")
        ds.labels[1] = label  # past Dataset's own check, as a caller's later write would be
        with pytest.raises(FormatError, match=match):
            write(ds, tmp_path)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_feature_count_that_fills_no_image_refused(self, tmp_path, writer):
        features, write = self.WRITERS[writer]
        ds = Dataset(np.full((2, features + 1), 0.25), np.array([0, 1]), 10, "wide")
        with pytest.raises(FormatError, match=f"{features + 1} features do not fill"):
            write(ds, tmp_path)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_pixels_rounded_in_one_float_temporary(self, tmp_path, writer):
        """Scaling to 255 and rounding share one float array the size of the
        inputs; the bytes add an eighth of it, the CIFAR records another."""
        features, write = self.WRITERS[writer]
        ds = Dataset(Rng(4).uniform(0.0, 1.0, size=(500, features)),
                     np.zeros(500, dtype=np.int64), 10, "peak")
        _, peak = traced_peak(lambda: write(ds, tmp_path))
        assert peak <= 1.3 * ds.inputs.nbytes


ONE_RECORD = Dataset(np.zeros((1, CIFAR_PIXELS)), np.zeros(1, dtype=np.int64), 10, "one")


class TestDescriptorsRefused:
    """open() takes an integer as a file descriptor and closes it when done,
    so the library's file readers and writers refuse any path that is not a
    str or os.PathLike before they open anything, and the descriptor stays
    open."""

    CALLS = {
        "load_idx-images": ("images_path", lambda fd, out: load_idx(fd, out / "labels")),
        "load_idx-labels": ("labels_path", lambda fd, out: load_idx(out / "images", fd)),
        "save_idx": ("labels_path", lambda fd, out: save_idx(synthetic_digits(1), out / "i", fd)),
        "load_cifar_binary": (r"paths\[0\]", lambda fd, out: load_cifar_binary([fd])),
        "save_cifar_binary": ("path", lambda fd, out: save_cifar_binary(ONE_RECORD, fd)),
        "save_checkpoint": ("path", lambda fd, out: save_checkpoint(
            build_network("highway", 2, 3, 4, 2), fd)),
        "load_checkpoint": ("path", lambda fd, out: load_checkpoint(fd)),
        "TrainLog.write_csv": ("path", lambda fd, out: TrainLog().write_csv(fd)),
        "write_search_csv": ("path", lambda fd, out: write_search_csv([], fd)),
        "load_matrix_csv": ("path", lambda fd, out: load_matrix_csv(fd)),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_refused_and_left_open(self, tmp_path, call):
        name, run = self.CALLS[call]
        path = tmp_path / "file"
        path.write_bytes(bytes(CIFAR_PIXELS + 1))  # one CIFAR record, should a reader get in
        fd = os.open(path, os.O_RDWR)
        try:
            with pytest.raises(TypeError, match=rf"^{name} must be a str or os.PathLike path"):
                run(fd, tmp_path)
            os.fstat(fd)  # an OSError if the call closed it
        finally:
            with suppress(OSError):
                os.close(fd)
        assert path.read_bytes() == bytes(CIFAR_PIXELS + 1)
        assert os.listdir(tmp_path) == ["file"]


class TestDatasetSpec:
    """The config's dataset section: what each spec loads."""

    def test_default_is_the_synthetic_corpus(self):
        got, want = DatasetSpec().load(7), synthetic_digits(10000, 7)
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_its_seed_wins_over_the_runs(self):
        """The spec's seed draws both the digits and the subset."""
        got = DatasetSpec(count=40, seed=3, subset=10).load(9)
        want = subset(synthetic_digits(40, 3), 10, Rng(derive_seed(3, 90)))
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_mnist_files_default_under_dir(self, tmp_path):
        ds = synthetic_digits(16, 5)
        save_idx(ds, tmp_path / "train-images-idx3-ubyte", tmp_path / "train-labels-idx1-ubyte")
        # count, which mnist does not read, passes at its default
        got = DatasetSpec(name="mnist", dir=str(tmp_path), count=10000).load(0)
        assert got.inputs.tobytes() == ds.inputs.tobytes()
        assert np.array_equal(got.labels, ds.labels)


class TestImageShapedWriters:
    """The writers take flat or image-shaped rows and write the same bytes."""

    @staticmethod
    def twins(image_shape):
        rng = Rng(46)
        flat = rng.uniform(0.0, 1.0, size=(6, int(np.prod(image_shape))))
        labels = rng.integers(10, size=6).astype(np.int64)
        return [Dataset(x, labels, 10, "twin") for x in (flat, flat.reshape(6, *image_shape))]

    def test_cifar(self, tmp_path):
        for i, ds in enumerate(self.twins((3, 32, 32))):
            save_cifar_binary(ds, tmp_path / f"{i}.bin")
        assert (tmp_path / "0.bin").read_bytes() == (tmp_path / "1.bin").read_bytes()

    def test_idx(self, tmp_path):
        for i, ds in enumerate(self.twins((1, 28, 28))):
            save_idx(ds, tmp_path / f"{i}.idx3", tmp_path / f"{i}.idx1")
        for suffix in ("idx3", "idx1"):
            assert (tmp_path / f"0.{suffix}").read_bytes() == (tmp_path / f"1.{suffix}").read_bytes()


class TestSubsetAndBatches:
    def test_full_subset_is_permutation(self):
        ds = synthetic_digits(50, seed=1)
        sub = subset(ds, 50, Rng(2))
        assert sorted(map(tuple, sub.inputs)) == sorted(map(tuple, ds.inputs))

    def test_subset_too_large(self):
        ds = synthetic_digits(10, seed=1)
        with pytest.raises(ValueError):
            subset(ds, 11, Rng(0))

    @pytest.mark.parametrize("n", [-3, True, 2.0], ids=["negative", "bool", "float"])
    def test_subset_count_must_be_an_integer_from_zero(self, n):
        """A negative n would take count + n rows, and True one."""
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            subset(synthetic_digits(40, seed=1), n, Rng(9))

    def test_empty_subset(self):
        assert subset(synthetic_digits(40, seed=1), 0, Rng(9)).count == 0

    def test_subset_deterministic(self):
        ds = synthetic_digits(40, seed=3)
        a = subset(ds, 15, Rng(9))
        b = subset(ds, 15, Rng(9))
        assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.labels, b.labels)

    def test_subset_keeps_the_draw_order(self):
        """The rows come in the order the permutation draws them, not sorted."""
        ds = synthetic_digits(40, seed=3)
        idx = Rng(9).permutation(ds.count)[:15]
        sub = subset(ds, 15, Rng(9))
        assert np.array_equal(sub.stored, ds.stored[idx])
        assert np.array_equal(sub.labels, ds.labels[idx])

    def test_batch_size_below_one_refused(self):
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            next(batches(synthetic_digits(10, seed=1), 0))

    def test_batches_partition_dataset(self):
        ds = synthetic_digits(53, seed=4)
        sizes = [xb.shape[0] for xb, _ in batches(ds, 8, Rng(1))]
        assert sum(sizes) == 53
        assert sizes[-1] == 53 % 8

    def test_batches_keep_pairs_aligned(self):
        # sentinel dataset: label == first pixel value scaled
        inputs = np.arange(30, dtype=np.float64).reshape(30, 1) / 255.0
        labels = np.arange(30, dtype=np.int64)
        ds = Dataset(inputs, labels, 30, "sentinel")
        for xb, yb in batches(ds, 7, Rng(5)):
            assert np.array_equal(np.rint(xb[:, 0] * 255.0).astype(np.int64), yb)

    def test_sequential_batches_are_views_and_shuffled_ones_copies(self):
        """Of float storage, that is: byte storage is decoded batch by batch."""
        digits = synthetic_digits(53, seed=4)
        ds = Dataset(digits.inputs, digits.labels, digits.num_classes, digits.name)
        sequential = list(batches(ds, 8))
        assert all(np.shares_memory(xb, ds.stored) and np.shares_memory(yb, ds.labels)
                   for xb, yb in sequential)
        assert np.array_equal(np.concatenate([xb for xb, _ in sequential]), ds.inputs)
        assert np.array_equal(np.concatenate([yb for _, yb in sequential]), ds.labels)
        assert not any(np.shares_memory(xb, ds.stored) or np.shares_memory(yb, ds.labels)
                       for xb, yb in batches(ds, 8, Rng(1)))

    @pytest.mark.parametrize("rng", [None, Rng(1)], ids=["sequential", "shuffled"])
    def test_byte_batches_are_decoded_copies(self, rng):
        ds = synthetic_digits(53, seed=4)
        inputs = ds.inputs
        order = Rng(1).permutation(53) if rng is not None else np.arange(53)
        for start, (xb, yb) in zip(range(0, 53, 8), batches(ds, 8, rng)):
            sel = order[start:start + 8]
            assert xb.dtype == np.float64 and xb.tobytes() == inputs[sel].tobytes()
            assert np.array_equal(yb, ds.labels[sel])
            assert not np.shares_memory(xb, ds.stored)

    def test_label_distribution_roughly_preserved(self):
        ds = synthetic_digits(2000, seed=6)
        sub = subset(ds, 500, Rng(7))
        full_frac = np.bincount(ds.labels, minlength=10) / ds.count
        sub_frac = np.bincount(sub.labels, minlength=10) / sub.count
        assert np.abs(full_frac - sub_frac).max() < 0.06


def _reference_draws(count, seed, side=28, num_classes=10):
    """synthetic_digits' prototypes and draws, in its RNG order: protos
    [classes, side, side], labels, shifts in [0, 5) per axis, intensity and
    the noise images."""
    rng = Rng(seed)
    coarse = 7
    protos = []
    for _ in range(num_classes):
        field = rng.uniform(0.0, 1.0, size=(coarse, coarse))
        up = np.kron(field, np.ones((side // coarse + 1, side // coarse + 1)))[:side, :side]
        blurred = up.copy()
        for shift in (1, 2):
            blurred += np.roll(up, shift, axis=0) + np.roll(up, -shift, axis=0)
            blurred += np.roll(up, shift, axis=1) + np.roll(up, -shift, axis=1)
        blurred /= 9.0
        lo, hi = blurred.min(), blurred.max()
        proto = (blurred - lo) / (hi - lo)
        proto[proto < 0.55] = 0.0
        protos.append(proto)
    labels = rng.integers(num_classes, size=count).astype(np.int64)
    shifts = rng.integers(5, size=(count, 2))
    intensity = rng.uniform(0.6, 1.0, size=count)
    noise = rng.uniform(0.0, 0.3, size=(count, side, side))
    return np.stack(protos), labels, shifts, intensity, noise


def _quantized(images):
    """Clip to [0, 1] and round to the k/255 grid, as synthetic_digits does."""
    pixels = np.rint(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8)
    flat = pixels.reshape(len(pixels), images.shape[1] * images.shape[2])
    return flat.astype(np.float64) / 255.0


def _per_sample_synthetic_digits(count, seed):
    """synthetic_digits as first written, one np.roll per sample: the
    reference the gathered version must equal bit for bit."""
    protos, labels, shifts, intensity, noise = _reference_draws(count, seed)
    images = np.empty_like(noise)
    for i in range(count):
        img = np.roll(protos[labels[i]], (shifts[i, 0] - 2, shifts[i, 1] - 2), axis=(0, 1))
        images[i] = img * intensity[i] + noise[i]
    return _quantized(images), labels


def _one_shot_synthetic_digits(count, seed):
    """synthetic_digits with the whole corpus gathered at once from the
    table of prototypes pre-rolled to every shift: the reference for the
    block-at-a-time gather."""
    protos, labels, shifts, intensity, noise = _reference_draws(count, seed)
    rolled = np.stack([np.roll(protos, (r - 2, c - 2), axis=(1, 2))
                       for r in range(5) for c in range(5)], axis=1)
    digits = rolled[labels, 5 * shifts[:, 0] + shifts[:, 1]]
    digits *= intensity[:, None, None]
    return _quantized(noise + digits), labels


def traced_peak(call):
    """(call(), tracemalloc's peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSyntheticDigits:
    @pytest.mark.parametrize("count, seed, digest", [
        (10000, 2026, "ca7c60c4e529344b81001c9d41ea9bcbb7144e94db111e29fc84787f83bc9906"),
        (37, 1, "a3ee703ebf4458b62efcf974e718efcd8c03b97f4cd8ad2a8e749967dd9cab98"),
        (1, 3, "a4ccfd33bc6407bd49c831990c94f87ae201266d1971783593ffd5d1a9a17e67"),
        (0, 5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ])
    def test_bytes_are_pinned(self, count, seed, digest):
        """SHA-256 of inputs then labels, recorded from the per-sample code."""
        ds = synthetic_digits(count, seed)
        assert ds.inputs.shape == (count, 784) and ds.labels.dtype == np.int64
        assert hashlib.sha256(ds.inputs.tobytes() + ds.labels.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("count, seed", [(0, 0), (1, 7), (37, 11), (500, 2026)])
    def test_equals_per_sample_reference(self, count, seed):
        ds = synthetic_digits(count, seed)
        inputs, labels = _per_sample_synthetic_digits(count, seed)
        assert ds.inputs.tobytes() == inputs.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()

    @pytest.mark.parametrize("count", [1, 255, 256, 257, 600, 1100])
    def test_equals_one_shot_gather(self, count):
        """The corpus is built 256 rows at a time; counts around and across
        that block give the bits of one gather over every row."""
        ds = synthetic_digits(count, 40 + count)
        inputs, labels = _one_shot_synthetic_digits(count, 40 + count)
        assert ds.inputs.tobytes() == inputs.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()

    def test_peak_is_about_the_corpus(self):
        """tracemalloc's peak stays near the corpus itself: a gather of
        every row at once would hold a second corpus-sized array.  The 4 MB
        cover the table of pre-rolled prototypes and the 256-row block
        (1.6 MB each); the 10% covers the per-sample draws."""
        ds, peak = traced_peak(lambda: synthetic_digits(4096, 3))
        assert peak <= 1.1 * ds.inputs.nbytes + 4 * 2**20

    def test_deterministic(self):
        a = synthetic_digits(30, seed=8)
        b = synthetic_digits(30, seed=8)
        assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.labels, b.labels)

    def test_quantized_to_uint8_grid(self):
        ds = synthetic_digits(10, seed=2)
        scaled = ds.inputs * 255.0
        assert np.abs(scaled - np.rint(scaled)).max() < 1e-9

    def test_invariants(self):
        ds = synthetic_digits(100, seed=0)
        assert ds.count == 100 and ds.features == 784 and ds.num_classes == 10
        assert ds.labels.min() >= 0 and ds.labels.max() <= 9
