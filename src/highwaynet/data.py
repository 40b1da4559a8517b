"""Dataset ingestion and batching.

Parsers for the big-endian IDX image/label container and the CIFAR-10/100
binary record layout, both bit-exact with byte round-trips, plus uniform
subsetting, epoch batching, and a deterministic synthetic digit generator
used when the real archives are not on disk (no downloads happen in the
library; see tools/fetch_mnist.py).

Pixels are kept as bytes, and Dataset.rows normalizes the rows it is asked
for to [0, 1] by dividing by 255; nothing else.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .ops import Rng, check_paths, derive_seed, require_counts, require_int

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
IDX_SIDE = 28  # MNIST's 28x28 images
IDX_CLASSES = 10  # MNIST's digits; a label file need not hold every class
CIFAR_PIXELS = 3072  # 3 x 32 x 32
# label bytes per record (the fine label is last) and classes, per variant
CIFAR_VARIANTS = {"cifar10": (1, 10), "cifar100": (2, 100)}


class FormatError(ValueError):
    """Raised for malformed dataset files (bad magic, truncation, ...)."""


@dataclass
class Dataset:
    """Inputs are kept as given: uint8 bytes, byte k standing for k/255, or
    float64 in [0, 1].  rows() is the one place float rows are made."""
    stored: np.ndarray   # [count, features] or [count, c, h, w], uint8 or float64
    labels: np.ndarray   # [count] integer class ids
    num_classes: int
    name: str

    def __post_init__(self):
        if self.stored.shape[0] != self.labels.shape[0]:
            raise FormatError(
                f"count mismatch: {self.stored.shape[0]} inputs vs {self.labels.shape[0]} labels"
            )
        low, high = (int(self.labels.min()), int(self.labels.max())) if self.labels.size else (0, -1)
        if low < 0 or high >= self.num_classes:
            raise FormatError(f"label {low if low < 0 else high} outside [0, {self.num_classes})")

    def rows(self, sel) -> np.ndarray:
        """The float64 inputs of rows sel: bytes divided by 255.0, one
        correctly rounded division as the loaders once made it; floats as
        stored (a view for a slice)."""
        rows = self.stored[sel]
        return np.divide(rows, 255.0, dtype=np.float64) if rows.dtype == np.uint8 else rows

    @property
    def inputs(self) -> np.ndarray:
        """Every row as float64: a whole byte corpus decoded, which the
        library never asks for (it reads rows())."""
        return self.rows(slice(None))

    @property
    def count(self) -> int:
        return self.stored.shape[0]

    @property
    def features(self) -> int:
        return int(np.prod(self.stored.shape[1:]))


def _read_idx(path, magic: int, what: str) -> np.ndarray:
    """The uint8 payload of an IDX file, in the shape its header gives: the
    magic's low byte counts the big-endian uint32 dimensions after it."""
    with open(path, "rb") as f:
        raw = f.read()
    head = 4 * (1 + (magic & 0xFF))
    found = int.from_bytes(raw[:4], "big")
    if len(raw) >= 4 and found != magic:
        raise FormatError(f"bad {what} magic 0x{found:08x} in {path} (want 0x{magic:08x})")
    if len(raw) < head:
        raise FormatError(f"truncated header in {path}")
    shape = struct.unpack_from(f">{magic & 0xFF}I", raw, 4)
    payload = np.frombuffer(raw, dtype=np.uint8, offset=head)
    if payload.size != math.prod(shape):
        raise FormatError(f"{path}: expected {math.prod(shape)} {what} bytes, found {payload.size}")
    if 0 in shape:  # also keeps numpy from refusing a huge dimension beside the zero
        raise FormatError(f"{path} holds no {what}s")
    return payload.reshape(shape)


def _write_idx(path, magic: int, array: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + array.ndim}I", magic, *array.shape))
        f.write(array.tobytes())  # C order: each image's pixels row by row


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair (the MNIST container format)."""
    check_paths(images_path=images_path, labels_path=labels_path)
    pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, "image")
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label")
    return Dataset(pixels.reshape(len(pixels), -1), labels.astype(np.int64), IDX_CLASSES,
                   "idx")  # checks the counts


def _as_bytes(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(pixels, labels) of ds as uint8, refusing a label outside [0, 255] or
    a pixel outside [0, 1] (NaN included), which a byte would wrap.  Stored
    bytes pass through as they are."""
    labels, inputs = ds.labels, ds.stored
    if labels.size and not (labels.min() >= 0 and labels.max() <= 255):
        raise FormatError(f"labels must fit in a byte, [0, 255]: found {labels.min()} "
                          f"to {labels.max()}")
    if inputs.dtype == np.uint8:
        return inputs, labels.astype(np.uint8)
    if inputs.size and not (inputs.min() >= 0.0 and inputs.max() <= 1.0):
        raise FormatError(f"pixels must lie in [0, 1] to be written as bytes: found "
                          f"{inputs.min()} to {inputs.max()}")
    pixels = np.multiply(inputs, 255.0)  # the one float temporary, rounded in place
    return np.rint(pixels, out=pixels).astype(np.uint8), labels.astype(np.uint8)


def save_idx(ds: Dataset, images_path, labels_path) -> None:
    """Write a dataset, flat or image-shaped, back to IDX as 28x28 images;
    inverse of load_idx down to raw bytes."""
    check_paths(images_path=images_path, labels_path=labels_path)
    if ds.features != IDX_SIDE * IDX_SIDE:
        raise FormatError(f"{ds.features} features do not fill {IDX_SIDE}x{IDX_SIDE} images")
    pixels, labels = _as_bytes(ds)
    _write_idx(images_path, IDX_IMAGE_MAGIC, pixels.reshape(ds.count, IDX_SIDE, IDX_SIDE))
    _write_idx(labels_path, IDX_LABEL_MAGIC, labels)


def _cifar_variant(variant: str) -> tuple[int, int]:
    if variant not in CIFAR_VARIANTS:
        raise ValueError(f"unknown CIFAR variant: {variant!r}")
    return CIFAR_VARIANTS[variant]


def load_cifar_binary(paths, variant: str = "cifar10", as_images: bool = False) -> Dataset:
    """Parse CIFAR binary batch files: records of CIFAR_VARIANTS[variant]'s
    label bytes (cifar100's are coarse then fine; the fine label is kept) and
    3072 pixel bytes.  Inputs come back flat unless as_images is set."""
    label_bytes, num_classes = _cifar_variant(variant)
    record = label_bytes + CIFAR_PIXELS
    if isinstance(paths, (str, os.PathLike)):
        raise TypeError(f"paths must be a list of paths, got the one path {paths!r}")

    files = []
    for i, path in enumerate(paths):
        check_paths(**{f"paths[{i}]": path})
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) == 0 or len(raw) % record != 0:
            raise FormatError(
                f"{path}: size {len(raw)} is not a multiple of the {record}-byte record"
            )
        files.append(np.frombuffer(raw, dtype=np.uint8).reshape(-1, record))
    if not files:
        raise FormatError("empty path list: no CIFAR batch file to read")
    # each file's records split as save_cifar_binary joins them; the fine label is last
    inputs = np.concatenate([records[:, label_bytes:] for records in files])
    labels = np.concatenate([records[:, label_bytes - 1] for records in files], dtype=np.int64)
    if as_images:
        inputs = inputs.reshape(-1, 3, 32, 32)
    return Dataset(inputs, labels, num_classes, variant)


def save_cifar_binary(ds: Dataset, path, variant: str = "cifar10") -> None:
    """Write CIFAR-format records from flat or image-shaped inputs; inverse
    of load_cifar_binary.  cifar100 coarse labels are written as 0."""
    check_paths(path=path)
    label_bytes, _ = _cifar_variant(variant)
    if ds.features != CIFAR_PIXELS:
        raise FormatError(f"{ds.features} features do not fill 3x32x32 images")
    pixels, labels = _as_bytes(ds)
    coarse = np.zeros((ds.count, label_bytes - 1), dtype=np.uint8)
    records = np.concatenate([coarse, labels[:, None], pixels.reshape(ds.count, CIFAR_PIXELS)],
                             axis=1)
    with open(path, "wb") as f:
        f.write(records.tobytes())


def subset(ds: Dataset, n: int, rng: Rng) -> Dataset:
    """Uniform sample of n examples without replacement."""
    if n > ds.count:
        raise ValueError(f"cannot take {n} of {ds.count} examples")
    idx = rng.permutation(ds.count)[:n]
    return Dataset(ds.stored[idx], ds.labels[idx], ds.num_classes, ds.name)


def batches(ds: Dataset, batch_size: int, rng: Rng | None = None):
    """Yield (inputs, labels) minibatches covering each example once.

    With an rng the epoch order is a fresh full permutation (inputs and
    labels stay paired; batches are copies); without one the batches are
    consecutive rows, views of float storage.  Inputs come from ds.rows, so
    byte storage is decoded one batch at a time.  The last batch may be
    short.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = rng.permutation(ds.count) if rng is not None else None
    for start in range(0, ds.count, batch_size):
        sel = slice(start, start + batch_size) if order is None else order[start:start + batch_size]
        yield ds.rows(sel), ds.labels[sel]


def synthetic_digits(count: int, seed: int = 0) -> Dataset:
    """Deterministic digit-like image classification set.

    Ten smooth random prototype patterns; each sample is a prototype under a
    random 2-pixel translation (one gather from a [classes, 25, side, side]
    table of the prototypes pre-rolled to every shift), intensity scaling,
    and pixel noise, then clipped to [0, 1] and kept as the byte k of its
    k/255, so it round-trips through the IDX container.  Serves as the
    offline stand-in when the real archives are absent.
    """
    rng = Rng(seed)
    coarse, side = 7, IDX_SIDE
    protos = np.empty((IDX_CLASSES, side, side))
    for proto in protos:
        field = rng.uniform(0.0, 1.0, size=(coarse, coarse))
        up = np.kron(field, np.ones((side // coarse + 1, side // coarse + 1)))[:side, :side]
        # cheap box blur so the patterns have strokes rather than blocks
        blurred = up.copy()
        for shift in (1, 2):
            blurred += np.roll(up, shift, axis=0) + np.roll(up, -shift, axis=0)
            blurred += np.roll(up, shift, axis=1) + np.roll(up, -shift, axis=1)
        blurred /= 9.0
        lo, hi = blurred.min(), blurred.max()
        proto[...] = (blurred - lo) / (hi - lo)
        proto[proto < 0.55] = 0.0  # sparse background like handwriting
    rolled = np.stack([np.roll(protos, (r - 2, c - 2), axis=(1, 2))
                       for r in range(5) for c in range(5)], axis=1)

    labels = rng.integers(IDX_CLASSES, size=count).astype(np.int64)
    shifts = rng.integers(5, size=(count, 2))  # row and column shift, each + 2
    intensity = rng.uniform(0.6, 1.0, size=count)
    pixels = np.empty((count, side * side), dtype=np.uint8)
    for start in range(0, count, 256):  # by blocks of rows: no corpus-sized float array
        rows = slice(start, start + 256)
        digits = rolled[labels[rows], 5 * shifts[rows, 0] + shifts[rows, 1]]
        digits *= intensity[rows, None, None]
        # the noise, drawn by blocks: the counter-based stream is the same however chunked
        images = rng.uniform(0.0, 0.3, size=digits.shape)
        images += digits
        np.clip(images, 0.0, 1.0, out=images)
        images *= 255.0
        pixels[rows] = np.rint(images, out=images).reshape(len(images), -1)
    return Dataset(pixels, labels, IDX_CLASSES, "synthetic")


@dataclass(frozen=True)
class DatasetSpec:
    """The config's dataset section, checked; load() reads the named dataset from files.  Each
    name reads seed and subset; synthetic reads count, mnist dir, images and labels (empty: the
    training file under dir; with both set, dir is not read), cifar paths.  A key it does not
    read must hold its default (so count 10000 passes on mnist).  A seed of None is the run's."""
    name: str = "synthetic"
    seed: int | None = None
    count: int = 10000
    dir: str = "data"
    images: str = ""
    labels: str = ""
    paths: tuple = ()
    subset: int | None = None

    def __post_init__(self):
        if self.name not in ("synthetic", "mnist", *CIFAR_VARIANTS):
            raise ValueError(f"unknown dataset name: {self.name!r}")
        mnist = "images labels" if self.images and self.labels else "dir images labels"
        reads = {"synthetic": "count", "mnist": mnist}.get(self.name, "paths").split()
        for key in ("count", "dir", "images", "labels", "paths"):
            if key not in reads and getattr(self, key) != getattr(DatasetSpec, key):
                raise ValueError(f"{key} is not read by this {self.name!r} dataset")
        require_counts(self, "count")
        if self.seed is not None:
            require_int("seed", self.seed, least=None)
        if self.subset is not None:
            require_int("subset", self.subset)
        for key in ("dir", "images", "labels"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"{key} must be a path string, got {getattr(self, key)!r}")
        if not (isinstance(self.paths, tuple) and all(isinstance(p, str) for p in self.paths)
                and (self.paths or self.name not in CIFAR_VARIANTS)):
            raise ValueError(f"paths must list the path strings cifar reads, got {self.paths!r}")

    @property
    def files(self) -> tuple:
        mnist = (self.images or os.path.join(self.dir, "train-images-idx3-ubyte"),
                 self.labels or os.path.join(self.dir, "train-labels-idx1-ubyte"))
        return {"mnist": mnist, "synthetic": ()}.get(self.name, self.paths)  # cifar's paths

    def load(self, run_seed: int) -> Dataset:
        """The dataset, with flat inputs."""
        seed = run_seed if self.seed is None else self.seed
        if self.name == "synthetic":
            ds = synthetic_digits(self.count, seed)
        elif self.name == "mnist":
            try:
                ds = load_idx(*self.files)
            except FileNotFoundError as exc:
                raise FileNotFoundError(f"{exc} (tools/fetch_mnist.py fetches it)") from exc
        else:
            ds = load_cifar_binary(self.files, self.name)
        if self.subset is not None:
            ds = subset(ds, self.subset, Rng(derive_seed(seed, 90)))
        return ds
