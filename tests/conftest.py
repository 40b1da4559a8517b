"""Shared fixtures: the desk-scale experiment corpus.

The acceptance experiments run on a 10,000-sample MNIST subset when the IDX
archives are on disk (HIGHWAYNET_DATA_DIR, default ./data; see
tools/fetch_mnist.py), and otherwise fall back to the deterministic
synthetic digit set so the suite runs fully offline.
"""

import os

import pytest

from highwaynet.data import Dataset, load_idx, subset, synthetic_digits
from highwaynet.init import InitScheme, build_network, init_network
from highwaynet.ops import Rng, set_blas_threads

DATA_DIR = os.environ.get("HIGHWAYNET_DATA_DIR", "data")
MNIST_IMAGES = os.path.join(DATA_DIR, "train-images-idx3-ubyte")
MNIST_LABELS = os.path.join(DATA_DIR, "train-labels-idx1-ubyte")

# Every test runs BLAS at one thread, as cli.main does: a GEMM's bits depend
# on the thread count, and one thread per process lets a search use the cores.
set_blas_threads(1)


def mnist_available() -> bool:
    return os.path.exists(MNIST_IMAGES) and os.path.exists(MNIST_LABELS)


def dataset_config_stanza() -> dict:
    """The CLI dataset section matching the desk_corpus fixture."""
    if mnist_available():
        return {"name": "mnist", "dir": DATA_DIR, "subset": 10000, "seed": 2026}
    return {"name": "synthetic", "count": 10000, "seed": 2026}


@pytest.fixture(scope="session")
def desk_corpus_10k() -> Dataset:
    if mnist_available():
        return subset(load_idx(MNIST_IMAGES, MNIST_LABELS), 10000, Rng(2026))
    return synthetic_digits(10000, seed=2026)


@pytest.fixture(scope="session")
def desk_corpus_2k(desk_corpus_10k) -> Dataset:
    ds = desk_corpus_10k
    return Dataset(ds.stored[:2000], ds.labels[:2000], ds.num_classes, ds.name)


@pytest.fixture(params=["plain", "highway", "conv-highway"])
def small_net(request):
    """(net, inputs): a small initialized network of each body kind and 30
    inputs for it (flat, or 2x4x4 images for the conv body)."""
    x = Rng(51).normal(size=(30, 32))
    if request.param == "conv-highway":
        net = build_network(request.param, 2, 0, 32, 3, "relu", image_shape=(2, 4, 4))
        x = x.reshape(30, 2, 4, 4)
    else:
        net = build_network(request.param, 4, 6, 32, 3, "tanh")
    return init_network(net, InitScheme("he", -1.0, 50)), x
