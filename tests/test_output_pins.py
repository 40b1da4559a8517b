"""Byte pins on the outputs of the paper's experiments.

Tiny `train`, `search`, `sweep` and `analyze` jobs run through `cli.main`
in one subprocess with every BLAS/OpenMP thread variable set to 1, and the
SHA-256 digest of each output file is compared with its pin below: the
CIFAR and IDX files the jobs read (written by `save_cifar_binary` and
`save_idx`), the checkpoints, the training logs less their wall-time
column, the search and sweep tables, the four heatmap tables and the
analysis summary.  A broken pin is a changed output bit.

The pins hold per numpy version, BLAS build and OpenBLAS core: the core
picks the GEMM kernels, and each kernel sums in its own order.  The jobs run
once under each recorded core that the host can load (OPENBLAS_CORETYPE
names it).  Under another numpy or BLAS build, or on a host whose own core
has no pins, the test skips and names them.  The test never records pins.
`python tests/test_output_pins.py DIR` prints the digests of the current
tree under the core it loads, keyed by that core (DIR must exist and be
empty; set OPENBLAS_CORETYPE to record another core); copy them here by
hand only when an output is meant to change or a core is added.
"""

import contextlib
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from highwaynet.ops import set_blas_threads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The variables perfbench/env.py pins, copied so that tests do not import perfbench.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

DENSE = {"name": "synthetic", "count": 600, "seed": 5}  # evaluate takes 512 + 88
CIFAR = {"name": "cifar10", "paths": ["cifar.bin"]}  # written by save_cifar_binary
IDX = {"name": "mnist", "images": "digits.idx3", "labels": "digits.idx1"}  # written by save_idx
HIGHWAY = {"kind": "highway", "depth": 4, "width": 12, "activation": "relu"}
CONV = {"kind": "conv-highway", "depth": 2, "image_shape": [3, 32, 32], "activation": "relu"}
SGD = {"lr0": 0.05, "momentum": 0.9, "decay": 0.95, "epochs": 2, "batch_size": 32}
SEARCH = {"trials": 3, "epochs": 2, "batch_size": 32}
CONV_SEARCH = {"trials": 2, "epochs": 1, "batch_size": 16}

# (output directory, command, extra arguments, config)
JOBS = (
    ("train-plain", "train", [], {"dataset": DENSE, "arch": {**HIGHWAY, "kind": "plain"},
                                  "sgd": SGD, "seed": 1}),
    ("train-highway", "train", [], {"dataset": DENSE, "arch": HIGHWAY,
                                    "init": {"kind": "he", "gate_bias": -2.0}, "sgd": SGD,
                                    "seed": 2}),
    ("train-highway-depth1", "train", [], {"dataset": DENSE, "arch": {**HIGHWAY, "depth": 1},
                                           "sgd": SGD, "seed": 12}),  # empty body
    ("train-tanh-glorot", "train", [], {"dataset": DENSE, "arch": {**HIGHWAY, "activation": "tanh"},
                                        "init": {"kind": "glorot", "gate_bias": -1.0},
                                        "sgd": SGD, "seed": 3}),
    ("train-idx", "train", [], {"dataset": IDX, "arch": HIGHWAY, "sgd": SGD, "seed": 10}),
    ("train-conv", "train", [], {"dataset": CIFAR, "arch": CONV,
                                 "sgd": {**SGD, "batch_size": 16}, "seed": 4}),
    ("train-diverged", "train", [], {"dataset": DENSE, "arch": HIGHWAY,
                                     "sgd": {**SGD, "lr0": 1e200}, "seed": 5}),
    ("search-jobs1", "search", ["--jobs", "1"], {"dataset": DENSE, "arch": HIGHWAY,
                                                 "search": SEARCH, "seed": 6}),
    ("search-jobs2", "search", ["--jobs", "2"], {"dataset": DENSE, "arch": HIGHWAY,
                                                 "search": SEARCH, "seed": 6}),
    ("search-conv", "search", ["--jobs", "2"], {"dataset": CIFAR, "arch": CONV,
                                                "search": CONV_SEARCH, "seed": 7}),
    ("sweep", "sweep", ["--jobs", "2"], {"dataset": DENSE, "arch": HIGHWAY,
                                         "kinds": ["plain", "highway"], "depths": [2, 3],
                                         "search": {**SEARCH, "trials": 2}, "seed": 8}),
    ("analyze", "analyze", ["--checkpoint", os.path.join("train-highway", "model.ckpt"),
                            "--probe-index", "7"],
     {"dataset": {**DENSE, "count": 1100}, "seed": 2}),  # gate means over 512 + 512 + 76
)

# Digests of the current outputs, recorded under this numpy and BLAS build, per OpenBLAS core.
PINNED_ENVIRONMENT = {"numpy": "2.4.6", "blas": "scipy-openblas", "blas_version": "0.3.31.188.0"}
SKYLAKEX = {
    "analyze/bias_map.csv":
        "eb69138f3193dffc0871f2e8990e218088b60d8baeee57f52f301913c2735435",
    "analyze/block_outputs.csv":
        "fcbbddb6a5d44585692621b302b6976730f783e44d29d44a1a8b4b16ae6e75fb",
    "analyze/exit": 0,
    "analyze/mean_activity.csv":
        "133dc947933edb5aa61e996061890cc58363b6b26035852229c8a4400c09eb8c",
    "analyze/sample_trace.csv":
        "da11a1ff75ec5026560e0e4bf55c98bb3267387fc125298b25f48c07aade22e0",
    "analyze/summary.json":
        "c013b14724e010d24e72194403b7ca0eae81fa7407eef4b52af8df87d13d8e46",
    "data/cifar.bin":
        "3fce6bb61878d9c313ca6ccdc150254a5caf0751ce6e7a6c3c6be733ce76896a",
    "data/digits.idx1":
        "e0e3057bb49025f5bbcd42167f7743ac1983690d1f83dea0193bb565e7860b92",
    "data/digits.idx3":
        "46f01d5e5a2418e317bb3924521828bcc00a82fd6c575b46ee65939f818f763f",
    "search-conv/exit": 0,
    "search-conv/search.csv":
        "9cc775e7828040503eaac1162e2f17379276c05fae33e741c20e82a75f8585ac",
    "search-jobs1/exit": 0,
    "search-jobs1/search.csv":
        "dc9c43e9137b3fbeaf3536b4ea8f0054136621dc03dd5b6f7678cbe9818d5c2c",
    "search-jobs2/exit": 0,
    "search-jobs2/search.csv":
        "dc9c43e9137b3fbeaf3536b4ea8f0054136621dc03dd5b6f7678cbe9818d5c2c",
    "sweep/exit": 0,
    "sweep/search_highway_2.csv":
        "aad45a9b15d7de5199506790dfef2919dfa0649f3916b100b8db515f326a968e",
    "sweep/search_highway_3.csv":
        "6a7416625626efd1eab55ee423e43903f51160f2db63977bd8ac1533177c26e5",
    "sweep/search_plain_2.csv":
        "1c857e68b2169745d5c6b5707f44b53b9009b714aab9a7f1dd27455500e65d4f",
    "sweep/search_plain_3.csv":
        "5a0fbfcc5d89b5747c987ea4f17616c8252ba3ccb6715e2421e6b80ae57c175a",
    "sweep/sweep.csv":
        "2bc4699d4c12940b8eacb57c45219354b3ba2b27235ee9233c2ba84eb25feb19",
    "train-conv/exit": 0,
    "train-conv/log.csv":
        "b2976f4f2a5e52b000b34850e78ebe77492d7a998e45762ef176ac3fb8494681",
    "train-conv/model.ckpt":
        "3e8dfbb4fa1e5d44e76dd06441693a861379045cd51600a9daa4c3a09e8b1970",
    "train-diverged/exit": 3,
    "train-diverged/log.csv":
        "c5ad0867aeb289d90a9ea4a16f40f4c6ad6cf2e4572f12bb4742013c46f6682b",
    "train-diverged/model.ckpt":
        "b0e4ee3e28ab1fbe070a7f7a7527ebeb5b9b044c619aa7f59bc85bcb3444d863",
    "train-highway-depth1/exit": 0,
    "train-highway-depth1/log.csv":
        "28f756ec85ea7a82486bb9ede18662461fc194e6ce40beff40a3bf11be150c66",
    "train-highway-depth1/model.ckpt":
        "8f7b6c38777686e7ed5190bf8857f58064023bb9758902b5dbbc4a567c87fd30",
    "train-highway/exit": 0,
    "train-highway/log.csv":
        "5db633ef026c589dee59f37bfedc9b4feee6399ee6063b9c22283bad1a215a13",
    "train-highway/model.ckpt":
        "f65bbe70a2c984c13e0159d28b62b2cbea3c4599533f96fe931ab0be952c68c1",
    "train-idx/exit": 0,
    "train-idx/log.csv":
        "d9088cd8a4149c69bcf411582badf126f54694a1f98f57a6417dd842d035c494",
    "train-idx/model.ckpt":
        "5665af9b476647c3c1189475b9b26576a34c2794ec3371c08ebf0f0d31fbcf71",
    "train-plain/exit": 0,
    "train-plain/log.csv":
        "0ebe64eab15c1afd085c34cb45f3330e12aedff97dd60a35c820034df59db133",
    "train-plain/model.ckpt":
        "09b682bf36046e998d56aa4f4b2a2c8eabe52526cf208e30184800952ab46771",
    "train-tanh-glorot/exit": 0,
    "train-tanh-glorot/log.csv":
        "e9918337a0313b63310b4e6423c20f96cc0d1934cefc398b7dfcf296463777da",
    "train-tanh-glorot/model.ckpt":
        "70d5ffdda7dfb088d69dc7d3ad690fa8c183aef8a200d3c84cd124525c7d1018",
}
# Under the Haswell kernels the GEMMs sum in another order.  The data files, the exit codes,
# the diverged run's log and three of the sweep's search tables keep SkylakeX's digests.
HASWELL = {
    **SKYLAKEX,
    "analyze/bias_map.csv":
        "ed3a59b13906fd3d8966fdcb4f4c8cbe26eb0f0d1e7e31a26a68ba2d558902dc",
    "analyze/block_outputs.csv":
        "822e28e425a327913967365f1f4be5d73673805ae64fb229fc62a190f957a54b",
    "analyze/mean_activity.csv":
        "fd15a7a594f5791eb8c001b8b6a301a0dc787ccabdc1133ce4f5114247b0baa3",
    "analyze/sample_trace.csv":
        "485550727accb1681cdc94ce9f833445f63554184807c5365bf23bf6cf59ef73",
    "analyze/summary.json":
        "18a2da9f1e4ac8e06c04b0b2d34f2d95cda283b8105e4c2b310f2bc6ee7ce4ca",
    "search-conv/search.csv":
        "32e4daed2a6df0b36e65d7e50bf901470b72cc9191c8a01dcd3520315c85e737",
    "search-jobs1/search.csv":
        "49b47ea94e0109b543923eacd96f6ede40d57f176c03bdaf02565d88954ef3d4",
    "search-jobs2/search.csv":
        "49b47ea94e0109b543923eacd96f6ede40d57f176c03bdaf02565d88954ef3d4",
    "sweep/search_highway_3.csv":
        "1588b5d84f99e0e19f23e46b8704de9f7d5bf6b23ec2832db2e9f27ec3283f47",
    "sweep/sweep.csv":
        "e4f82cbc98697e53b6ac7d38bdd45c4cedb6e1ac80862ee7da79334d2396c916",
    "train-conv/log.csv":
        "541c1605bbd8b384992ebe0bc1c2e561e042a51094f96a4da82d266059458570",
    "train-conv/model.ckpt":
        "0b5827c4c026d4301b5d4cc855049e4b0d86ddca22746b5152c5d69ff4ae9e00",
    "train-diverged/model.ckpt":
        "a0d97e2ebb2e0359d15e94b083ca64dbdea353aa2012575507616e73c2581184",
    "train-highway-depth1/log.csv":
        "76a1bdda42bd14730b8a6039088df43457a17b28790d1e4eb64b7d0e1e56782c",
    "train-highway-depth1/model.ckpt":
        "fef0e18db24d4529ebc3cc2a01af87e93f690154a79aa600cebc6d3c5445581b",
    "train-highway/log.csv":
        "9356cf250227dde3a1d59487953f1752853b72c9218c2a00df09aaf0b7322e85",
    "train-highway/model.ckpt":
        "0705d461c436871384375b132491ca12003f4f62ff45ef56d1eb9e1e43f8af53",
    "train-idx/log.csv":
        "1c59f66b6e55a01ffabfc67b8675e1bc6fa84e0183ac6d0f356681af5b8c0c07",
    "train-idx/model.ckpt":
        "7e092d6b4a9c8308fd43ddef657c5c43b94e6fd5a2c081c1702bd960314f1fe3",
    "train-plain/log.csv":
        "2a39f560aff8d82e577f5c90254f02b22f87a04aefeab5765d5299711886908d",
    "train-plain/model.ckpt":
        "cdeb8a90cfa9f2950afa7483250df2e76a27ac6b1a3bce7f8e380c15f52b031b",
    "train-tanh-glorot/log.csv":
        "8301e4ecee559ea64fe66f53aa6e7ca6821dc85a641a5c1e3c5b130180afcac7",
    "train-tanh-glorot/model.ckpt":
        "bf0e0505b06c0a8ed144a6ab508c4186e79071ef51dcf6301b54125b88e74895",
}
PINS = {"SkylakeX": SKYLAKEX, "Haswell": HASWELL}


def environment() -> dict:
    """numpy's version and the BLAS build it was compiled against, as the manifest names them."""
    blas = set_blas_threads(1)
    return {"numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"]}


def core() -> str | None:
    """The OpenBLAS core this process loaded, which picks the GEMM kernels."""
    return set_blas_threads(1)["core"]


# One GEMM under a forced core: a host that lacks the core's instructions dies on it, or
# OpenBLAS falls back to another core and names that one.
PROBE = ("import numpy as np; from highwaynet.ops import set_blas_threads; "
         "np.ones((64, 64)) @ np.ones((64, 64)); print(set_blas_threads(1)['core'])")


def loads(name: str, env: dict) -> bool:
    """Whether this host runs OpenBLAS's kernels for the core `name`."""
    done = subprocess.run([sys.executable, "-c", PROBE], env={**env, "OPENBLAS_CORETYPE": name},
                          capture_output=True, text=True, timeout=120)
    return done.returncode == 0 and done.stdout.strip() == name


def _digest(path) -> str:
    with open(path, "rb") as f:
        raw = f.read()
    if os.path.basename(path) == "log.csv":  # drop the wall-time column
        raw = b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in raw.splitlines())
    return hashlib.sha256(raw).hexdigest()


def run_jobs(workdir) -> dict:
    """Write the data files and run JOBS in workdir; returns the digest of
    each data file, and each job's exit code and the digest of each file it
    wrote, less its manifest."""
    from highwaynet.cli import main
    from highwaynet.data import Dataset, save_cifar_binary, save_idx, synthetic_digits
    from highwaynet.ops import Rng

    os.chdir(workdir)
    rng = Rng(9)
    save_cifar_binary(Dataset(rng.uniform(size=(64, 3072)), rng.integers(10, size=64), 10,
                              "cifar10"), CIFAR["paths"][0])
    digits = synthetic_digits(DENSE["count"], seed=11)  # written image-shaped, read back flat
    save_idx(Dataset(digits.inputs.reshape(-1, 1, 28, 28), digits.labels, 10, "idx"),
             IDX["images"], IDX["labels"])
    digests = {f"data/{file}": _digest(file) for file in (*CIFAR["paths"], IDX["images"],
                                                          IDX["labels"])}
    for name, command, extra, cfg in JOBS:
        with open(f"{name}.json", "w") as f:
            json.dump(cfg, f)
        with contextlib.redirect_stdout(sys.stderr):
            digests[f"{name}/exit"] = main([command, "--config", f"{name}.json",
                                            "--out-dir", name, *extra])
        for file in sorted(os.listdir(name)):
            if file != "manifest.json":
                digests[f"{name}/{file}"] = _digest(os.path.join(name, file))
    return digests


def test_outputs_match_the_pins(tmp_path):
    """The jobs run once under each recorded core that this host can load."""
    here, host = environment(), core()
    if here != PINNED_ENVIRONMENT or host not in PINS:
        pytest.skip(f"pins recorded under {PINNED_ENVIRONMENT} for the OpenBLAS cores "
                    f"{sorted(PINS)}, this environment is {here} on the core {host}")
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for name, pins in PINS.items():
        if name != host and not loads(name, env):
            continue
        workdir = tmp_path / name
        workdir.mkdir()
        done = subprocess.run([sys.executable, os.path.abspath(__file__), str(workdir)],
                              env={**env, "OPENBLAS_CORETYPE": name}, capture_output=True,
                              text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        (loaded, digests), = json.loads(done.stdout).items()
        assert loaded == name
        changed = sorted(k for k in set(pins) | set(digests) if pins.get(k) != digests.get(k))
        assert not changed, f"outputs under {name} differ from their pins: {changed}"


if __name__ == "__main__":
    if len(sys.argv) != 2 or not os.path.isdir(sys.argv[1]) or os.listdir(sys.argv[1]):
        sys.exit("usage: python tests/test_output_pins.py EMPTY_DIR")
    digests = run_jobs(sys.argv[1])
    print(json.dumps({core(): digests}, indent=4, sort_keys=True))
