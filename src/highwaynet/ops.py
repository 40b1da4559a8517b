"""Dense float64 tensor ops, activations, and a seeded counter-based RNG.

Everything downstream (layers, training, search) builds on these few
functions.  All math is done in 64-bit floats so that the finite-difference
gradient checks in the test suite can use tight tolerances.
"""

from __future__ import annotations

import ctypes
import glob
import numbers
import os

import numpy as np

ACTIVATIONS = ("relu", "tanh", "identity")
_OPENBLAS = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")


class ShapeError(ValueError):
    """Raised when tensor shapes do not line up for an operation."""


def require_int(name: str, value, least: int | None = 1):
    """value, or a ValueError naming it unless it is an integer >= least
    (numpy's pass, bool not; least None takes any integer)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def require_counts(owner, *names: str, least: int = 1) -> None:
    """require_int on each named attribute of owner."""
    for name in names:
        require_int(name, getattr(owner, name), least)


def check_paths(**paths) -> None:
    """A TypeError naming the first argument that is not a str or
    os.PathLike path: open() would take an integer as a file descriptor, and
    close it when done."""
    for name, path in paths.items():
        if not isinstance(path, (str, os.PathLike)):
            raise TypeError(f"{name} must be a str or os.PathLike path, got {path!r}")


def write_csv(path, header, rows) -> None:
    """The one CSV writer: the header's names, then one line per row, each
    cell spelled by str, so a float (a numpy scalar too) is its shortest
    repr and reads back exactly."""
    check_paths(path=path)
    with open(path, "w") as f:
        f.writelines(",".join(map(str, cells)) + "\n" for cells in (header, *rows))


def set_blas_threads(count: int) -> dict:
    """Set numpy's OpenBLAS, if a setter is found, to count threads, also for spawned processes;
    return the build's name and version, OpenBLAS core and count in force, None if unknown."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config
        blas = {}
    info = dict(name=blas.get("name"), version=blas.get("version"), core=None, threads=None)
    stem = str(info["name"]).replace("-", "_")  # scipy-openblas ships libscipy_openblas64_-*.so
    for lib in map(ctypes.CDLL, sorted(glob.glob(os.path.dirname(np.__file__) + f".libs/*{stem}*"))):
        for call in (s.format for s in _OPENBLAS if hasattr(lib, s.format("set_num_threads"))):
            getattr(lib, call("set_num_threads"))(ctypes.c_int(count))
            os.environ["OPENBLAS_NUM_THREADS"] = str(count)
            getattr(lib, call("get_corename")).restype = ctypes.c_char_p
            return {**info, "core": getattr(lib, call("get_corename"))().decode(),
                    "threads": getattr(lib, call("get_num_threads"))()}
    return info


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product with an explicit inner-dimension check, written into
    out if given (the bits of a @ b either way).

    Delegates to numpy; run-to-run deterministic on a fixed platform.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return np.matmul(a, b, out=out)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise.

    With e = e^-|x|, computes 1/(1+e) for x >= 0 and e/(1+e) for x < 0 in
    one branch-free pass: exp never overflows, and the result stays positive
    down to x = -745 (the tanh form 0.5*(1+tanh(x/2)) is exactly 0 by -40).
    -|x| is taken as min(x, -x), which passes a NaN x through with its sign
    bit, as e^x/(1+e^x) would.  The numerator is max(e, [x >= 0]): since
    0 <= e <= 1 that is 1 where x >= 0 and e elsewhere, and a NaN e passes
    through maximum with its payload.  Working in place spares temporaries,
    which cost page faults at batch 512 and at conv sizes.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.empty_like(x)
    np.minimum(x, np.negative(x, out=e), out=e)
    np.exp(e, out=e)
    out = np.greater_equal(x, 0.0, out=np.empty_like(x))
    np.maximum(e, out, out=out)
    e += 1.0
    out /= e
    return out


def apply_activation(x: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise relu / tanh / identity."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        return np.maximum(0.0, x)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "identity":
        return x.copy()
    raise ValueError(f"unknown activation kind: {kind!r}")


def activation_derivative(x_pre: np.ndarray, kind: str) -> np.ndarray:
    """Derivative of the activation, evaluated at the pre-activation.

    relu' at exactly 0 is defined as 0 so gradient tests are deterministic.
    """
    x_pre = np.asarray(x_pre, dtype=np.float64)
    if kind == "relu":
        return (x_pre > 0).astype(np.float64)
    if kind == "tanh":
        t = np.tanh(x_pre)
        t *= t
        return np.subtract(1.0, t, out=t)
    if kind == "identity":
        return np.ones_like(x_pre)
    raise ValueError(f"unknown activation kind: {kind!r}")


# ---------------------------------------------------------------------------
# Seeded RNG: counter-based splitmix64.
#
# The draw at counter position i is mix64(seed + (i+1)*GAMMA), a pure
# function of (seed, i) over uint64 arithmetic, so the integer stream is
# bit-identical on every platform and blocks can be generated vectorized.
# Constants are the standard splitmix64 ones.  A fill is made _BLOCK draws
# at a time and allocates nothing per block: the block, its scratch and the
# counter steps (256 KB each) stay in L2, and uniform turns each block into
# floats while it is there.
# ---------------------------------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_BLOCK = 1 << 15


def _mix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser, in place on uint64 z; scratch (z's shape) is overwritten."""
    for shift, multiplier in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=scratch)
        z *= multiplier
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def derive_seed(master: int, index: int) -> int:
    """Per-trial seed: master XOR splitmix64 of the trial index.

    Documented so partial re-runs of a search reproduce individual trials.
    """
    idx = np.array([((index + 1) * 0x9E3779B97F4A7C15) & _MASK64], dtype=np.uint64)
    return int(np.uint64(master & _MASK64) ^ _mix64(idx, np.empty_like(idx))[0])


def _sized(size, fill):
    """fill(n) for the n values `size` asks for, shaped by it: one scalar
    for None or (), else an array of shape size (an int or a tuple)."""
    shape = () if size is None else tuple(np.atleast_1d(size)) if not np.isscalar(size) else (size,)
    out = fill(int(np.prod(shape)))
    return out.reshape(shape) if shape else out[0]


class Rng:
    """Single-owner deterministic random stream.

    Same seed reproduces the identical sequence of fills across runs and
    platforms, however the draws are chunked into calls.  Never share one
    instance between threads.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._counter = 0

    def _blocks(self, out: np.ndarray):
        """Fill uint64 out with the next out.size raw draws, yielding each
        _BLOCK-sized view of out as soon as it is drawn; the caller consumes
        every block."""
        n = out.size
        steps = np.arange(1, min(n, _BLOCK) + 1, dtype=np.uint64)
        steps *= _GAMMA
        scratch = np.empty_like(steps)
        for start in range(0, n, _BLOCK):
            block = out[start:start + _BLOCK]
            # seed + (counter + start + i + 1) * GAMMA, mod 2^64
            base = (self.seed + (self._counter + start) * int(_GAMMA)) & _MASK64
            np.add(steps[:block.size], np.uint64(base), out=block)
            yield _mix64(block, scratch[:block.size])
        self._counter += n

    def _raw(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.uint64)
        for _ in self._blocks(out):
            pass
        return out

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        """Uniform draws in [low, high); scalar ndarray if size is None.
        Each block of draws becomes floats in place, in the result's memory."""
        def fill(n):
            u = np.empty(n)
            for raw in self._blocks(u.view(np.uint64)):
                raw >>= np.uint64(11)
                block = np.multiply(raw, 2.0 ** -53, out=raw.view(np.float64))
                block *= high - low
                block += low
            return u
        return _sized(size, fill)

    def normal(self, mean: float = 0.0, std: float = 1.0, size=None) -> np.ndarray:
        """Gaussian draws via Box-Muller.

        Each draw consumes exactly two counter positions, so a fill is
        bit-identical however the calls are chunked.
        """
        def fill(n):
            block = self._raw(2 * n)
            # u1 in (0, 1] so log never sees zero
            u1 = ((block[0::2] >> np.uint64(11)) + np.uint64(1)) * (2.0 ** -53)
            u2 = (block[1::2] >> np.uint64(11)) * (2.0 ** -53)
            return mean + std * (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))
        return _sized(size, fill)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): argsort of random keys."""
        return np.argsort(self._raw(n), kind="stable")

    def integers(self, upper: int, size=None) -> np.ndarray:
        """Draws in [0, upper) by modular reduction (upper << 2^64)."""
        v = _sized(size, lambda n: (self._raw(n) % np.uint64(upper)).astype(np.int64))
        return v if isinstance(v, np.ndarray) else int(v)

    def choice(self, options):
        """Pick one element of a sequence."""
        return options[self.integers(len(options))]
