import os

import numpy as np
import pytest

from highwaynet.ops import (
    _BLOCK,
    Rng,
    ShapeError,
    activation_derivative,
    apply_activation,
    derive_seed,
    matmul,
    set_blas_threads,
    sigmoid,
)


class TestMatmul:
    def test_identity(self):
        out = matmul(np.eye(2), np.array([[3.0], [4.0]]))
        assert np.array_equal(out, np.array([[3.0], [4.0]]))

    def test_hand_product(self):
        out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]]))
        assert np.array_equal(out, np.array([[17.0], [39.0]]))

    def test_one_dimensional_operand_refused(self):
        with pytest.raises(ShapeError, match=r"2-d operands, got \(3,\) and \(3, 2\)"):
            matmul(np.zeros(3), np.zeros((3, 2)))

    def test_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            matmul(np.zeros((2, 3)), np.zeros((4, 5)))

    # (rows of da, columns of x) of the sweep's weight gradients da.T @ x: the
    # input layer's at 784 inputs, the gated and plain bodies', and the head's dz.T @ x
    @pytest.mark.parametrize("rows, cols", [(50, 784), (71, 784), (50, 50), (71, 71),
                                            (10, 50), (10, 71)])
    @pytest.mark.parametrize("batch", [1, 7, 16, 64, 512])
    def test_out_view_keeps_the_bits(self, rows, cols, batch):
        """A gradient written into a view of a flat vector that starts off a
        64-byte boundary has the bits of the product and sum made fresh."""
        rng = Rng(124 + batch)
        da, x = rng.normal(size=(batch, rows)), rng.normal(size=(batch, cols))
        flat = np.empty(rows * cols + rows + 8)
        start = next(i for i in range(1, 8) if (flat.ctypes.data + 8 * i) % 64)
        weight = flat[start:start + rows * cols].reshape(rows, cols)
        bias = flat[start + rows * cols:start + rows * cols + rows]
        assert matmul(da.T, x, out=weight) is weight
        da.sum(axis=0, out=bias)
        assert weight.tobytes() == (da.T @ x).tobytes()
        assert bias.tobytes() == da.sum(axis=0).tobytes()

    def test_associativity(self):
        rng = Rng(123)
        for _ in range(10):
            a = rng.normal(size=(4, 5))
            b = rng.normal(size=(5, 3))
            c = rng.normal(size=(3, 6))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            rel = np.abs(left - right).max() / max(np.abs(left).max(), 1e-12)
            assert rel < 1e-9


def two_branch_sigmoid(x):
    """The masked reference: 1/(1+e^-x) where x >= 0, e^x/(1+e^x) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def where_numerator_sigmoid(x):
    """The earlier one-pass form, whose numerator was np.where(x >= 0, 1.0, e)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


SIGMOID_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                          40.0, -40.0, 745.0, -745.0, 800.0, -800.0])
# NaNs with payloads and either sign, then the subnormal extremes of each sign
SIGMOID_ODD_BITS = np.concatenate([
    np.array([0x7FF8000000000123, 0xFFF800000000BEEF, 0x7FF0000000000001,
              0xFFF0000000000ABC], dtype=np.uint64).view(np.float64),
    [5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308]])


SIGMOID_INPUTS = pytest.mark.parametrize("x", [
    np.array(-2.5),
    SIGMOID_EDGES.reshape(3, 4),
    SIGMOID_EDGES.reshape(1, 3, 2, 2),
    SIGMOID_ODD_BITS.reshape(2, 4),
    np.linspace(-800.0, 800.0, 64 * 50).reshape(64, 50),
    Rng(5).normal(std=40.0, size=(512, 50)),
    Rng(6).normal(-2.0, 2.0, size=(64, 3, 32, 32)),
], ids=["0-d", "edges-2d", "edges-4d", "nan-payloads-subnormals", "grid-64x50",
        "random-512x50", "random-64x3x32x32"])


def assert_same_bits(got, want):
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSetBlasThreads:
    def test_sets_and_reports_the_count(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        try:
            two = set_blas_threads(2)
        finally:
            one = set_blas_threads(1)
        assert set(one) == {"name", "version", "core", "threads"}
        assert one["name"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if one["threads"] is None:
            pytest.skip(f"no OpenBLAS thread setter found for {one}")
        assert (two["threads"], one["threads"]) == (2, 1)
        assert isinstance(one["core"], str) and one["core"] == two["core"]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_another_blas_is_left_alone(self, monkeypatch):
        build = {"Build Dependencies": {"blas": {"name": "accelerate", "version": "14"}}}
        monkeypatch.setattr(np, "show_config", lambda mode: build)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert set_blas_threads(3) == {"name": "accelerate", "version": "14", "core": None,
                                       "threads": None}
        assert "OPENBLAS_NUM_THREADS" not in os.environ


class TestSigmoid:
    @SIGMOID_INPUTS
    def test_bits_equal_two_branch_reference(self, x):
        assert_same_bits(sigmoid(x), two_branch_sigmoid(x))

    @SIGMOID_INPUTS
    def test_bits_equal_where_numerator_form(self, x):
        assert_same_bits(sigmoid(x), where_numerator_sigmoid(x))

    def test_strictly_positive_at_minus_40(self):
        assert sigmoid(np.array(-40.0)) > 0.0

    def test_zero(self):
        assert sigmoid(np.array(0.0)) == 0.5

    def test_minus_two(self):
        # 1/(1+e^2) evaluated in extended precision
        assert sigmoid(np.array(-2.0)) == pytest.approx(0.11920292202211755, abs=1e-15)

    def test_minus_ten(self):
        assert sigmoid(np.array(-10.0)) == pytest.approx(4.5397868702434395e-05, rel=1e-12)

    def test_complement_identity(self):
        x = np.concatenate([np.linspace(-700, 700, 201), [-30.0, 30.0, 0.0]])
        total = sigmoid(x) + sigmoid(-x)
        assert np.abs(total - 1.0).max() < 1e-12

    def test_extreme_inputs_do_not_overflow(self):
        out = sigmoid(np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_open_interval(self):
        out = sigmoid(np.linspace(-30, 30, 101))
        assert np.all(out > 0.0) and np.all(out < 1.0)


class TestActivations:
    def test_relu_sign_cases(self):
        assert np.array_equal(apply_activation(np.array([1.0, -1.0, 0.0]), "relu"),
                              np.array([1.0, 0.0, 0.0]))

    def test_tanh_odd(self):
        assert apply_activation(np.array([0.0]), "tanh")[0] == 0.0

    def test_identity(self):
        x = np.array([2.5, -3.0])
        assert np.array_equal(apply_activation(x, "identity"), x)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="softplus"):
            apply_activation(np.zeros(1), "softplus")

    def test_unknown_derivative_kind(self):
        with pytest.raises(ValueError, match="softplus"):
            activation_derivative(np.zeros(1), "softplus")

    def test_relu_derivative_sign_cases(self):
        assert np.array_equal(activation_derivative(np.array([2.0, -2.0]), "relu"),
                              np.array([1.0, 0.0]))

    def test_relu_derivative_at_zero_is_zero(self):
        # documented subgradient choice
        assert activation_derivative(np.array([0.0]), "relu")[0] == 0.0

    def test_tanh_derivative_at_zero(self):
        assert activation_derivative(np.array([0.0]), "tanh")[0] == 1.0

    @pytest.mark.parametrize("kind, value, derivative", [
        ("relu", lambda x: np.maximum(0.0, x), lambda x: (x > 0).astype(np.float64)),
        ("tanh", np.tanh, lambda x: 1.0 - np.tanh(x) * np.tanh(x)),
        ("identity", lambda x: x.copy(), np.ones_like),
    ], ids=["relu", "tanh", "identity"])
    def test_bits_at_edges(self, kind, value, derivative):
        """Pinned against the written expressions; tobytes sees the sign of a
        zero (relu(-0.0) is -0.0, as np.maximum(0.0, x) gives) and of a NaN."""
        x = SIGMOID_EDGES.reshape(3, 4)
        assert apply_activation(x, kind).tobytes() == value(x).tobytes()
        assert activation_derivative(x, kind).tobytes() == derivative(x).tobytes()

    @pytest.mark.parametrize("kind", ["relu", "tanh", "identity"])
    def test_derivative_matches_finite_difference(self, kind):
        eps = 1e-6
        x = np.linspace(-3.0, 3.0, 601)
        if kind == "relu":
            x = x[np.abs(x) > 1e-3]  # bounded away from the kink
        fd = (apply_activation(x + eps, kind) - apply_activation(x - eps, kind)) / (2 * eps)
        assert np.abs(fd - activation_derivative(x, kind)).max() < 1e-6


class TestRng:
    def test_first_draws_are_pinned(self):
        """The stream itself, for seed 2026: a change to _raw or to a draw's
        arithmetic fails here, where same-code comparisons cannot see it."""
        r = Rng(2026)
        assert r.uniform(-1.0, 2.0, size=3).tolist() == [
            1.5735626690336546, 0.41488215182437127, 1.0020348656486537]
        assert r.normal(0.5, 2.0, size=(2, 2)).tolist() == [
            [1.2143882556008603, 2.029927668832457],
            [-0.17033368128678417, -1.2478647708401482]]
        assert r.integers(10, size=4).tolist() == [0, 2, 7, 1]
        assert r.permutation(6).tolist() == [0, 1, 2, 4, 3, 5]
        assert r.uniform() == 0.6518054188393808
        assert r.normal() == 0.5006775583643748
        assert r.integers(7) == 1

    @pytest.mark.parametrize("method", ["uniform", "normal", "integers"])
    @pytest.mark.parametrize("size, shape", [(None, ()), ((), ()), (3, (3,)), (np.int64(3), (3,)),
                                             ([2, 3], (2, 3)), ((0, 3), (0, 3))])
    def test_size_forms(self, method, size, shape):
        args = (5,) if method == "integers" else ()
        value = getattr(Rng(8), method)(*args, size=size)
        assert np.shape(value) == shape
        if shape == ():
            assert type(value) is (int if method == "integers" else np.float64)

    def test_same_seed_identical_fills(self):
        a = Rng(987).normal(size=(10, 7))
        b = Rng(987).normal(size=(10, 7))
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).normal(size=100), Rng(2).normal(size=100))

    def test_fills_independent_of_chunking(self):
        whole = Rng(42).normal(size=12)
        r = Rng(42)
        parts = np.concatenate([r.normal(size=5), r.normal(size=7)])
        assert np.array_equal(whole, parts)

    def test_draws_past_the_first_block_are_pinned(self):
        """Values from the far side of one or more fill blocks, recorded
        from the unblocked fill."""
        assert Rng(2026).uniform(size=40000)[-3:].tolist() == [
            0.47528820096039726, 0.10885676511954101, 0.5194879563534827]
        assert Rng(2026).normal(size=20000)[-2:].tolist() == [
            -1.289808978235543, -2.0902811227156057]
        assert Rng(2026).integers(1000, size=70000)[-3:].tolist() == [736, 780, 969]
        assert Rng(2026).permutation(70000)[-3:].tolist() == [1295, 30658, 26977]

    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_raw_is_splitmix64_of_the_counter(self, n):
        """Draw i (from 0) is splitmix64 of seed + (i+1)*gamma, computed here
        with Python integers, at the ends of every block."""
        mask = (1 << 64) - 1

        def splitmix64(z):
            z &= mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)
        seed = 2**64 - 12345
        raw = Rng(seed)._raw(n)
        points = sorted({i for b in range(0, n, _BLOCK) for i in (b, b + 1, b + _BLOCK - 1)
                         if i < n} | {n - 1})
        assert [int(raw[i]) for i in points] == [
            splitmix64(seed + (i + 1) * 0x9E3779B97F4A7C15) for i in points]

    @pytest.mark.parametrize("method", ["uniform", "normal", "integers", "permutation"])
    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_block_fills_independent_of_chunking(self, method, n):
        """A fill split into two calls at an unaligned point gives the same
        bits and leaves the stream at the same place (a permutation's keys
        are split instead: a permutation of n is not two shorter ones)."""
        def fill(r, size):
            if method == "permutation":
                return r._raw(size)
            return getattr(r, method)(*((7,) if method == "integers" else ()), size=size)
        whole_rng, split_rng = Rng(77), Rng(77)
        whole = fill(whole_rng, n)
        split = np.concatenate([fill(split_rng, n // 3 + 1), fill(split_rng, n - n // 3 - 1)])
        if method == "permutation":
            whole = np.argsort(whole, kind="stable")
            split = np.argsort(split, kind="stable")
            assert np.array_equal(whole, Rng(77).permutation(n))
        assert whole.tobytes() == split.tobytes()
        assert whole_rng.uniform() == split_rng.uniform()

    def test_uniform_bounds(self):
        u = Rng(3).uniform(-10.0, -1.0, size=10_000)
        assert u.min() >= -10.0 and u.max() < -1.0

    def test_normal_moments(self):
        z = Rng(5).normal(size=200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_permutation_is_permutation(self):
        p = Rng(11).permutation(100)
        assert np.array_equal(np.sort(p), np.arange(100))

    def test_derive_seed_is_deterministic_and_spread(self):
        seeds = {derive_seed(1234, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_seed(1234, 3) == derive_seed(1234, 3)

    def test_integers_in_range(self):
        v = Rng(9).integers(10, size=1000)
        assert v.min() >= 0 and v.max() <= 9
