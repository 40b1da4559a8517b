import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import (
    check_layer_gradients,
    max_relative_error,
    numerical_gradient,
    relu_preactivations_clear,
)
from highwaynet import checkpoint, init, search
from highwaynet.init import InitScheme, build_network, init_network
from highwaynet.layers import (
    _BLOCK_MACS,
    BODY_KINDS,
    ConvHighwayLayer,
    HighwayLayer,
    Network,
    PlainLayer,
    SoftmaxHead,
    block_combine,
    count_parameters,
    network_forward_backward,
    network_shapes,
)
from highwaynet.ops import (
    Rng,
    ShapeError,
    activation_derivative,
    matmul,
    sigmoid,
)
from test_ops import SIGMOID_EDGES
from test_output_pins import PINNED_ENVIRONMENT, environment


def random_highway(rng: Rng, n: int = 4, activation: str = "tanh") -> HighwayLayer:
    return HighwayLayer(rng.normal(size=(n, n)), rng.normal(size=n),
                        rng.normal(size=(n, n)), rng.normal(size=n), activation)


def random_plain(rng: Rng, out_w: int = 4, in_w: int = 3, activation: str = "tanh") -> PlainLayer:
    return PlainLayer(rng.normal(size=(out_w, in_w)), rng.normal(size=out_w), activation)


class TestBlockCombine:
    def test_carry_case(self):
        y = block_combine(np.array([3.0, -1.0]), np.array([0.0, 0.0]), np.array([5.0, 7.0]))
        assert np.array_equal(y, np.array([5.0, 7.0]))

    def test_transform_case(self):
        y = block_combine(np.array([3.0, -1.0]), np.array([1.0, 1.0]), np.array([5.0, 7.0]))
        assert np.array_equal(y, np.array([3.0, -1.0]))

    def test_quarter_blend(self):
        y = block_combine(np.array([2.0]), np.array([0.25]), np.array([6.0]))
        assert y[0] == pytest.approx(5.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            block_combine(np.zeros(2), np.zeros(3), np.zeros(2))

    def test_bits_at_edges(self):
        """Every (h, t, x) triple of edge values, against the expression the
        blend is written as; tobytes sees the sign of a zero and of a NaN."""
        h, t, x = (v.ravel() for v in np.meshgrid(*[SIGMOID_EDGES] * 3, indexing="ij"))
        with np.errstate(invalid="ignore"):
            want = h * t + x * (1.0 - t)
            assert block_combine(h, t, x).tobytes() == want.tobytes()


class TestPlainLayer:
    def test_identity_layer(self):
        layer = PlainLayer(np.eye(2), np.zeros(2), "identity")
        y, _ = layer.forward(np.array([[1.0, 2.0]]))
        assert np.array_equal(y, np.array([[1.0, 2.0]]))

    def test_hand_relu(self):
        layer = PlainLayer(np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2), "relu")
        y, _ = layer.forward(np.array([[1.0, 2.0]]))
        assert np.array_equal(y, np.array([[3.0, 0.0]]))

    def test_identical_rows_give_identical_outputs(self):
        layer = random_plain(Rng(0))
        x = np.tile(Rng(1).normal(size=(1, 3)), (2, 1))
        y, _ = layer.forward(x)
        assert np.array_equal(y[0], y[1])

    def test_gradients_match_finite_differences(self):
        for seed in range(5):
            rng = Rng(seed)
            layer = random_plain(rng)
            x = rng.normal(size=(6, 3))
            proj = rng.normal(size=(6, 4))
            assert check_layer_gradients(layer, x, proj) < 1e-6


class TestHighwayForward:
    def test_hand_example(self):
        layer = HighwayLayer(np.eye(2), np.zeros(2), np.zeros((2, 2)), np.zeros(2), "relu")
        y, cache = layer.forward(np.array([[1.0, -1.0]]))
        assert np.array_equal(cache["t"], np.array([[0.5, 0.5]]))
        assert np.array_equal(cache["h"], np.array([[1.0, 0.0]]))
        assert np.array_equal(y, np.array([[1.0, -0.5]]))

    def test_saturated_off_passes_input(self):
        rng = Rng(4)
        layer = HighwayLayer(rng.normal(size=(2, 2)), rng.normal(size=2),
                             np.zeros((2, 2)), np.full(2, -20.0), "relu")
        x = np.array([[2.0, 3.0]])
        y, _ = layer.forward(x)
        assert np.abs(y - x).max() < 1e-3

    def test_zero_width_batch(self):
        layer = random_highway(Rng(2))
        y, _ = layer.forward(np.zeros((0, 4)))
        assert y.shape == (0, 4)

    def test_output_is_convex_combination_per_unit(self):
        for seed in range(10):
            rng = Rng(seed)
            layer = random_highway(rng, activation="tanh")
            x = rng.normal(size=(8, 4))
            y, cache = layer.forward(x)
            lo = np.minimum(cache["h"], x)
            hi = np.maximum(cache["h"], x)
            assert np.all(y >= lo - 1e-12) and np.all(y <= hi + 1e-12)

    def test_row_permutation_permutes_outputs(self):
        rng = Rng(6)
        layer = random_highway(rng)
        x = rng.normal(size=(5, 4))
        perm = Rng(7).permutation(5)
        y, _ = layer.forward(x)
        y_perm, _ = layer.forward(x[perm])
        assert np.array_equal(y_perm, y[perm])

    @pytest.mark.parametrize("kind", ["highway", "conv-highway"])
    def test_gated_cache_holds_only_what_backward_reads(self, kind):
        rng = Rng(15)
        if kind == "highway":
            layer, x = random_highway(rng), rng.normal(size=(3, 4))
        else:
            layer = ConvHighwayLayer(rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2),
                                     rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2), "tanh")
            x = rng.normal(size=(3, 2, 5, 5))
        _, cache = layer.forward(x)
        assert sorted(cache) == ["a", "h", "t", "x"]

    def test_width_disagreement_rejected(self):
        with pytest.raises(ShapeError, match=r"tensor 5: shape \(2,\), wanted \(3,\)"):
            Network("highway", [np.zeros((3, 4)), np.zeros(3),
                                np.zeros((3, 3)), np.zeros(3), np.zeros((3, 3)), np.zeros(2),
                                np.zeros((2, 3)), np.zeros(2)])


class TestHighwayBackward:
    def test_saturated_gate_gives_identity_jacobian(self):
        rng = Rng(8)
        layer = HighwayLayer(rng.normal(size=(3, 3)), rng.normal(size=3),
                             np.zeros((3, 3)), np.full(3, -20.0), "tanh")
        x = rng.normal(size=(4, 3))
        _, cache = layer.forward(x)
        upstream = rng.normal(size=(4, 3))
        dL_dx, _ = layer.backward(cache, upstream)
        assert np.abs(dL_dx - upstream).max() < 1e-3

    def test_zero_upstream_gives_zero_gradients(self):
        rng = Rng(9)
        layer = random_highway(rng)
        x = rng.normal(size=(4, 4))
        _, cache = layer.forward(x)
        dL_dx, grads = layer.backward(cache, np.zeros((4, 4)))
        assert np.all(dL_dx == 0.0)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_gradients_match_finite_differences(self):
        for seed in range(5):
            rng = Rng(seed + 50)
            layer = random_highway(rng)
            x = rng.normal(size=(6, 4))
            proj = rng.normal(size=(6, 4))
            assert check_layer_gradients(layer, x, proj) < 1e-6

    def test_relu_gradients_away_from_kinks(self):
        checked = 0
        seed = 0
        while checked < 5:
            rng = Rng(1000 + seed)
            seed += 1
            layer = random_highway(rng, activation="relu")
            x = rng.normal(size=(6, 4))
            if not relu_preactivations_clear(layer, x):
                continue
            proj = rng.normal(size=(6, 4))
            assert check_layer_gradients(layer, x, proj) < 1e-6
            checked += 1

    def test_mismatched_upstream_rejected(self):
        layer = random_highway(Rng(3))
        _, cache = layer.forward(Rng(4).normal(size=(5, 4)))
        with pytest.raises(ShapeError):
            layer.backward(cache, np.zeros((6, 4)))


class TestConvHighway:
    def test_saturated_off_passes_input(self):
        rng = Rng(12)
        k = rng.normal(std=0.3, size=(2, 2, 3, 3))
        layer = ConvHighwayLayer(k, rng.normal(size=2),
                                 np.zeros((2, 2, 3, 3)), np.full(2, -20.0), "relu")
        x = rng.normal(size=(2, 2, 5, 5))
        y, _ = layer.forward(x)
        assert np.abs(y - x).max() < 1e-3

    def test_one_by_one_identity_kernel_fixed_point(self):
        c = 3
        k_h = np.zeros((c, c, 1, 1))
        for i in range(c):
            k_h[i, i, 0, 0] = 1.0
        layer = ConvHighwayLayer(k_h, np.zeros(c), np.zeros((c, c, 1, 1)), np.zeros(c),
                                 "identity")
        x = Rng(13).normal(size=(2, c, 4, 4))
        y, cache = layer.forward(x)
        assert np.allclose(cache["t"], 0.5)
        assert np.allclose(y, x)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_spatial_size_preserved(self, k):
        rng = Rng(14)
        layer = ConvHighwayLayer(rng.normal(std=0.2, size=(2, 2, k, k)), np.zeros(2),
                                 rng.normal(std=0.2, size=(2, 2, k, k)), np.zeros(2), "tanh")
        y, _ = layer.forward(rng.normal(size=(3, 2, 7, 7)))
        assert y.shape == (3, 2, 7, 7)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="must be odd"):
            Network("conv-highway", [np.zeros((2, 2, 4, 4)), np.zeros(2),
                                     np.zeros((2, 2, 4, 4)), np.zeros(2),
                                     np.zeros((2, 50)), np.zeros(2)])

    def test_channel_mismatch_rejected(self):
        layer = ConvHighwayLayer(np.zeros((2, 2, 3, 3)), np.zeros(2),
                                 np.zeros((2, 2, 3, 3)), np.zeros(2))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 3, 5, 5)))

    def test_gradients_match_finite_differences(self):
        for seed in range(3):
            rng = Rng(seed + 20)
            layer = ConvHighwayLayer(rng.normal(std=0.4, size=(2, 2, 3, 3)), rng.normal(size=2),
                                     rng.normal(std=0.4, size=(2, 2, 3, 3)), rng.normal(size=2),
                                     "tanh")
            x = rng.normal(size=(2, 2, 5, 5))
            proj = rng.normal(size=(2, 2, 5, 5))
            assert check_layer_gradients(layer, x, proj) < 1e-6

    def test_zero_upstream_gives_zero_gradients(self):
        rng = Rng(21)
        layer = ConvHighwayLayer(rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2),
                                 rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2), "tanh")
        x = rng.normal(size=(1, 2, 4, 4))
        _, cache = layer.forward(x)
        dL_dx, grads = layer.backward(cache, np.zeros_like(x))
        assert np.all(dL_dx == 0.0)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_bias_gradient_is_batch_spatial_sum(self):
        rng = Rng(22)
        layer = ConvHighwayLayer(rng.normal(std=0.4, size=(2, 2, 3, 3)), rng.normal(size=2),
                                 rng.normal(std=0.4, size=(2, 2, 3, 3)), rng.normal(size=2),
                                 "tanh")
        x = rng.normal(size=(3, 2, 5, 5))
        y, cache = layer.forward(x)
        upstream = rng.normal(size=y.shape)
        _, grads = layer.backward(cache, upstream)
        # recompute dL/da the way the derivation states and reduce it
        da = upstream * cache["t"] * activation_derivative(cache["a"], "tanh")
        assert np.allclose(grads["b_H"], da.sum(axis=(0, 2, 3)))
        # and against the finite-difference oracle
        proj = upstream
        def loss():
            out, _ = layer.forward(x)
            return float((out * proj).sum())
        assert max_relative_error(grads["b_H"], numerical_gradient(loss, layer.b_H)) < 1e-6


# Each activation and its derivative as one expression, apart from ops.
REFERENCE_PHI = {
    "relu": (lambda a: np.maximum(0.0, a), lambda a: (a > 0).astype(np.float64)),
    "tanh": (np.tanh, lambda a: 1.0 - np.tanh(a) * np.tanh(a)),
    "identity": (np.copy, np.ones_like),
}


def _reference_gate(x, a, s, g, activation):
    """The gate's forward and chain rule, step by step: (y, cache, da, ds, g*(1-t))."""
    phi, phi_prime = REFERENCE_PHI[activation]
    h = phi(a)
    t = sigmoid(s)
    carry = 1.0 - t
    da = g * t * phi_prime(a)
    ds = g * (h - x) * t * carry
    return h * t + x * carry, {"x": x, "a": a, "h": h, "t": t}, da, ds, g * carry


def reference_plain(layer, x, g):
    """(y, cache, dL/dx, [grads]) of a plain layer, written out in full."""
    phi, phi_prime = REFERENCE_PHI[layer.activation]
    a = matmul(x, layer.W_H.T) + layer.b_H
    da = g * phi_prime(a)
    return phi(a), {"x": x, "a": a}, matmul(da, layer.W_H), [matmul(da.T, x), da.sum(axis=0)]


def reference_highway(layer, x, g):
    """(y, cache, dL/dx, [grads]) of a dense gated layer, written out in full."""
    a = matmul(x, layer.W_H.T) + layer.b_H
    s = matmul(x, layer.W_T.T) + layer.b_T
    y, cache, da, ds, carry = _reference_gate(x, a, s, g, layer.activation)
    grads = [matmul(da.T, x), da.sum(axis=0), matmul(ds.T, x), ds.sum(axis=0)]
    return y, cache, matmul(da, layer.W_H) + matmul(ds, layer.W_T) + carry, grads


def _reference_windows(x, k):
    p = (k - 1) // 2
    padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    return np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))


def _reference_corr2d(x, kernels):
    """Same-size cross-correlation of x with one kernel bank: pad, window and
    im2col x for this bank alone."""
    batch, c_in, height, width = x.shape
    c_out, _, k, _ = kernels.shape
    win = _reference_windows(x, k)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(batch * height * width, c_in * k * k)
    out = cols @ kernels.reshape(c_out, c_in * k * k).T
    return out.reshape(batch, height, width, c_out).transpose(0, 3, 1, 2)


def reference_conv(layer, x, g):
    """(y, cache, dL/dx, [grads]) of a conv gated layer, lowering the input
    once per map."""
    a = _reference_corr2d(x, layer.K_H) + layer.b_H[None, :, None, None]
    s = _reference_corr2d(x, layer.K_T) + layer.b_T[None, :, None, None]
    y, cache, da, ds, carry = _reference_gate(x, a, s, g, layer.activation)
    win = _reference_windows(x, layer.kernel_size)
    grads = [np.einsum("boij,bcijuv->ocuv", da, win), da.sum(axis=(0, 2, 3)),
             np.einsum("boij,bcijuv->ocuv", ds, win), ds.sum(axis=(0, 2, 3))]
    adj_h = np.flip(layer.K_H, axis=(2, 3)).transpose(1, 0, 2, 3)
    adj_t = np.flip(layer.K_T, axis=(2, 3)).transpose(1, 0, 2, 3)
    dL_dx = _reference_corr2d(da, adj_h) + _reference_corr2d(ds, adj_t) + carry
    return y, cache, dL_dx, grads


def assert_same_bits_as(reference, layer, x, rng):
    y, cache = layer.forward(x)
    g = rng.normal(size=y.shape)
    dL_dx, grads = layer.backward(cache, g)
    ref_y, ref_cache, ref_dx, ref_grads = reference(layer, x, g)
    assert sorted(cache) == sorted(ref_cache)
    param_grads = layer.param_grads(cache, g)
    assert list(param_grads) == list(grads)
    pairs = [(y, ref_y), (dL_dx, ref_dx), *((cache[k], ref_cache[k]) for k in ref_cache),
             *zip(grads.values(), ref_grads, strict=True),
             *zip(param_grads.values(), ref_grads, strict=True)]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestGatedLayerBits:
    """The layers against their forward and chain rule written out step by
    step, bit for bit, under every activation: the layers compute in place,
    the references in fresh temporaries."""

    @staticmethod
    def check_highway(activation, batch):
        rng = Rng(600 + batch)
        layer = HighwayLayer(rng.normal(std=0.2, size=(50, 50)), rng.normal(size=50),
                             rng.normal(std=0.2, size=(50, 50)), rng.normal(size=50) - 2.0,
                             activation)
        assert_same_bits_as(reference_highway, layer, rng.normal(size=(batch, 50)), rng)

    @staticmethod
    def check_conv_highway(activation, k, batch):
        rng = Rng(700 + 10 * k + batch)
        layer = ConvHighwayLayer(rng.normal(std=0.3, size=(3, 3, k, k)), rng.normal(size=3),
                                 rng.normal(std=0.3, size=(3, 3, k, k)), rng.normal(size=3) - 1.0,
                                 activation)
        assert_same_bits_as(reference_conv, layer, rng.normal(size=(batch, 3, 9, 11)), rng)

    @pytest.mark.parametrize("batch", [1, 7, 64, 512])
    def test_highway(self, batch):
        self.check_highway("relu", batch)

    @pytest.mark.parametrize("activation", ["tanh", "identity"])
    @pytest.mark.parametrize("batch", [1, 7, 64, 512])
    def test_highway_tanh_identity(self, activation, batch):
        self.check_highway(activation, batch)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_conv_highway(self, k, batch):
        self.check_conv_highway("relu", k, batch)

    @pytest.mark.parametrize("activation", ["tanh", "identity"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("batch", [1, 64])
    def test_conv_highway_tanh_identity(self, activation, k, batch):
        self.check_conv_highway(activation, k, batch)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("batch", [1, 7, 64, 512])
    def test_plain(self, activation, batch):
        rng = Rng(800 + batch)
        layer = PlainLayer(rng.normal(std=0.2, size=(40, 50)), rng.normal(size=40), activation)
        assert_same_bits_as(reference_plain, layer, rng.normal(size=(batch, 50)), rng)


LAYERS_AND_INPUTS = {
    "plain": lambda rng, act: (random_plain(rng, 6, 5, act), rng.normal(size=(7, 5))),
    "highway": lambda rng, act: (random_highway(rng, 5, act), rng.normal(size=(7, 5))),
    "conv-highway": lambda rng, act: (
        ConvHighwayLayer(rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2),
                         rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2), act),
        rng.normal(size=(7, 2, 4, 4))),
}


class TestConvProducts:
    """Every conv GEMM goes through ops.matmul, as the dense ones do, so that
    traced GEMM counts see it, with the bits of the bare product."""

    @pytest.mark.parametrize("shape, k", [((64, 3, 32, 32), 3), ((1, 2, 9, 9), 3),
                                          ((7, 4, 5, 5), 5)])
    def test_correlate_equals_the_bare_product(self, shape, k):
        rng = Rng(830 + shape[0])
        c = shape[1]
        kernels = rng.normal(std=0.3, size=(c, c, k, k))
        layer = ConvHighwayLayer(kernels, np.zeros(c), kernels, np.zeros(c))
        x = rng.normal(size=shape)
        (got,) = layer._correlate(x, kernels)
        assert got.tobytes() == _reference_corr2d(x, kernels).tobytes()

    def test_forward_and_backward_call_matmul(self, monkeypatch):
        """Two maps forward, two adjoints backward."""
        layer, x = LAYERS_AND_INPUTS["conv-highway"](Rng(831), "relu")
        calls = []

        def counted(a, b):
            calls.append((a.shape, b.shape))
            return matmul(a, b)

        monkeypatch.setattr("highwaynet.layers.matmul", counted)
        y, cache = layer.forward(x)
        layer.backward(cache, np.ones_like(y))
        assert calls == [((7 * 4 * 4, 2 * 3 * 3), (2 * 3 * 3, 2))] * 4


class TestInputsUntouched:
    """evaluate and gate_report feed the layers views of a float dataset's rows,
    and gate_report reads cache["t"] after the forward, so no layer may
    write into its input, its upstream gradient or its cache."""

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("kind", sorted(LAYERS_AND_INPUTS))
    def test_forward_and_backward_write_only_their_results(self, kind, activation):
        rng = Rng(810)
        layer, x = LAYERS_AND_INPUTS[kind](rng, activation)
        x_bytes = x.tobytes()
        y, cache = layer.forward(x)
        cache_bytes = {name: value.tobytes() for name, value in cache.items()}
        g = rng.normal(size=y.shape)
        g_bytes = g.tobytes()
        layer.backward(cache, g)
        assert x.tobytes() == x_bytes and g.tobytes() == g_bytes
        assert {name: value.tobytes() for name, value in cache.items()} == cache_bytes


class TestAllocationPeak:
    """tracemalloc's peak during one dense gated forward and one backward at
    512 x 50: six arrays of that size for the forward (a, s, h, t, y and the
    carry term) and five plus the gradients for the backward, with 8 KB for
    the Python objects around them.  Writing each product in place is what
    holds the step to that; a fresh temporary per product adds at least one
    more array.  The peaks depend on numpy's allocation pattern, so under a
    numpy or BLAS build other than the pinned one the test skips."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_gated_step_peaks(self, activation):
        here = environment()
        if here != PINNED_ENVIRONMENT:
            pytest.skip(f"peaks measured under {PINNED_ENVIRONMENT}, this environment is {here}")
        rng = Rng(820)
        layer = random_highway(rng, 50, activation)
        x, g = rng.normal(size=(512, 50)), rng.normal(size=(512, 50))

        def peak(call):
            tracemalloc.start()
            try:
                return call(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (_, cache), forward = peak(lambda: layer.forward(x))
        _, backward = peak(lambda: layer.backward(cache, g))
        objects = 8192
        assert forward <= 6 * x.nbytes + objects
        assert backward <= 5 * x.nbytes + 8 * count_parameters(layer) + objects


class TestTracedMethods:
    """perfbench/tracing.py wraps these methods by reading each class's own
    __dict__, so they must stay defined on the class itself."""

    @pytest.mark.parametrize("cls, names", [
        (PlainLayer, ("forward", "backward")),
        (HighwayLayer, ("forward", "backward")),
        (ConvHighwayLayer, ("forward", "backward")),
        (SoftmaxHead, ("forward_backward", "probabilities")),
        (Network, ("forward_caches",)),
    ])
    def test_defined_on_the_class_itself(self, cls, names):
        assert all(callable(cls.__dict__.get(name)) for name in names)

    def test_tracer_installs_over_the_library_and_uninstalls(self, monkeypatch):
        """Every module function the tracer wraps must exist under its name."""
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        from tracing import Tracer

        def traced():
            return checkpoint.load_checkpoint, search._trial_for_index, init.build_network

        originals, tracer = traced(), Tracer()
        try:
            tracer.install()
            assert all(now is not was for now, was in zip(traced(), originals))
        finally:
            tracer.uninstall()
        assert all(now is was for now, was in zip(traced(), originals))


class TestSoftmaxHead:
    def test_uniform_logits_loss_is_log_classes(self):
        head = SoftmaxHead(np.zeros((10, 4)), np.zeros(10))
        loss, probs, _, _ = head.forward_backward(np.ones((3, 4)), np.array([0, 5, 9]))
        assert loss == pytest.approx(np.log(10.0), abs=1e-12)
        assert np.allclose(probs, 0.1)

    def test_extreme_logit_saturates_without_overflow(self):
        head = SoftmaxHead(np.array([[1.0], [0.0]]), np.zeros(2))
        loss, _, _, _ = head.forward_backward(np.array([[1e3]]), np.array([0]))
        assert np.isfinite(loss) and loss < 1e-9

    def test_probabilities_sum_to_one(self):
        rng = Rng(30)
        head = SoftmaxHead(rng.normal(size=(7, 5)), rng.normal(size=7))
        probs = head.probabilities(rng.normal(size=(9, 5)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12

    def test_label_out_of_range(self):
        head = SoftmaxHead(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="label"):
            head.forward_backward(np.zeros((1, 2)), np.array([3]))
        with pytest.raises(ValueError, match="label"):
            head.loss_probs(np.zeros((1, 2)), np.array([3]))

    def test_loss_probs_equals_forward_backward(self):
        rng = Rng(31)
        head = SoftmaxHead(rng.normal(size=(7, 5)), rng.normal(size=7))
        x = rng.normal(std=10.0, size=(9, 5))
        labels = Rng(32).integers(7, size=9)
        loss, probs = head.loss_probs(x, labels)
        want_loss, want_probs, _, _ = head.forward_backward(x, labels)
        assert loss == want_loss
        assert np.array_equal(probs, want_probs)

    def test_gradients_match_finite_differences(self):
        for seed in range(5):
            rng = Rng(seed + 70)
            head = SoftmaxHead(rng.normal(size=(5, 4)), rng.normal(size=5))
            x = rng.normal(size=(6, 4))
            labels = Rng(seed).integers(5, size=6)
            def loss():
                value, _, _, _ = head.forward_backward(x, labels)
                return float(value)
            _, _, dx, grads = head.forward_backward(x, labels)
            assert max_relative_error(dx, numerical_gradient(loss, x)) < 1e-6
            assert max_relative_error(grads["W"], numerical_gradient(loss, head.W)) < 1e-6
            assert max_relative_error(grads["b"], numerical_gradient(loss, head.b)) < 1e-6


class TestNetwork:
    def test_forward_and_predict_probs_equal_cached_path(self, small_net):
        net, x = small_net
        y, caches = net.forward_caches(x)
        flat = net._flatten(y)
        assert len(caches) == len(net.body) + (not net.is_conv)
        assert np.array_equal(net.forward(x), flat)
        assert np.array_equal(net.predict_probs(x), net.head.probabilities(flat))

    def test_caches_follow_the_layer_list(self, small_net):
        """net.layers is the input layer, if any, then the body; forward_caches
        keeps one cache per entry, and each layer's input is the previous
        layer's output, bit for bit."""
        net, x = small_net
        assert net.layers == ([] if net.is_conv else [net.input_layer]) + net.body
        y, caches = net.forward_caches(x)
        assert len(caches) == len(net.layers)
        assert caches[0]["x"] is x
        outputs = [layer.forward(cache["x"])[0] for layer, cache in zip(net.layers, caches)]
        for cache, output in zip(caches[1:], outputs):
            assert cache["x"].shape == output.shape
            assert cache["x"].tobytes() == output.tobytes()
        assert y.tobytes() == outputs[-1].tobytes()

    def test_empty_batch(self, small_net):
        net, x = small_net
        assert net.forward(x[:0]).shape == (0, net.head.in_width)
        assert net.predict_probs(x[:0]).shape == (0, net.head.classes)

    def test_predict_probs_are_the_training_probs(self):
        """predict_probs gives the bits of the probabilities the training
        forward computes (exp of the same log-softmax)."""
        net = init_network(build_network("highway", 3, 16, 20, 10, "tanh"),
                           InitScheme("he", -1.0, 7))
        x = Rng(8).normal(size=(512, 20))
        labels = Rng(9).integers(10, size=512)
        _, probs = net.head.loss_probs(net.forward(x), labels)
        assert net.predict_probs(x).tobytes() == probs.tobytes()

    def test_saturated_body_equals_input_plus_head(self):
        rng = Rng(40)
        input_layer = [rng.normal(std=0.3, size=(4, 6)), rng.normal(size=4)]
        gated = [rng.normal(size=(4, 4)), rng.normal(size=4), np.zeros((4, 4)), np.full(4, -20.0)]
        head = [rng.normal(size=(3, 4)), rng.normal(size=3)]
        x = rng.normal(size=(8, 6))
        labels = Rng(41).integers(3, size=8)

        deep = Network("highway", input_layer + gated + head, "tanh")
        shallow = Network("highway", input_layer + head, "tanh")
        loss_deep, _ = network_forward_backward(deep, x, labels)
        loss_shallow, _ = network_forward_backward(shallow, x, labels)
        assert abs(loss_deep - loss_shallow) < 1e-3

    def test_full_network_gradients(self):
        for seed in range(3):
            net = build_network("highway", 3, 5, 4, 3, "tanh")
            init_network(net, InitScheme("he", -1.0, seed))
            x = Rng(seed + 200).normal(size=(6, 4))
            labels = Rng(seed + 300).integers(3, size=6)
            loss, grads = network_forward_backward(net, x, labels)
            def f():
                value, _ = network_forward_backward(net, x, labels)
                return float(value)
            for name, param in net.parameters():
                assert max_relative_error(grads[name], numerical_gradient(f, param)) < 1e-6

    def test_parameters_are_views_of_theta(self, small_net):
        net, _ = small_net
        offset = 0
        for name, p in net.parameters():
            assert p.base is net.theta, name
            assert p.ctypes.data == net.theta.ctypes.data + 8 * offset, name
            offset += p.size
        assert offset == net.theta.size == count_parameters(net)
        layer_tensors = [getattr(layer, n) for layer in [net.input_layer, *net.body, net.head]
                         if layer is not None for n in layer.PARAMS]
        assert all(a is b for a, (_, b) in zip(layer_tensors, net.parameters(), strict=True))

    def test_write_through_a_view_changes_theta(self, small_net):
        net, x = small_net
        before = net.forward(x)
        (_, first), (_, last) = net.parameters()[0], net.parameters()[-1]
        first.flat[0] += 1.0
        last[...] = 7.0
        assert net.theta[0] == first.flat[0]
        assert np.all(net.theta[-last.size:] == 7.0)
        assert not np.array_equal(net.forward(x), before)

    def test_gradients_survive_a_second_call(self, small_net):
        net, x = small_net
        labels = Rng(63).integers(3, size=x.shape[0])
        _, grads = network_forward_backward(net, x, labels)
        assert list(grads) == [name for name, _ in net.parameters()]
        kept = {name: g.copy() for name, g in grads.items()}
        network_forward_backward(net, x[::-1].copy(), labels)
        assert all(np.array_equal(grads[name], kept[name]) for name in kept)

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="unknown network kind: 'residual'"):
            Network("residual", [np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2)), np.zeros(2)])

    # (kind, tensor shapes, the first tensor that differs from network_shapes): counts that
    # leave a partial layer, or give a conv net no body layer
    UNSPLIT = {
        "highway-partial-body": ("highway", [(2, 3), (2,), (2, 2), (2,), (2, 2), (2,)],
                                 "tensor 4: shape (2, 2), wanted none"),
        "plain-no-head": ("plain", [(2, 3), (2,), (2, 2)], "tensor 3: shape none, wanted (2,)"),
        "highway-nothing": ("highway", [], "tensor 0: shape none, wanted (0, 0)"),
        "conv-partial-body": ("conv-highway", [(2, 2, 3, 3), (2,), (2, 2, 3, 3), (2, 18), (2,)],
                              "tensor 3: shape (2, 18), wanted (2,)"),
        "conv-no-body": ("conv-highway", [(2, 18), (2,)],
                         "tensor 0: shape (2, 18), wanted (2, 2, 0, 0)"),
        "conv-head-only-weight": ("conv-highway", [(2, 18)],
                                  "tensor 0: shape (2, 18), wanted (0, 0, 0, 0)"),
    }

    @pytest.mark.parametrize("case", sorted(UNSPLIT))
    def test_tensor_count_that_does_not_split_refused(self, case):
        kind, shapes, differs = self.UNSPLIT[case]
        with pytest.raises(ShapeError, match=re.escape(f"'{kind}' network {differs}")):
            Network(kind, [np.zeros(shape) for shape in shapes])

    def test_callers_arrays_are_copied(self, small_net):
        """theta holds a copy of the tensors it is given: writing through the
        network leaves the caller's arrays as they were, and no layer tensor
        is one of them."""
        net, _ = small_net
        tensors = [p.copy() for _, p in net.parameters()]
        kept = [t.copy() for t in tensors]
        built = Network(net.body_kind, tensors, net.layers[0].activation)
        assert built.theta.tobytes() == net.theta.tobytes()
        built.theta[...] = 7.0
        for tensor, before, (_, p) in zip(tensors, kept, built.parameters(), strict=True):
            assert tensor.tobytes() == before.tobytes()
            assert not np.shares_memory(tensor, built.theta) and p.base is built.theta

    def test_width_break_rejected(self):
        with pytest.raises(ShapeError, match=r"tensor 2: shape \(2, 3\), wanted \(3, 3\)"):
            Network("plain", [np.zeros((3, 4)), np.zeros(3), np.zeros((2, 3)), np.zeros(2),
                              np.zeros((2, 2)), np.zeros(2)])

    def test_head_width_rejected(self):
        with pytest.raises(ShapeError, match=r"tensor 2: shape \(2, 2\), wanted \(2, 3\)"):
            Network("highway", [np.zeros((3, 4)), np.zeros(3), np.zeros((2, 2)), np.zeros(2)])

    def test_conv_channel_break_rejected(self):
        conv = lambda c: [np.zeros((c, c, 3, 3)), np.zeros(c)] * 2
        with pytest.raises(ShapeError,
                           match=r"tensor 4: shape \(3, 3, 3, 3\), wanted \(2, 2, 3, 3\)"):
            Network("conv-highway", conv(2) + conv(3) + [np.zeros((2, 27)), np.zeros(2)])


class TestShapeTable:
    """network_shapes is the one layout: each list it gives builds a network of exactly those
    shapes, and any list one tensor away from it is refused.  The two free sizes, a dense
    net's input features and a conv head's input width, are the only exceptions."""

    @settings(max_examples=600, deadline=None)
    @given(kind=st.sampled_from(sorted(BODY_KINDS)), depth=st.integers(1, 4),
           sizes=st.tuples(*[st.integers(1, 5)] * 3), kernel_size=st.sampled_from([1, 3, 5]),
           extra=st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple))
    def test_only_the_table_builds(self, kind, depth, sizes, kernel_size, extra):
        shapes = [shape for layer in network_shapes(kind, depth, *sizes, kernel_size)
                  for shape in layer]
        net = Network(kind, [np.zeros(shape) for shape in shapes])
        assert [p.shape for _, p in net.parameters()] == shapes
        free = (len(shapes) - 2, 1) if kind == ConvHighwayLayer.KIND else (0, 1)
        for i, shape in enumerate(shapes):
            mutants = [shapes[:i] + shapes[i + 1:], shapes[:i] + [extra] + shapes[i:]]
            for dim in range(len(shape)):
                grown = shape[:dim] + (shape[dim] + 1,) + shape[dim + 1:]
                mutant = shapes[:i] + [grown] + shapes[i + 1:]
                if (i, dim) == free:
                    net = Network(kind, [np.zeros(s) for s in mutant])
                    assert [p.shape for _, p in net.parameters()] == mutant
                else:
                    mutants.append(mutant)
            for mutant in mutants:
                with pytest.raises(ShapeError, match=f"'{kind}' network tensor"):
                    Network(kind, [np.zeros(s) for s in mutant])

    def test_mixed_kernel_sizes_refused(self):
        """Each gated conv layer would run its own kernel, but the layout has one kernel size."""
        conv = lambda k: [np.zeros((2, 2, k, k)), np.zeros(2)] * 2
        with pytest.raises(ShapeError,
                           match=r"tensor 4: shape \(2, 2, 5, 5\), wanted \(2, 2, 3, 3\)"):
            Network("conv-highway", conv(3) + conv(5) + [np.zeros((3, 50)), np.zeros(3)])


def reference_sweep(net, x, labels):
    """network_forward_backward written out with backward on every layer,
    the input layer included: (loss, [(name, gradient)])."""
    y, caches = net.forward_caches(x)
    loss, _, d_flat, head_grads = net.head.forward_backward(net._flatten(y), labels)
    dL, tensors = d_flat.reshape(y.shape), list(head_grads.values())
    for layer, cache in zip(reversed(net.layers), reversed(caches)):
        dL, grads = layer.backward(cache, dL)
        tensors = list(grads.values()) + tensors
    return loss, [(name, g) for (name, _), g in zip(net.parameters(), tensors, strict=True)]


def sweep_net(kind, depth=4):
    """(net, image_shape): a dense net takes 30 features into width 20 (30
    appears in no other shape) and has image_shape None; a conv net takes
    3x6x6 images."""
    image_shape = (3, 6, 6) if kind == "conv-highway" else None
    net = build_network(kind, depth, 20, 30 if image_shape is None else 108, 5, "tanh",
                        image_shape=image_shape)
    init_network(net, InitScheme("he", -1.0, 90))
    return net, image_shape


class TestNetworkSweep:
    """The reverse sweep ends at the first layer's parameter gradients: no
    gradient for the input data is computed, and nothing else changes."""

    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("kind", ["plain", "highway", "conv-highway"])
    def test_equals_backward_on_every_layer(self, kind, batch):
        net, image_shape = sweep_net(kind)
        rng = Rng(91 + batch)
        x = rng.normal(size=(batch, *(image_shape or (30,))))
        labels = rng.integers(5, size=batch)
        loss, grads = network_forward_backward(net, x, labels)
        ref_loss, ref_grads = reference_sweep(net, x, labels)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert list(grads) == [name for name, _ in ref_grads]
        for name, want in ref_grads:
            assert grads[name].dtype == want.dtype and grads[name].shape == want.shape, name
            assert grads[name].tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("kind", ["plain", "highway"])
    def test_dense_input_layer_makes_two_products(self, kind, monkeypatch):
        """The input layer's forward and weight gradient touch its 30-wide
        side; no product da @ W_H makes the 30-wide dL/dx."""
        net, _ = sweep_net(kind)
        shapes = []

        def counted(a, b, out=None):
            shapes.append((a.shape, b.shape))
            return matmul(a, b, out=out)

        monkeypatch.setattr("highwaynet.layers.matmul", counted)
        network_forward_backward(net, Rng(92).normal(size=(64, 30)), Rng(93).integers(5, size=64))
        assert sum(30 in a + b for a, b in shapes) == 2

    @pytest.mark.parametrize("depth", [1, 3])
    def test_conv_net_skips_the_first_adjoint(self, depth, monkeypatch):
        net, image_shape = sweep_net("conv-highway", depth)
        adjoint, calls = ConvHighwayLayer._adjoint, []

        def counted(self, da, ds):
            calls.append(self)
            return adjoint(self, da, ds)

        monkeypatch.setattr(ConvHighwayLayer, "_adjoint", counted)
        network_forward_backward(net, Rng(94).normal(size=(7, *image_shape)),
                                 Rng(95).integers(5, size=7))
        assert calls == net.layers[:0:-1]


class TestGradientBuffer:
    """network_forward_backward writes every gradient into its view of out
    (net.split of one flat vector) with the bits of a call without out.  A
    call without out, or a layer's own backward, returns fresh arrays:
    perfbench's check_model keeps a call's gradients across further calls."""

    @pytest.mark.parametrize("kind", ["plain", "highway", "conv-highway"])
    def test_views_of_the_buffer_hold_the_bits_of_fresh_gradients(self, kind):
        net, image_shape = sweep_net(kind)
        rng = Rng(96)
        x = rng.normal(size=(16, *(image_shape or (30,))))
        labels = rng.integers(5, size=16)
        loss, fresh = network_forward_backward(net, x, labels)
        buf = np.full_like(net.theta, np.nan)
        buf_loss, grads = network_forward_backward(net, x, labels, out=net.split(buf))
        assert np.float64(buf_loss).tobytes() == np.float64(loss).tobytes()
        assert list(grads) == list(fresh)
        offset = 0
        for name, g in grads.items():
            assert g.base is buf and g.ctypes.data == buf.ctypes.data + 8 * offset, name
            offset += g.size
        assert buf.tobytes() == np.concatenate(list(fresh.values()), axis=None).tobytes()

    @pytest.mark.parametrize("kind", ["plain", "highway", "conv-highway"])
    def test_calls_without_out_share_no_memory(self, kind):
        net, image_shape = sweep_net(kind)
        rng = Rng(97)
        x = rng.normal(size=(7, *(image_shape or (30,))))
        labels = rng.integers(5, size=7)
        _, first = network_forward_backward(net, x, labels)
        _, second = network_forward_backward(net, x, labels)
        assert not any(np.shares_memory(a, b) for a in first.values()
                       for b in [*second.values(), net.theta])

    @pytest.mark.parametrize("kind", ["plain", "highway", "conv-highway"])
    def test_a_layer_called_directly_returns_fresh_arrays(self, kind):
        net, image_shape = sweep_net(kind)
        x = Rng(98).normal(size=(7, *(image_shape or (30,))))
        for layer, sweep_cache in zip(net.layers, net.forward_caches(x)[1]):
            y, cache = layer.forward(sweep_cache["x"])
            g = Rng(99).normal(size=y.shape)
            _, first = layer.backward(cache, g)
            _, second = layer.backward(cache, g)
            assert "grads" not in cache
            assert not any(np.shares_memory(a, b) for a in first.values()
                           for b in [*second.values(), net.theta])


def block_step(c, k, side):
    """The spans rule written out: the least multiple of 64 / gcd(h*w, 64)
    images whose map GEMM makes _BLOCK_MACS multiply-adds."""
    unit = 64 // math.gcd(side * side, 64)
    return unit * math.ceil(_BLOCK_MACS / (unit * side * side * c * c * k * k))


def conv_net(c, k, side, depth=2):
    net = build_network("conv-highway", depth, 0, c * side * side, 5, "relu",
                        image_shape=(c, side, side), kernel_size=k)
    return init_network(net, InitScheme("he", -1.0, 100 + c + k + side))


class TestEvaluationBlocks:
    """Network.forward walks a conv net's layers over blocks of images (the
    first layer's spans) and gives the bits of one walk over the whole batch:
    each block starts at a multiple of 64 GEMM rows and is too large for
    OpenBLAS's small-matrix path.  1-channel nets stay one block (their maps
    are GEMVs, which BLAS threads split at any row)."""

    SIDES = (7, 9, 11, 16, 32)
    MAX_VALUES = 1_500_000  # per input: a 1x1 kernel over 1 or 3 channels blocks far later

    @staticmethod
    def batches(step):
        """Just under two blocks, exactly two, two and a remainder, and EVAL_BATCH."""
        return (2 * step - 1, 2 * step, 2 * step + step // 2 + 1, 512)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("c", [1, 3, 8, 16])
    def test_forward_equals_a_whole_batch_walk(self, c, k):
        for side in self.SIDES:
            net = conv_net(c, k, side)
            for batch in self.batches(block_step(c, k, side)):
                if batch * c * side * side > self.MAX_VALUES:
                    continue
                x = Rng(batch + side).normal(size=(batch, c, side, side))
                y = x
                for layer in net.layers:
                    y = layer.forward(y)[0]
                assert net.forward(x).tobytes() == net._flatten(y).tobytes(), (side, batch)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("c", [1, 3, 8, 16])
    def test_spans_tile_the_batch_in_aligned_blocks(self, c, k):
        layer = conv_net(c, k, 7, depth=1).layers[0]
        for side in self.SIDES:
            step = block_step(c, k, side)
            for batch in (0, 1, *self.batches(step), 5 * step + 3):
                x = np.broadcast_to(0.0, (batch, c, side, side))
                spans = [span.indices(batch)[:2] for span in layer.spans(x)]
                assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]]
                assert spans[-1][1] == batch
                if c == 1 or batch < 2 * step:
                    assert len(spans) == 1
                    continue
                for start, stop in spans:
                    assert (start * side * side) % 64 == 0
                    assert (stop - start) * side * side * c * c * k * k >= _BLOCK_MACS
                    assert step <= stop - start < 2 * step

    def test_small_batches_are_one_span(self, small_net):
        """A dense net's first layer always gives one span, all of x; a conv
        net's gives one span of a batch under two blocks."""
        net, x = small_net
        assert net.layers[0].spans(x) == [slice(0 if net.is_conv else None, None)]

    def test_peak_stays_at_a_block(self):
        """tracemalloc's peak for one 512-image 3x32x32 forward: the head
        input (12.6 MB) and one block's working set, where one im2col matrix
        for the whole batch took 113 MB and the peak 151 MB."""
        net = conv_net(3, 3, 32)
        x = Rng(5).normal(size=(512, 3, 32, 32))
        tracemalloc.start()
        try:
            net.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("shape, got", [((512, 3 * 16 * 16), r"\(512, 768\)"),
                                            ((512, 2, 16, 16), r"\(512, 2, 16, 16\)")])
    def test_flat_or_wrong_channel_input_refused_whole(self, shape, got):
        net = conv_net(3, 3, 16)
        message = r"conv highway expects \[batch, 3, h, w\] input, got " + got
        for call in (net.forward, net.predict_probs):
            with pytest.raises(ShapeError, match=message):
                call(np.zeros(shape))


class TestParameterCounts:
    def test_highway_layer_width_50(self):
        layer = HighwayLayer(np.zeros((50, 50)), np.zeros(50), np.zeros((50, 50)), np.zeros(50))
        assert count_parameters(layer) == 5_100

    def test_plain_layer_width_71(self):
        layer = PlainLayer(np.zeros((71, 71)), np.zeros(71))
        assert count_parameters(layer) == 5_112

    def test_parity_within_one_percent(self):
        assert abs(5_100 / 5_112 - 1.0) < 0.01

    def test_depth_50_highway_body(self):
        net = build_network("highway", 50, 50, 784, 10)
        body = sum(p.size for name, p in net.parameters() if name.startswith("body."))
        assert body == 49 * (2 * 50 * 50 + 2 * 50) == 249_900
