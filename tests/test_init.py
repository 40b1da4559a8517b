import math

import numpy as np
import pytest

from highwaynet.init import (
    InitScheme,
    NetworkTemplate,
    build_network,
    init_network,
    init_std,
    init_weights,
)
from highwaynet.ops import Rng, sigmoid


class TestInitStd:
    def test_he_fan_in_50(self):
        assert init_std("he", 50, 50) == pytest.approx(0.2, abs=1e-15)

    def test_glorot_symmetric(self):
        for n in (10, 50, 128):
            assert init_std("glorot", n, n) == pytest.approx(math.sqrt(1.0 / n), abs=1e-15)

    def test_conv_kernel_fan_in(self):
        # fan_in = c * k^2 for a [c, c, k, k] kernel
        rng = Rng(0)
        w = init_weights((8, 8, 3, 3), "he", rng)
        expected = math.sqrt(2.0 / (8 * 9))
        assert w.std() == pytest.approx(expected, rel=0.05)


class TestInitWeights:
    def test_sample_mean_near_zero(self):
        rng = Rng(123)
        w = init_weights((1000, 1000), "he", rng)
        std_err = 0.2 / math.sqrt(w.size)
        assert abs(w.mean()) < 3 * std_err

    def test_sample_std_matches_formula(self):
        rng = Rng(7)
        w = init_weights((500, 500), "glorot", rng)
        assert w.std() == pytest.approx(math.sqrt(2.0 / 1000), rel=0.02)

    def test_positive_dims_required(self):
        with pytest.raises(ValueError):
            init_weights((0, 5), "he", Rng(0))


class TestInitNetwork:
    def test_gate_biases_uniform_and_plain_biases_zero(self):
        net = build_network("highway", 5, 8, 6, 3)
        init_network(net, InitScheme("he", -2.0, 11))
        for layer in net.body:
            assert np.all(layer.b_T == -2.0)
            assert np.all(layer.b_H == 0.0)
        assert np.all(net.input_layer.b_H == 0.0)
        assert np.all(net.head.b == 0.0)

    def test_mean_initial_gate_activity_near_sigmoid_of_bias(self):
        net = build_network("highway", 4, 50, 50, 10)
        init_network(net, InitScheme("he", -2.0, 3))
        x = Rng(5).uniform(-1.0, 1.0, size=(256, 50))
        _, caches = net.forward_caches(x)
        target = sigmoid(np.array(-2.0))
        for cache in caches[1:]:  # caches[0] is the input layer's
            assert abs(cache["t"].mean() - target) < 0.05

    def test_strongly_negative_bias_carries_first_layer_output(self):
        net = build_network("highway", 6, 10, 8, 3, "tanh")
        init_network(net, InitScheme("he", -10.0, 2))
        x = Rng(3).normal(size=(16, 8))
        first, _ = net.input_layer.forward(x)
        y = first
        for layer in net.body:
            y, _ = layer.forward(y)
        # body output stays close to the carried first-layer output
        assert np.abs(y - first).max() < 0.05 * max(1.0, np.abs(first).max())

    def test_same_seed_bit_identical(self):
        a = init_network(build_network("highway", 3, 6, 4, 3), InitScheme("he", -1.0, 42))
        b = init_network(build_network("highway", 3, 6, 4, 3), InitScheme("he", -1.0, 42))
        for (name, pa), (_, pb) in zip(a.parameters(), b.parameters()):
            assert pa.tobytes() == pb.tobytes(), name

    def test_gate_bias_must_be_negative(self):
        with pytest.raises(ValueError, match="negative"):
            InitScheme("he", 0.5, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            InitScheme("orthogonal", -1.0, 0)


class TestDepthPropagation:
    def test_deep_relu_body_neither_explodes_nor_dies_per_layer(self):
        """Each gated layer's output std stays within [0.1x, 10x] of its own
        input std through a 50-layer relu body at gate bias -2 (5-seed mean).

        The cumulative ratio to the body input is also tracked: it contracts
        (about 0.9x per layer, the carry/transform mixing cost) but must stay
        far above true signal collapse.
        """
        per_layer = []
        cumulative_floor = []
        for seed in range(5):
            net = build_network("highway", 51, 50, 50, 10, "relu")
            init_network(net, InitScheme("he", -2.0, seed))
            y = Rng(seed + 1000).normal(size=(128, 50))
            in_std = y.std()
            ratios = []
            for layer in net.body:
                prev_std = y.std()
                y, _ = layer.forward(y)
                assert np.all(np.isfinite(y))
                ratios.append(y.std() / prev_std)
            per_layer.append(ratios)
            cumulative_floor.append(y.std() / in_std)
        mean_ratios = np.asarray(per_layer).mean(axis=0)
        assert mean_ratios.min() > 0.1
        assert mean_ratios.max() < 10.0
        assert np.mean(cumulative_floor) > 0.005


# build_network arguments (kind, depth, width, in_features, classes) and
# keywords that describe no network, with a word the message must hold.
BAD_ARCHITECTURES = {
    "depth-float": (("highway", 3.0, 5, 4, 3), {}, "depth"),
    "depth-bool": (("highway", True, 5, 4, 3), {}, "depth"),
    "depth-zero": (("plain", 0, 5, 4, 3), {}, "depth"),
    "width-zero": (("highway", 3, 0, 4, 3), {}, "width"),
    "width-float": (("plain", 3, 5.0, 4, 3), {}, "width"),
    "in-features-float": (("highway", 3, 5, 4.0, 3), {}, "in_features"),
    "classes-zero": (("highway", 3, 5, 4, 0), {}, "classes"),
    "kind": (("resnet", 3, 5, 4, 3), {}, "kind"),
    "conv-no-image": (("conv-highway", 2, 0, 0, 3), {}, "image_shape"),
    "conv-image-float": (("conv-highway", 2, 0, 0, 3), {"image_shape": (1, 4.0, 4)},
                         "image_shape"),
    "conv-kernel-float": (("conv-highway", 2, 0, 0, 3),
                          {"image_shape": (1, 4, 4), "kernel_size": 3.0}, "kernel_size"),
    "conv-image-not-inputs": (("conv-highway", 2, 0, 784, 3), {"image_shape": (1, 20, 20)},
                              "image_shape .*400.* 784"),
    "conv-kernel-even": (("conv-highway", 2, 0, 16, 3),
                         {"image_shape": (1, 4, 4), "kernel_size": 4}, "kernel_size .*odd"),
}


class TestBuildNetworkChecks:
    @pytest.mark.parametrize("case", sorted(BAD_ARCHITECTURES))
    def test_same_value_error_as_network_template(self, case):
        args, kwargs, word = BAD_ARCHITECTURES[case]
        with pytest.raises(ValueError, match=word) as built:
            build_network(*args, **kwargs)
        with pytest.raises(ValueError) as templated:
            NetworkTemplate(*args, **kwargs)
        assert str(built.value) == str(templated.value)
