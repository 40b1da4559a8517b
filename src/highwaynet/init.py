"""Parameter initialization: variance-preserving weights, negative gate bias.

Weights are zero-mean Gaussians scaled so signal variance survives depth
(fan-in scaling for relu-style transforms, fan-in+fan-out for the
symmetric variant); every transform-gate bias starts at one negative value
so the network initially favors carrying its input forward, which is what
makes very deep stacks optimizable from the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import BODY_KINDS, ConvHighwayLayer, Network, network_shapes
from .ops import Rng, require_counts, require_int

INIT_KINDS = ("he", "glorot")


@dataclass(frozen=True)
class InitScheme:
    kind: str = "he"
    gate_bias: float = -2.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ValueError(f"unknown init kind: {self.kind!r}")
        if not self.gate_bias < 0:
            raise ValueError(f"gate_bias must be negative, got {self.gate_bias}")


def init_std(kind: str, fan_in: int, fan_out: int) -> float:
    """Gaussian std for a weight tensor: he = sqrt(2/fan_in),
    glorot = sqrt(2/(fan_in+fan_out))."""
    if kind == "he":
        return math.sqrt(2.0 / fan_in)
    if kind == "glorot":
        return math.sqrt(2.0 / (fan_in + fan_out))
    raise ValueError(f"unknown init kind: {kind!r}")


def init_weights(shape, kind: str, rng: Rng) -> np.ndarray:
    """Zero-mean Gaussian fill for a [fan_out x fan_in] matrix or a
    [c_out, c_in, k, k] conv kernel: fan_in = c_in * k^2, fan_out = c_out * k^2."""
    shape = tuple(shape)
    if any(d <= 0 for d in shape):
        raise ValueError(f"dimensions must be positive, got {shape}")
    if len(shape) not in (2, 4):
        raise ValueError(f"expected a matrix or conv kernel shape, got {shape}")
    fan_in, fan_out = math.prod(shape[1:]), shape[0] * math.prod(shape[2:])
    return rng.normal(0.0, init_std(kind, fan_in, fan_out), size=shape)


def init_network(net: Network, scheme: InitScheme) -> Network:
    """Fill every parameter of the network in place and return it.

    Parameters are visited in net.parameters() order.  Every weight
    matrix/kernel follows scheme.kind (the gate weights get the same
    treatment as the transform weights); every gate bias (b_T) starts at
    scheme.gate_bias; all other biases start at zero.
    """
    rng = Rng(scheme.rng_seed)
    for name, param in net.parameters():
        if param.ndim > 1:
            param[...] = init_weights(param.shape, scheme.kind, rng)
        elif name.endswith(".b_T"):
            param[...] = scheme.gate_bias
        else:
            param[...] = 0.0
    return net


def build_network(
    kind: str,
    depth: int,
    width: int,
    in_features: int,
    classes: int,
    activation: str = "relu",
    image_shape=None,
    kernel_size: int = 3,
) -> Network:
    """An uninitialized network of the layout network_shapes gives: a dense net's depth
    counts its input layer, and a conv net ("conv-highway") takes its channels from
    image_shape = (c, h, w).  NetworkTemplate checks the arguments."""
    NetworkTemplate(kind, depth, width, in_features, classes, image_shape=image_shape,
                    kernel_size=kernel_size)
    width = image_shape[0] if kind == ConvHighwayLayer.KIND else width
    shapes = network_shapes(kind, depth, width, in_features, classes, kernel_size)
    return Network(kind, [np.zeros(shape) for layer in shapes for shape in layer], activation)


@dataclass(frozen=True)
class NetworkTemplate:
    """build_network's arguments, and the one place they are checked; a
    search's trials share a template and draw activation and gate bias."""
    kind: str                # "plain" | "highway" | "conv-highway"
    depth: int
    width: int               # unused by conv bodies, which keep the image's channels
    in_features: int         # the flat input width; a conv image_shape holds exactly this many
    classes: int
    init_kind: str = "he"
    image_shape: tuple | None = None
    kernel_size: int = 3

    def __post_init__(self):
        if self.kind not in BODY_KINDS:
            raise ValueError(f"unknown network kind: {self.kind!r}")
        require_counts(self, "depth", "classes", "kernel_size")
        if self.kind == ConvHighwayLayer.KIND:
            shape = self.image_shape
            if not isinstance(shape, (tuple, list)) or len(shape) != 3:
                raise ValueError(f"conv-highway needs image_shape = (c, h, w), got {shape!r}")
            for value in shape:
                require_int("image_shape", value)
            require_counts(self, "width", least=0)  # conv templates carry width 0
            if self.kernel_size % 2 == 0:
                raise ValueError(f"kernel_size must be odd for same-size padding, "
                                 f"got {self.kernel_size}")
            if math.prod(shape) != self.in_features:
                raise ValueError(f"image_shape {tuple(shape)} holds {math.prod(shape)} values, "
                                 f"not the {self.in_features} input features")
        else:
            require_counts(self, "width", "in_features")
