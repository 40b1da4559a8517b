"""Layer forward/backward passes and network assembly.

Layer zoo: plain affine layers, gated (highway) layers that blend a learned
transform with an identity carry path, their convolutional variant, and a
fused softmax/cross-entropy head.  Batch dimension always leads.  The
backward passes are hand-derived; docs/gradients.md walks through the chain
rule for the gated layers and the finite-difference tests in
tests/test_layers.py are the arbiter.
"""

from __future__ import annotations

import math
from itertools import zip_longest

import numpy as np

from .ops import (
    ACTIVATIONS,
    ShapeError,
    activation_derivative,
    apply_activation,
    matmul,
    sigmoid,
)

_BLOCK_MACS = 1 << 22  # least multiply-adds in a map GEMM of a ConvHighwayLayer.spans block


def block_combine(h: np.ndarray, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-unit gated blend y = h*t + x*(1-t).

    t near 0 passes the input through unchanged (carry); t near 1 replaces
    it with the transform output.  Computed in place, in this operand order.
    """
    if not (h.shape == t.shape == x.shape):
        raise ShapeError(f"block_combine shapes disagree: {h.shape}, {t.shape}, {x.shape}")
    y = h * t
    c = 1.0 - t
    c *= x
    y += c
    return y


class _Layer:
    """Parameter plumbing shared by every layer.

    Each layer class lists its parameter names once, in order, in PARAMS;
    parameters(), gradient dicts, init and checkpoints all read that tuple.
    """

    PARAMS: tuple[str, ...] = ()

    def _store(self, arrays, activation=None) -> None:
        """Keep each tensor as float64 under its PARAMS name, and the activation.  Network
        checks both; a layer checks neither."""
        for name, value in zip(self.PARAMS, arrays):
            setattr(self, name, np.asarray(value, dtype=np.float64))
        self.activation = activation

    def _grads(self, *arrays) -> dict:
        return dict(zip(self.PARAMS, arrays))

    def _views(self, views) -> list:
        """Where the parameter gradients are written: views, in PARAMS order (the sweep's, from
        network_forward_backward), or fresh arrays if it is None."""
        return views or [np.empty_like(p) for _, p in self.parameters()]

    def param_grads(self, cache: dict, dL_dy: np.ndarray) -> dict:
        """backward's parameter gradients alone, by _param_step: no dL/dx is computed."""
        return self._param_step(cache, dL_dy)[0]

    def parameters(self):
        return [(name, getattr(self, name)) for name in self.PARAMS]

    def spans(self, x) -> list:
        """The blocks of rows Network.forward walks x in: here one, all of x."""
        return [slice(None)]

    # The first tensor is the [out, in] weight ([c_out, c_in, k, k] for conv).
    @property
    def in_width(self) -> int:
        return getattr(self, self.PARAMS[0]).shape[1]

    @property
    def out_width(self) -> int:
        return getattr(self, self.PARAMS[0]).shape[0]


class PlainLayer(_Layer):
    """Conventional affine + activation layer: y = phi(x W_H^T + b_H)."""

    KIND = "plain"
    PARAMS = ("W_H", "b_H")

    def __init__(self, W_H: np.ndarray, b_H: np.ndarray, activation: str = "relu"):
        self._store((W_H, b_H), activation)

    def forward(self, x: np.ndarray):
        a = matmul(x, self.W_H.T)
        a += self.b_H
        y = apply_activation(a, self.activation)
        return y, {"x": x, "a": a}

    def _param_step(self, cache: dict, dL_dy: np.ndarray):
        """(parameter gradients, dL/da), for backward and param_grads."""
        x, a = cache["x"], cache["a"]
        if dL_dy.shape != a.shape:
            raise ShapeError(f"upstream gradient {dL_dy.shape} does not match cache {a.shape}")
        da = activation_derivative(a, self.activation)
        da *= dL_dy
        W_H, b_H = self._views(cache.get("grads"))
        return self._grads(matmul(da.T, x, out=W_H), da.sum(axis=0, out=b_H)), da

    def backward(self, cache: dict, dL_dy: np.ndarray):
        grads, da = self._param_step(cache, dL_dy)
        return matmul(da, self.W_H), grads


class _GateCore(_Layer):
    """The gated layer, whatever its linear maps: dense or convolutional.

    Forward, with a = H-map(x) + b_H and s = T-map(x) + b_T supplied by the
    layer's _maps (a dense product or a same-padded convolution):

      h = phi(a)    t = sigmoid(s)    y = h*t + x*(1-t)

    Backward, with g = dL/dy (all products elementwise):

      dL/dh = g*t            dL/da = dL/dh * phi'(a)
      dL/dt = g*(h - x)      dL/ds = dL/dt * t*(1-t)
      dL/dx = adj_H(dL/da) + adj_T(dL/ds) + g*(1-t)

    The (h - x) factor and the direct g*(1-t) carry term both come from
    differentiating y = h*t + x*(1-t) with C coupled to 1-T.  Both passes
    take each product in the order written here, in place.  The layer
    supplies adj_H(da) + adj_T(ds) as _adjoint, and turns dL/da and dL/ds
    into its weight and bias gradients in _map_grads.  The carry path is the
    identity, so both weights are [n, n, ...], both biases [n], and the maps
    keep the input's width n: network_shapes writes that layout down.
    """

    def __init__(self, W_H, b_H, W_T, b_T, activation: str = "relu"):
        self._store((W_H, b_H, W_T, b_T), activation)

    def forward(self, x: np.ndarray):
        a, s = self._maps(x)
        h = apply_activation(a, self.activation)
        t = sigmoid(s)
        y = block_combine(h, t, x)
        return y, {"x": x, "a": a, "h": h, "t": t}

    def _param_step(self, cache: dict, dL_dy: np.ndarray):
        """(parameter gradients, dL/da, dL/ds, 1-t), for backward and param_grads."""
        x, a, h, t = cache["x"], cache["a"], cache["h"], cache["t"]
        if dL_dy.shape != x.shape:
            raise ShapeError(f"upstream gradient {dL_dy.shape} does not match cache {x.shape}")
        carry = 1.0 - t
        da = dL_dy * t
        da *= activation_derivative(a, self.activation)
        ds = h - x
        ds *= dL_dy
        ds *= t
        ds *= carry
        grads = self._map_grads(x, da, ds, *self._views(cache.get("grads")))
        return self._grads(*grads), da, ds, carry

    def backward(self, cache: dict, dL_dy: np.ndarray):
        grads, da, ds, carry = self._param_step(cache, dL_dy)
        dL_dx = self._adjoint(da, ds)
        carry *= dL_dy
        dL_dx += carry
        return dL_dx, grads


class HighwayLayer(_GateCore):
    """Dense gated layer: H = phi(x W_H^T + b_H), T = sigmoid(x W_T^T + b_T)."""

    KIND = "highway"
    PARAMS = ("W_H", "b_H", "W_T", "b_T")
    # perfbench's tracer wraps each class's own forward and backward.
    forward, backward = _GateCore.forward, _GateCore.backward

    def _maps(self, x):
        a, s = matmul(x, self.W_H.T), matmul(x, self.W_T.T)
        a += self.b_H
        s += self.b_T
        return a, s

    def _map_grads(self, x, da, ds, W_H, b_H, W_T, b_T):
        return (matmul(da.T, x, out=W_H), da.sum(axis=0, out=b_H),
                matmul(ds.T, x, out=W_T), ds.sum(axis=0, out=b_T))

    def _adjoint(self, da, ds):
        out = matmul(da, self.W_H)
        out += matmul(ds, self.W_T)
        return out


class ConvHighwayLayer(_GateCore):
    """Convolutional gated layer; gates per pixel per channel.

    Both the transform and the gate are stride-1 convolutions with zero
    padding (k-1)/2 so the feature maps keep the input's channel count and
    spatial size; the carry path is again the identity.
    """

    KIND = "conv-highway"
    PARAMS = ("K_H", "b_H", "K_T", "b_T")
    # perfbench's tracer wraps each class's own forward and backward.
    forward, backward = _GateCore.forward, _GateCore.backward

    @property
    def channels(self) -> int:
        return self.K_H.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.K_H.shape[2]

    def _windows(self, x: np.ndarray) -> np.ndarray:
        """[batch, c, h, w, k, k] view of the k x k window at each pixel of x
        zero-padded by (k-1)/2."""
        k = self.kernel_size
        p = (k - 1) // 2
        padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        return np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))

    def spans(self, x) -> list:
        """Blocks of step images, the last taking the remainder (one block under
        2 * step): the least multiple of 64 / gcd(h*w, 64) images whose map GEMM
        makes _BLOCK_MACS multiply-adds.  Such blocks start at a multiple of 64
        rows and miss OpenBLAS's small-matrix path, so they keep the GEMMs' bits."""
        # _maps refuses x whole; a 1-channel map is a GEMV, which threads split anywhere
        if x.ndim != 4 or not x.shape[1] == self.channels > 1:
            return [slice(None)]
        batch, c, height, width = x.shape
        unit = 64 // math.gcd(height * width, 64)
        step = unit * -(-_BLOCK_MACS // max(unit * height * width * (c * self.kernel_size) ** 2, 1))
        n = max(batch // step, 1)
        return [slice(i * step, (i + 1) * step if i + 1 < n else None) for i in range(n)]

    def _correlate(self, x: np.ndarray, *kernels: np.ndarray) -> list:
        """Same-size stride-1 cross-correlation of x with each [c_out, c, k, k]
        kernel bank, from one im2col lowering of x ([batch*h*w, c*k*k])."""
        batch, c, height, width = x.shape
        k = self.kernel_size
        cols = self._windows(x).transpose(0, 2, 3, 1, 4, 5).reshape(batch * height * width,
                                                                      c * k * k)
        return [matmul(cols, K.reshape(K.shape[0], c * k * k).T)
                .reshape(batch, height, width, K.shape[0]).transpose(0, 3, 1, 2)
                for K in kernels]

    def _maps(self, x):
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"conv highway expects [batch, {self.channels}, h, w] input, got {x.shape}"
            )
        a, s = self._correlate(x, self.K_H, self.K_T)
        return a + self.b_H[None, :, None, None], s + self.b_T[None, :, None, None]

    def _map_grads(self, x, da, ds, K_H, b_H, K_T, b_T):
        """Each kernel gradient is copied into its view: np.einsum(..., out=view)
        sums in another order and changes its bits."""
        win = self._windows(x)
        K_H[...] = np.einsum("boij,bcijuv->ocuv", da, win)
        K_T[...] = np.einsum("boij,bcijuv->ocuv", ds, win)
        return K_H, da.sum(axis=(0, 2, 3), out=b_H), K_T, ds.sum(axis=(0, 2, 3), out=b_T)

    def _adjoint(self, da, ds):
        """The adjoint of a same-padded stride-1 cross-correlation is another
        one with the kernels flipped in both spatial dims and transposed
        across channels."""
        (adj_h,) = self._correlate(da, np.flip(self.K_H, axis=(2, 3)).transpose(1, 0, 2, 3))
        (adj_t,) = self._correlate(ds, np.flip(self.K_T, axis=(2, 3)).transpose(1, 0, 2, 3))
        return adj_h + adj_t


BODY_KINDS = {cls.KIND: cls for cls in (PlainLayer, HighwayLayer, ConvHighwayLayer)}


def network_shapes(kind: str, depth: int, width: int, in_features: int, classes: int,
                   kernel_size: int) -> list:
    """The one layout table: each layer's tensor shapes, in parameters() order, the head's last.

    A dense net ("plain", "highway") is a plain layer in_features -> width, then depth-1 body
    layers of width (a gated one keeps its input's size, so its weights are [width, width]),
    then the head.  A conv net is depth gated layers of width channels and [width, width, k, k]
    kernels, all of one kernel_size, and a head on the in_features values of the final map.
    """
    if kind == ConvHighwayLayer.KIND:
        kernel = (width, width, kernel_size, kernel_size)
        layers, head_in = [[kernel, (width,), kernel, (width,)]] * depth, in_features
    else:
        square = [(width, width), (width,)] * (len(BODY_KINDS[kind].PARAMS) // 2)
        layers, head_in = [[(width, in_features), (width,)]] + [square] * (depth - 1), width
    return layers + [[(classes, head_in), (classes,)]]


class SoftmaxHead(_Layer):
    """Affine layer fused with softmax and mean cross-entropy."""

    PARAMS = ("W", "b")

    def __init__(self, W: np.ndarray, b: np.ndarray):
        self._store((W, b))

    @property
    def classes(self) -> int:
        return self.out_width

    def _log_probs(self, x: np.ndarray) -> np.ndarray:
        """Log-softmax of the logits, shifted by each row's maximum so exp cannot overflow."""
        z = matmul(x, self.W.T) + self.b
        shifted = z - z.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def probabilities(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self._log_probs(x))

    def loss_probs(self, x: np.ndarray, labels: np.ndarray):
        """Forward only: (mean cross-entropy over the batch, probs), with
        probs = exp(log-softmax) of the logits."""
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] != x.shape[0]:
            raise ShapeError(f"labels {labels.shape} do not match batch {x.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.classes):
            raise ValueError(
                f"label out of range [0, {self.classes}): min {labels.min()}, max {labels.max()}"
            )
        log_probs = self._log_probs(x)
        return -log_probs[np.arange(x.shape[0]), labels].mean(), np.exp(log_probs)

    def forward_backward(self, x: np.ndarray, labels: np.ndarray, out=None):
        """Returns (loss, probs, dL_dx, grads), loss and probs as loss_probs;
        grads are written into out, views of W's and b's shapes, if given.

        The logit gradient is (probs - onehot) / batch, pushed back through
        the affine map.
        """
        loss, probs = self.loss_probs(x, labels)
        batch = x.shape[0]
        dz = probs.copy()
        dz[np.arange(batch), labels] -= 1.0
        dz /= batch
        W, b = self._views(out)
        grads = self._grads(matmul(dz.T, x, out=W), dz.sum(axis=0, out=b))
        dL_dx = matmul(dz, self.W)
        return loss, probs, dL_dx, grads


class Network:
    """A leading plain layer (dimension change), a body of one layer kind, and
    a softmax head, built from their tensors.

    Fully-connected networks always carry the input plain layer, matching
    the convention that a "depth d" network is that layer plus d-1 body
    layers (the head is not counted).  Convolutional gated networks have no
    input layer: their body preserves the image shape and the head consumes
    the flattened final feature map.  network_shapes is the one layout: any
    other list of tensors is refused here at construction.
    """

    def __init__(self, kind: str, tensors, activation: str = "relu"):
        """tensors, in parameters() order, are copied into theta; each layer
        holds views of theta, cut by its network_shapes list."""
        if kind not in BODY_KINDS:
            raise ValueError(f"unknown network kind: {kind!r}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation kind: {activation!r}")
        # The free sizes are read from the first tensor, the head's weight and the count;
        # network_shapes then fixes every other one.
        conv, step = kind == ConvHighwayLayer.KIND, len(BODY_KINDS[kind].PARAMS)
        shapes = [np.shape(t) for t in tensors]
        first, head_w = ([*(shapes[i] if len(shapes) > 1 else ()), 0, 0, 0] for i in (0, -2))
        depth = max(1, (len(shapes) - 2) // step if conv else (len(shapes) - 4) // step + 1)
        self._shapes = network_shapes(kind, depth, first[0], head_w[1] if conv else first[1],
                                      head_w[0], first[2])
        want = [shape for layer in self._shapes for shape in layer]
        for i, (found, wanted) in enumerate(zip_longest(shapes, want, fillvalue="none")):
            if found != wanted:
                raise ShapeError(f"{kind!r} network tensor {i}: shape {found}, wanted {wanted}")
        if conv and first[2] % 2 == 0:
            raise ValueError(f"kernel_size must be odd for same-size padding, got {first[2]}")
        self.theta = np.concatenate(tensors, axis=None, dtype=np.float64)
        *views, head = self.split(self.theta)
        self.input_layer = None if conv else PlainLayer(*views.pop(0), activation)
        self.body = [BODY_KINDS[kind](*v, activation) for v in views]
        self.head = SoftmaxHead(*head)
        # The layers every forward and backward walk, in order; the head is apart.
        self.layers = ([] if conv else [self.input_layer]) + self.body
        prefixes = ([] if conv else ["input"]) + [f"body.{i}" for i in range(len(self.body))]
        self._parameters = [(f"{prefix}.{n}", p)
                            for prefix, layer in zip([*prefixes, "head"], (*self.layers, self.head))
                            for n, p in layer.parameters()]

    @property
    def is_conv(self) -> bool:
        return self.body_kind == ConvHighwayLayer.KIND

    @property
    def body_kind(self) -> str:
        """The body's key in BODY_KINDS; an empty body counts as plain."""
        return self.body[0].KIND if self.body else PlainLayer.KIND

    def _flatten(self, y: np.ndarray) -> np.ndarray:
        return y.reshape(len(y), math.prod(y.shape[1:]))  # dense y: a view with its strides

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass up to the head's (flattened) input for evaluation: each layer's cache is
        dropped as soon as the layer returns.  The layers walk one of the first layer's spans of x
        at a time, and each span's output fills its rows of the head input."""
        out = None
        for span in self.layers[0].spans(x):
            y = x[span]
            for layer in self.layers:
                y = layer.forward(y)[0]
            out = np.empty((len(x), math.prod(y.shape[1:]))) if out is None else out
            out[span] = self._flatten(y)
        return out

    def forward_caches(self, x: np.ndarray):
        """Forward pass keeping every layer's cache (for backward/analysis):
        (output, caches), with caches[i] that of self.layers[i]."""
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def predict_probs(self, x: np.ndarray) -> np.ndarray:
        return self.head.probabilities(self.forward(x))

    def parameters(self):
        """All parameter tensors as (name, view of theta), in forward order."""
        return list(self._parameters)

    def split(self, flat: np.ndarray) -> list:
        """flat, a vector shaped like theta, cut into one list of views per layer, the head's
        last, in parameters() order: the layers' tensors of theta, or their gradients."""
        sizes = [math.prod(shape) for shapes in self._shapes for shape in shapes]
        parts = iter(np.split(flat, np.cumsum(sizes)[:-1]))
        return [[next(parts).reshape(shape) for shape in shapes] for shapes in self._shapes]


def network_forward_backward(net: Network, x_batch: np.ndarray, labels: np.ndarray, out=None):
    """One forward and one reverse sweep; gradients for every parameter.

    Returns (loss, grads), keyed and ordered like net.parameters().  Each layer
    writes its gradients into its views in out, net.split of a gradient vector,
    or of a fresh one, so that no two calls without out share memory.  The
    sweep ends at the first layer's parameter gradients: nothing reads the
    gradient for the input data, so it is never computed.
    """
    *views, head_views = net.split(np.empty_like(net.theta)) if out is None else out
    y, caches = net.forward_caches(x_batch)
    loss, _, d_flat, head_grads = net.head.forward_backward(net._flatten(y), labels, head_views)
    dL = d_flat.reshape(y.shape)
    for cache, layer_views in zip(caches, views, strict=True):
        cache["grads"] = layer_views
    layer_grads = [(net.head, head_grads)]
    first = net.layers[0]
    for layer, cache in zip(net.layers[:0:-1], caches[:0:-1]):
        dL, grads = layer.backward(cache, dL)
        layer_grads.append((layer, grads))
    layer_grads.append((first, first.param_grads(caches[0], dL)))
    tensors = (grads[n] for layer, grads in reversed(layer_grads) for n in layer.PARAMS)
    return loss, {name: g for (name, _), g in zip(net._parameters, tensors, strict=True)}


def count_parameters(net_or_layer) -> int:
    """Exact number of scalar parameters."""
    return int(sum(p.size for _, p in net_or_layer.parameters()))
