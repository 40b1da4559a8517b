"""Layer forward/backward passes and network assembly.

Layer zoo: plain affine layers, gated (highway) layers that blend a learned
transform with an identity carry path, their convolutional variant, and a
fused softmax/cross-entropy head.  Batch dimension always leads.  The
backward passes are hand-derived; docs/gradients.md walks through the chain
rule for the gated layers and the finite-difference tests in
tests/test_layers.py are the arbiter.
"""

from __future__ import annotations

import numpy as np

from .ops import (
    ACTIVATIONS,
    ShapeError,
    activation_derivative,
    apply_activation,
    matmul,
    sigmoid,
)


def block_combine(h: np.ndarray, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-unit gated blend y = h*t + x*(1-t).

    t near 0 passes the input through unchanged (carry); t near 1 replaces
    it with the transform output.
    """
    if not (h.shape == t.shape == x.shape):
        raise ShapeError(f"block_combine shapes disagree: {h.shape}, {t.shape}, {x.shape}")
    return h * t + x * (1.0 - t)


class _Layer:
    """Parameter plumbing shared by every layer.

    Each layer class lists its parameter names once, in order, in PARAMS;
    parameters(), gradient dicts, init and checkpoints all read that tuple.
    """

    PARAMS: tuple[str, ...] = ()

    def _store(self, arrays, activation=None) -> list:
        """Keep each tensor as float64 under its PARAMS name and return them;
        a layer with an activation also checks and keeps its kind."""
        if activation is not None:
            if activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation kind: {activation!r}")
            self.activation = activation
        arrays = [np.asarray(value, dtype=np.float64) for value in arrays]
        for name, value in zip(self.PARAMS, arrays):
            setattr(self, name, value)
        return arrays

    def _grads(self, *arrays) -> dict:
        return dict(zip(self.PARAMS, arrays))

    def parameters(self):
        return [(name, getattr(self, name)) for name in self.PARAMS]

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
        W_H, b_H = self._store((W_H, b_H), activation)
        if W_H.ndim != 2 or b_H.ndim != 1 or b_H.shape[0] != W_H.shape[0]:
            raise ShapeError(f"plain layer shapes disagree: W_H {W_H.shape}, b_H {b_H.shape}")

    def forward(self, x: np.ndarray):
        a = matmul(x, self.W_H.T) + self.b_H
        y = apply_activation(a, self.activation)
        return y, {"x": x, "a": a}

    def backward(self, cache: dict, dL_dy: np.ndarray):
        x, a = cache["x"], cache["a"]
        if dL_dy.shape != a.shape:
            raise ShapeError(f"upstream gradient {dL_dy.shape} does not match cache {a.shape}")
        da = dL_dy * activation_derivative(a, self.activation)
        dL_dx = matmul(da, self.W_H)
        return dL_dx, self._grads(matmul(da.T, x), da.sum(axis=0))


class _GateCore(_Layer):
    """The gate shared by the dense and conv gated layers.

    Forward, with a = H-map(x) + b_H and s = T-map(x) + b_T supplied by the
    layer (a dense product or a same-padded convolution):

      h = phi(a)    t = sigmoid(s)    y = h*t + x*(1-t)

    Backward, with g = dL/dy (all products elementwise):

      dL/dh = g*t            dL/da = dL/dh * phi'(a)
      dL/dt = g*(h - x)      dL/ds = dL/dt * t*(1-t)
      dL/dx = adj_H(dL/da) + adj_T(dL/ds) + g*(1-t)

    The (h - x) factor and the direct g*(1-t) carry term both come from
    differentiating y = h*t + x*(1-t) with C coupled to 1-T.  adj_H and
    adj_T are the adjoints of the layer's linear maps; the layer also turns
    dL/da and dL/ds into its weight and bias gradients.
    """

    def _gate_forward(self, x: np.ndarray, a: np.ndarray, s: np.ndarray):
        h = apply_activation(a, self.activation)
        t = sigmoid(s)
        y = block_combine(h, t, x)
        return y, {"x": x, "a": a, "h": h, "t": t}

    def _gate_backward(self, cache: dict, dL_dy: np.ndarray):
        """Returns (x, dL/da, dL/ds, carry term g*(1-t))."""
        x, a, h, t = cache["x"], cache["a"], cache["h"], cache["t"]
        if dL_dy.shape != x.shape:
            raise ShapeError(f"upstream gradient {dL_dy.shape} does not match cache {x.shape}")
        carry = 1.0 - t
        da = dL_dy * t * activation_derivative(a, self.activation)
        ds = dL_dy * (h - x) * t * carry
        return x, da, ds, dL_dy * carry


class HighwayLayer(_GateCore):
    """Gated layer: y = H(x)*T(x) + x*(1-T(x)) with T = sigmoid(x W_T^T + b_T).

    Input and output width must agree (the carry path is the identity), so
    all four parameter tensors share one width n.
    """

    KIND = "highway"
    PARAMS = ("W_H", "b_H", "W_T", "b_T")

    def __init__(self, W_H, b_H, W_T, b_T, activation: str = "relu"):
        W_H, b_H, W_T, b_T = self._store((W_H, b_H, W_T, b_T), activation)
        n = W_H.shape[0] if W_H.ndim == 2 else -1
        if any(w.shape != (n, n) for w in (W_H, W_T)) or any(
            b.shape != (n,) for b in (b_H, b_T)
        ):
            raise ShapeError(
                "highway layer needs square weights and matching biases of one width, got "
                f"W_H {W_H.shape}, b_H {b_H.shape}, W_T {W_T.shape}, b_T {b_T.shape}"
            )

    def forward(self, x: np.ndarray):
        a = matmul(x, self.W_H.T) + self.b_H
        s = matmul(x, self.W_T.T) + self.b_T
        return self._gate_forward(x, a, s)

    def backward(self, cache: dict, dL_dy: np.ndarray):
        """The gate core's chain rule with dense adjoints: adj(d) = d W."""
        x, da, ds, carry = self._gate_backward(cache, dL_dy)
        grads = self._grads(matmul(da.T, x), da.sum(axis=0), matmul(ds.T, x), ds.sum(axis=0))
        dL_dx = matmul(da, self.W_H) + matmul(ds, self.W_T) + carry
        return dL_dx, grads


def _pad2d(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))


def _corr2d(x: np.ndarray, kernels: np.ndarray, pad: int) -> np.ndarray:
    """Stride-1 cross-correlation with zero padding, via im2col lowering.

    x: [batch, c_in, h, w]; kernels: [c_out, c_in, k, k] -> [batch, c_out, h, w].
    Same-size output requires pad = (k-1)/2, which the layer enforces.
    """
    batch, c_in, height, width = x.shape
    c_out, c_in_k, k, _ = kernels.shape
    if c_in_k != c_in:
        raise ShapeError(f"kernel expects {c_in_k} input channels, got {c_in}")
    win = np.lib.stride_tricks.sliding_window_view(_pad2d(x, pad), (k, k), axis=(2, 3))
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(batch * height * width, c_in * k * k)
    out = cols @ kernels.reshape(c_out, c_in * k * k).T
    return out.reshape(batch, height, width, c_out).transpose(0, 3, 1, 2)


class ConvHighwayLayer(_GateCore):
    """Convolutional gated layer; gates per pixel per channel.

    Both the transform and the gate are stride-1 convolutions with zero
    padding (k-1)/2 so the feature maps keep the input's channel count and
    spatial size; the carry path is again the identity.
    """

    KIND = "conv-highway"
    PARAMS = ("K_H", "b_H", "K_T", "b_T")

    def __init__(self, K_H, b_H, K_T, b_T, activation: str = "relu"):
        K_H, b_H, K_T, b_T = self._store((K_H, b_H, K_T, b_T), activation)
        if K_H.ndim != 4 or K_H.shape[0] != K_H.shape[1] or K_H.shape[2] != K_H.shape[3]:
            raise ShapeError(f"conv kernels must be [c, c, k, k], got {K_H.shape}")
        c, _, k, _ = K_H.shape
        if k % 2 == 0:
            raise ValueError(f"kernel size must be odd for same-size padding, got k={k}")
        if K_T.shape != K_H.shape or b_H.shape != (c,) or b_T.shape != (c,):
            raise ShapeError(
                f"conv highway shapes disagree: K_H {K_H.shape}, b_H {b_H.shape}, "
                f"K_T {K_T.shape}, b_T {b_T.shape}"
            )

    @property
    def channels(self) -> int:
        return self.K_H.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.K_H.shape[2]

    @property
    def padding(self) -> int:
        return (self.kernel_size - 1) // 2

    def forward(self, x: np.ndarray):
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"conv highway expects [batch, {self.channels}, h, w] input, got {x.shape}"
            )
        a = _corr2d(x, self.K_H, self.padding) + self.b_H[None, :, None, None]
        s = _corr2d(x, self.K_T, self.padding) + self.b_T[None, :, None, None]
        return self._gate_forward(x, a, s)

    def backward(self, cache: dict, dL_dy: np.ndarray):
        """The gate core's chain rule with conv adjoints.

        The adjoint of a same-padded stride-1 cross-correlation is another
        same-padded cross-correlation with the kernels flipped in both
        spatial dims and transposed across channels.
        """
        x, da, ds, carry = self._gate_backward(cache, dL_dy)
        k, p = self.kernel_size, self.padding
        win = np.lib.stride_tricks.sliding_window_view(_pad2d(x, p), (k, k), axis=(2, 3))
        grads = self._grads(
            np.einsum("boij,bcijuv->ocuv", da, win), da.sum(axis=(0, 2, 3)),
            np.einsum("boij,bcijuv->ocuv", ds, win), ds.sum(axis=(0, 2, 3)),
        )
        adj_h = np.flip(self.K_H, axis=(2, 3)).transpose(1, 0, 2, 3)
        adj_t = np.flip(self.K_T, axis=(2, 3)).transpose(1, 0, 2, 3)
        dL_dx = _corr2d(da, adj_h, p) + _corr2d(ds, adj_t, p) + carry
        return dL_dx, grads


BODY_KINDS = {cls.KIND: cls for cls in (PlainLayer, HighwayLayer, ConvHighwayLayer)}


class SoftmaxHead(_Layer):
    """Affine layer fused with softmax and mean cross-entropy."""

    PARAMS = ("W", "b")

    def __init__(self, W: np.ndarray, b: np.ndarray):
        W, b = self._store((W, b))
        if W.ndim != 2 or b.shape != (W.shape[0],):
            raise ShapeError(f"softmax head shapes disagree: W {W.shape}, b {b.shape}")

    @property
    def classes(self) -> int:
        return self.out_width

    def _shifted_logits(self, x: np.ndarray) -> np.ndarray:
        """Logits less each row's maximum, so exp cannot overflow."""
        z = matmul(x, self.W.T) + self.b
        return z - z.max(axis=1, keepdims=True)

    def probabilities(self, x: np.ndarray) -> np.ndarray:
        e = np.exp(self._shifted_logits(x))
        return e / e.sum(axis=1, keepdims=True)

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
        shifted = self._shifted_logits(x)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -log_probs[np.arange(x.shape[0]), labels].mean(), np.exp(log_probs)

    def forward_backward(self, x: np.ndarray, labels: np.ndarray):
        """Returns (loss, probs, dL_dx, grads), loss and probs as loss_probs.

        The logit gradient is (probs - onehot) / batch, pushed back through
        the affine map.
        """
        loss, probs = self.loss_probs(x, labels)
        batch = x.shape[0]
        dz = probs.copy()
        dz[np.arange(batch), labels] -= 1.0
        dz /= batch
        grads = self._grads(matmul(dz.T, x), dz.sum(axis=0))
        dL_dx = matmul(dz, self.W)
        return loss, probs, dL_dx, grads


class Network:
    """A leading plain layer (dimension change), a homogeneous body, and a
    softmax head.

    Fully-connected networks always carry the input plain layer, matching
    the convention that a "depth d" network is that layer plus d-1 body
    layers (the head is not counted).  Convolutional gated networks have no
    input layer: their body preserves the image shape and the head consumes
    the flattened final feature map.  Any other dimension change is rejected
    here at construction.
    """

    def __init__(self, input_layer, body, head: SoftmaxHead):
        body = list(body)
        kinds = {type(layer) for layer in body}
        if len(kinds) > 1:
            raise ShapeError("network body must be homogeneous, got " +
                             ", ".join(sorted(k.__name__ for k in kinds)))
        self.input_layer = input_layer
        self.body = body
        self.head = head
        if self.is_conv:
            if input_layer is not None:
                raise ShapeError("convolutional body takes raw images; no input layer allowed")
            channels = {layer.channels for layer in body}
            if len(channels) > 1:
                raise ShapeError(f"conv body channel counts disagree: {sorted(channels)}")
        else:
            if input_layer is None:
                raise ShapeError("fully-connected network requires the leading plain layer")
            width = input_layer.out_width
            for i, layer in enumerate(body):
                if layer.in_width != width or layer.out_width != width:
                    raise ShapeError(
                        f"body layer {i} width {layer.in_width}x{layer.out_width} "
                        f"breaks the chain at width {width}"
                    )
            if head.in_width != width:
                raise ShapeError(f"head expects width {width}, has {head.in_width}")
        # theta holds every parameter in parameters() order, and each layer
        # tensor becomes its view (a layer belongs to the last network built).
        layers = self._named_layers() + [("head", head)]
        tensors = [p for _, layer in layers for _, p in layer.parameters()]
        self.theta = np.concatenate(tensors, axis=None)
        self._parameters, offset = [], 0
        for prefix, layer in layers:
            for n, p in layer.parameters():
                setattr(layer, n, self.theta[offset:offset + p.size].reshape(p.shape))
                self._parameters.append((f"{prefix}.{n}", getattr(layer, n)))
                offset += p.size

    @property
    def is_conv(self) -> bool:
        return self.body_kind == ConvHighwayLayer.KIND

    @property
    def body_kind(self) -> str:
        """The body's key in BODY_KINDS; an empty body counts as plain."""
        return self.body[0].KIND if self.body else PlainLayer.KIND

    def _flatten(self, y: np.ndarray) -> np.ndarray:
        return y.reshape(y.shape[0], -1) if self.is_conv else y

    def _named_layers(self) -> list:
        """(name, layer) for the input layer, if any, then each body layer."""
        layers = [("input", self.input_layer)] if self.input_layer is not None else []
        return layers + [(f"body.{i}", layer) for i, layer in enumerate(self.body)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass up to the head's (flattened) input for evaluation:
        each layer's cache is dropped as soon as the layer returns."""
        for _, layer in self._named_layers():
            x = layer.forward(x)[0]
        return self._flatten(x)

    def forward_caches(self, x: np.ndarray):
        """Forward pass keeping every layer's cache (for backward/analysis)."""
        caches = []
        for name, layer in self._named_layers():
            x, cache = layer.forward(x)
            caches.append((name, layer, cache))
        return x, caches

    def predict_probs(self, x: np.ndarray) -> np.ndarray:
        return self.head.probabilities(self.forward(x))

    def parameters(self):
        """All parameter tensors as (name, view of theta), in forward order."""
        return list(self._parameters)


def network_forward_backward(net: Network, x_batch: np.ndarray, labels: np.ndarray):
    """One forward and one reverse sweep; gradients for every parameter.

    Returns (loss, grads): fresh arrays keyed and ordered like net.parameters().
    """
    y, caches = net.forward_caches(x_batch)
    loss, _, d_flat, head_grads = net.head.forward_backward(net._flatten(y), labels)
    dL = d_flat.reshape(y.shape)
    layer_grads = [(net.head, head_grads)]
    for _, layer, cache in reversed(caches):
        dL, grads = layer.backward(cache, dL)
        layer_grads.append((layer, grads))
    tensors = (grads[n] for layer, grads in reversed(layer_grads) for n in layer.PARAMS)
    return loss, {name: g for (name, _), g in zip(net._parameters, tensors, strict=True)}


def count_parameters(net_or_layer) -> int:
    """Exact number of scalar parameters."""
    return int(sum(p.size for _, p in net_or_layer.parameters()))
