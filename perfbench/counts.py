"""Work counts computed from network shapes: GEMMs of one training step.

Every dense product y = x W^T costs three GEMMs per step: the forward
product, the weight gradient da^T x and the input gradient da W.  A
same-padded conv product is lowered to im2col, so it costs the same three
GEMMs over [batch*h*w, c*k*k] columns (the weight gradient is an einsum
with that shape).  Bytes moved count each operand read once and the result
written once, in float64.
"""

from __future__ import annotations


def _dense(batch: int, fan_in: int, fan_out: int) -> list[tuple]:
    return [(batch, fan_in, fan_out), (fan_out, batch, fan_in), (batch, fan_out, fan_in)]


def step_gemms(net, batch: int) -> list[tuple]:
    """(m, k, n) of every matrix product one forward+backward step runs."""
    gemms = []
    if net.input_layer is not None:
        gemms += _dense(batch, net.input_layer.in_width, net.input_layer.out_width)
    for layer in net.body:
        kind = type(layer).__name__
        if kind == "PlainLayer":
            gemms += _dense(batch, layer.in_width, layer.out_width)
        elif kind == "HighwayLayer":
            gemms += 2 * _dense(batch, layer.in_width, layer.out_width)
        elif kind == "ConvHighwayLayer":
            c, k = layer.channels, layer.kernel_size
            pixels = batch * net.head.in_width // c
            gemms += 2 * _dense(pixels, c * k * k, c)
        else:
            raise ValueError(f"no GEMM count for layer kind {kind}")
    gemms += _dense(batch, net.head.in_width, net.head.classes)
    return gemms


def step_flop(net, batch: int) -> int:
    return sum(2 * m * k * n for m, k, n in step_gemms(net, batch))


def step_bytes(net, batch: int) -> int:
    return sum(8 * (m * k + k * n + m * n) for m, k, n in step_gemms(net, batch))
