"""Versioned checkpoint container for networks.

Layout (documented contract, covered by a byte round-trip test):

  bytes 0..7    magic b"HWNETCK1"
  bytes 8..11   header length N, little-endian uint32
  bytes 12..12+N  UTF-8 JSON header
  rest          parameter blobs, little-endian float64, concatenated in
                header order: the network's theta vector

The header records the architecture and, per parameter, its name and shape:

  {"format": 1,
   "body_kind": "plain" | "highway" | "conv-highway",
   "activation": "relu" | "tanh" | "identity",
   "has_input_layer": bool,
   "params": [{"name": "input.W_H", "shape": [50, 784]}, ...]}

Loading rebuilds the network and restores parameters bit-identically.  The
body layer class is BODY_KINDS[body_kind], and the stored names must be
exactly the layer classes' PARAMS in order; any other header (a missing key,
a value of the wrong JSON type, a shape that is not a list of non-negative
integers, tensors that do not fit together) raises CheckpointError.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .layers import BODY_KINDS, Network, PlainLayer, SoftmaxHead
from .ops import ACTIVATIONS

MAGIC = b"HWNETCK1"
HEADER_TYPES = {"body_kind": str, "activation": str, "has_input_layer": bool, "params": list}


class CheckpointError(ValueError):
    """Raised for malformed or truncated checkpoint files."""


def save_checkpoint(net: Network, path) -> None:
    header = {
        "format": 1,
        "body_kind": net.body_kind,
        "activation": (net.body[0].activation if net.body
                       else net.input_layer.activation),
        "has_input_layer": net.input_layer is not None,
        "params": [{"name": name, "shape": list(p.shape)} for name, p in net.parameters()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(net.theta.astype("<f8", copy=False))


def _layout(header: dict, path) -> list:
    """(prefix, layer class) for every layer the header describes, in
    parameter order; the stored names must be exactly the classes' PARAMS."""
    bad = [key for key, kind in HEADER_TYPES.items() if not isinstance(header.get(key), kind)]
    if bad:
        raise CheckpointError(f"checkpoint header in {path} lacks a valid {', '.join(bad)}")
    for entry in header["params"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise CheckpointError(f"malformed parameter entry {entry!r} in {path}")
    if header["body_kind"] not in BODY_KINDS:
        raise CheckpointError(f"unknown body kind {header['body_kind']!r} in {path}")
    if header["activation"] not in ACTIVATIONS:
        raise CheckpointError(f"unknown activation {header['activation']!r} in {path}")
    body_cls = BODY_KINDS[header["body_kind"]]
    names = [entry["name"] for entry in header["params"]]
    depth = sum(name.startswith("body.") for name in names) // len(body_cls.PARAMS)
    layout = ([("input", PlainLayer)] if header["has_input_layer"] else []) + [
        (f"body.{i}", body_cls) for i in range(depth)] + [("head", SoftmaxHead)]
    if names != [f"{prefix}.{n}" for prefix, cls in layout for n in cls.PARAMS]:
        raise CheckpointError(
            f"parameter names in {path} do not fit a {header['body_kind']!r} network")
    return layout


def load_checkpoint(path) -> Network:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {raw[:8]!r} in {path}")
    if len(raw) < 12:
        raise CheckpointError(f"truncated checkpoint header in {path}")
    (header_len,) = struct.unpack("<I", raw[8:12])
    try:
        header = json.loads(raw[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header in {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != 1:
        raise CheckpointError(f"unsupported checkpoint header format in {path}")
    layout = _layout(header, path)

    count = sum(math.prod(entry["shape"]) for entry in header["params"])
    stored = len(raw) - 12 - header_len
    if stored < 8 * count:
        raise CheckpointError(f"truncated parameter blobs in {path}")
    if stored > 8 * count:
        raise CheckpointError(f"{stored - 8 * count} trailing bytes in {path}")

    # The layers take zeros of the header's shapes; theta then reads the
    # blobs, whose order _layout has checked is the network's.
    shapes = iter(entry["shape"] for entry in header["params"])

    def build(cls):
        params = (np.zeros(next(shapes)) for _ in cls.PARAMS)
        return SoftmaxHead(*params) if cls is SoftmaxHead else cls(*params, header["activation"])

    try:
        layers = [build(cls) for _, cls in layout]
        input_layer = layers.pop(0) if header["has_input_layer"] else None
        net = Network(input_layer, layers[:-1], layers[-1])
    except ValueError as exc:  # ShapeError included
        raise CheckpointError(f"parameters in {path} do not fit together: {exc}") from exc
    net.theta[...] = np.frombuffer(raw, dtype="<f8", count=count, offset=12 + header_len)
    return net
