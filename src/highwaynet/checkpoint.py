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

Loading rebuilds the network and restores parameters bit-identically.  Zeros
of the stored shapes go, in order, to the input layer (if has_input_layer),
to BODY_KINDS[body_kind] layers and to the head, by each class's PARAMS
count.  Network checks that they fit and names them; the stored names must be
its names.  Any other header (a missing key, a value of the wrong JSON type,
a shape that is not a list of non-negative integers, a tensor count that does
not split so, tensors that do not fit together) raises CheckpointError.
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
    """Write net to path; a ValueError, before anything is written, if its
    layers use more than the one activation a checkpoint stores."""
    activations = {layer.activation for layer in net.layers}
    if len(activations) > 1:
        raise ValueError(f"a checkpoint stores one activation, the network's layers use "
                         f"{', '.join(sorted(activations))}")
    header = {
        "format": 1,
        "body_kind": net.body_kind,
        "activation": activations.pop(),
        "has_input_layer": net.input_layer is not None,
        "params": [{"name": name, "shape": list(p.shape)} for name, p in net.parameters()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(net.theta.astype("<f8", copy=False))


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
    bad = [key for key, want in HEADER_TYPES.items() if not isinstance(header.get(key), want)]
    if bad:
        raise CheckpointError(f"checkpoint header in {path} lacks a valid {', '.join(bad)}")
    for entry in header["params"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise CheckpointError(f"malformed parameter entry {entry!r} in {path}")
    kind, activation = header["body_kind"], header["activation"]
    if kind not in BODY_KINDS:
        raise CheckpointError(f"unknown body kind {kind!r} in {path}")
    if activation not in ACTIVATIONS:
        raise CheckpointError(f"unknown activation {activation!r} in {path}")

    count = sum(math.prod(entry["shape"]) for entry in header["params"])
    stored = len(raw) - 12 - header_len
    if stored < 8 * count:
        raise CheckpointError(f"truncated parameter blobs in {path}")
    if stored > 8 * count:
        raise CheckpointError(f"{stored - 8 * count} trailing bytes in {path}")

    body_cls = BODY_KINDS[kind]
    step = len(body_cls.PARAMS)
    first = len(PlainLayer.PARAMS) if header["has_input_layer"] else 0
    last = len(header["params"]) - len(SoftmaxHead.PARAMS)
    if last < first or (last - first) % step:
        raise CheckpointError(
            f"{len(header['params'])} tensors in {path} do not split into a {kind!r} network")
    try:
        tensors = [np.zeros(entry["shape"]) for entry in header["params"]]
        body = [body_cls(*tensors[i:i + step], activation) for i in range(first, last, step)]
        net = Network(PlainLayer(*tensors[:first], activation) if first else None, body,
                      SoftmaxHead(*tensors[last:]))
    except ValueError as exc:  # ShapeError included
        raise CheckpointError(f"parameters in {path} do not fit together: {exc}") from exc
    if [entry["name"] for entry in header["params"]] != [n for n, _ in net.parameters()]:
        raise CheckpointError(f"parameter names in {path} do not fit a {kind!r} network")
    net.theta[...] = np.frombuffer(raw, dtype="<f8", count=count, offset=12 + header_len)
    return net
