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

Loading rebuilds the network and restores parameters bit-identically:
Network(body_kind, zeros of the stored shapes, activation) splits the tensors
into layers, checks that they fit and names them.  The stored names must be
its names, body_kind its body kind (an empty body counts as plain) and
has_input_layer must say whether it has an input layer.  Any
other header (a missing key, a value of the wrong JSON type, a shape that is
not a list of non-negative integers, an unknown body kind or activation, a
tensor count that does not split into the body kind's layers, tensors that
do not fit together) raises CheckpointError.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .layers import Network
from .ops import check_paths

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
    check_paths(path=path)
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
    check_paths(path=path)
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
    count = sum(math.prod(entry["shape"]) for entry in header["params"])
    stored = len(raw) - 12 - header_len
    if stored < 8 * count:
        raise CheckpointError(f"truncated parameter blobs in {path}")
    if stored > 8 * count:
        raise CheckpointError(f"{stored - 8 * count} trailing bytes in {path}")

    kind = header["body_kind"]
    try:
        net = Network(kind, [np.zeros(entry["shape"]) for entry in header["params"]],
                      header["activation"])
    except ValueError as exc:  # ShapeError included
        raise CheckpointError(f"parameters in {path} make no {kind!r} network: {exc}") from exc
    if (header["has_input_layer"] != (net.input_layer is not None) or net.body_kind != kind
            or [entry["name"] for entry in header["params"]] != [n for n, _ in net.parameters()]):
        raise CheckpointError(f"parameter layout in {path} does not fit a {kind!r} network")
    net.theta[...] = np.frombuffer(raw, dtype="<f8", count=count, offset=12 + header_len)
    return net
