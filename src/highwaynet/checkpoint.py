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
Network(body_kind, zeros of the stored shapes, activation) refuses an unknown
kind or activation and shapes other than layers.network_shapes gives, and the
file's header must be the bytes save_checkpoint writes for that network, so a
load and a save keep the file.  Any other header (a missing or unknown key, a
wrong JSON type, a shape that is not a list of non-negative integers, other
spacing, tensors that make no network or another one) raises CheckpointError.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .layers import Network
from .ops import check_paths

MAGIC = b"HWNETCK1"


class CheckpointError(ValueError):
    """Raised for malformed or truncated checkpoint files."""


def _header(net: Network) -> bytes:
    """The header bytes of net; a ValueError if its layers mix activations."""
    activations = {layer.activation for layer in net.layers}
    if len(activations) > 1:
        raise ValueError(f"a checkpoint stores one activation, the network's layers use "
                         f"{', '.join(sorted(activations))}")
    header = {
        "format": 1, "body_kind": net.body_kind, "activation": activations.pop(),
        "has_input_layer": net.input_layer is not None,
        "params": [{"name": name, "shape": list(p.shape)} for name, p in net.parameters()],
    }
    return json.dumps(header, sort_keys=True).encode("utf-8")


def save_checkpoint(net: Network, path) -> None:
    """Write net to path; _header's ValueError comes before anything is written."""
    blob = _header(net)
    check_paths(path=path)
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
    if not (isinstance(header, dict) and isinstance(header.get("params"), list)):
        raise CheckpointError(f"checkpoint header in {path} is not an object with a params list")
    for entry in header["params"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise CheckpointError(f"malformed parameter entry {entry!r} in {path}")
    count = sum(math.prod(entry["shape"]) for entry in header["params"])
    stored = len(raw) - 12 - header_len
    if stored < 8 * count:
        raise CheckpointError(f"truncated parameter blobs in {path}")
    if stored > 8 * count:
        raise CheckpointError(f"{stored - 8 * count} trailing bytes in {path}")

    kind = header.get("body_kind")
    try:
        net = Network(kind, [np.zeros(entry["shape"]) for entry in header["params"]],
                      header.get("activation"))
    except (TypeError, ValueError) as exc:  # ShapeError included; TypeError: an unhashable kind
        raise CheckpointError(f"parameters in {path} make no {kind!r} network: {exc}") from exc
    if raw[12:12 + header_len] != _header(net):
        raise CheckpointError(f"header in {path} is not the one save_checkpoint writes "
                              f"for the {net.body_kind!r} network its parameters make")
    net.theta[...] = np.frombuffer(raw, dtype="<f8", count=count, offset=12 + header_len)
    return net
