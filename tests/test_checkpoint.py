import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from highwaynet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from highwaynet.init import InitScheme, build_network, init_network
from highwaynet.layers import count_parameters


def make_net(kind="highway", seed=1):
    """A depth-4 net of kind; the conv kind reads image_shape (18 inputs),
    not the widths."""
    in_features = 18 if kind == "conv-highway" else 5
    net = build_network(kind, 4, 6, in_features, 3, "tanh", image_shape=(2, 3, 3))
    return init_network(net, InitScheme("he", -3.0, seed))


def read_header(path) -> dict:
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + n])


def rewrite_header(path, edit):
    """Apply edit(header) to a saved checkpoint's JSON header in place."""
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + n])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:])


def rewrite_layout(path, edit):
    """Apply edit(header) to a saved checkpoint and rewrite its blob region
    to hold the bytes of each entry left in params, in their new order, so
    that the blob size still fits the header."""
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + n])
    blobs, offset = {}, 12 + n
    for entry in header["params"]:
        size = 8 * math.prod(entry["shape"])
        blobs[entry["name"]], offset = raw[offset:offset + size], offset + size
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                     + b"".join(blobs[entry["name"]] for entry in header["params"]))


def drop(name):
    return lambda h: h.update(params=[e for e in h["params"] if e["name"] != name])


def swap(first, second):
    def edit(h):
        i, j = ([e["name"] for e in h["params"]].index(n) for n in (first, second))
        h["params"][i], h["params"][j] = h["params"][j], h["params"][i]
    return edit


# (body kind, header edit): headers whose shapes and blob size agree but
# whose tensors do not make the network the header names.
LAYOUT_FAULTS = {
    "highway-has_input_layer-flipped": ("highway", lambda h: h.update(has_input_layer=False)),
    "plain-has_input_layer-flipped": ("plain", lambda h: h.update(has_input_layer=False)),
    "conv-has_input_layer-flipped": ("conv-highway", lambda h: h.update(has_input_layer=True)),
    "body.0.b_T-dropped": ("highway", drop("body.0.b_T")),
    "body.1.K_T-dropped": ("conv-highway", drop("body.1.K_T")),
    "input.b_H-dropped": ("highway", drop("input.b_H")),
    "empty-params": ("highway", lambda h: h.update(params=[])),
    "conv-body-dropped": ("conv-highway", lambda h: h.update(
        params=[e for e in h["params"] if not e["name"].startswith("body.")])),
    "W_H-W_T-swapped": ("highway", swap("body.1.W_H", "body.1.W_T")),
    "K_H-K_T-swapped": ("conv-highway", swap("body.0.K_H", "body.0.K_T")),
}

BAD_HEADERS = {
    "missing-activation": lambda h: h.pop("activation"),
    "missing-params": lambda h: h.pop("params"),
    "missing-has_input_layer": lambda h: h.pop("has_input_layer"),
    "missing-body_kind": lambda h: h.pop("body_kind"),
    "unknown-body_kind": lambda h: h.update(body_kind="residual"),
    "unknown-activation": lambda h: h.update(activation="swish"),
    "conv-kind-over-dense-params": lambda h: h.update(body_kind="conv-highway"),
    "plain-kind-over-highway-params": lambda h: h.update(body_kind="plain"),
    "params-entry-not-object": lambda h: h["params"].__setitem__(0, "input.W_H"),
    "negative-shape": lambda h: h["params"][0].update(shape=[-6, -5]),
    "swapped-shape": lambda h: h["params"][0].update(shape=[5, 6]),
    "string-shape": lambda h: h["params"][0].update(shape="65"),
    "float-shape": lambda h: h["params"][0].update(shape=[6.5, 5]),
    "list-body_kind": lambda h: h.update(body_kind=["highway"]),
    "string-has_input_layer": lambda h: h.update(has_input_layer="yes"),
    # each parses to a network that would save a different header
    "float-format": lambda h: h.update(format=1.0),
    "boolean-format": lambda h: h.update(format=True),
    "unknown-key": lambda h: h.update(comment="x"),
    "unknown-entry-key": lambda h: h["params"][0].update(dtype="f4"),
}


def kernels_3x5(path):
    """Widen body.0's two [2, 2, 3, 3] kernels to [2, 2, 3, 5], blobs included."""
    rewrite_header(path, lambda h: [e.update(shape=[2, 2, 3, 5]) for e in h["params"]
                                    if e["name"] in ("body.0.K_H", "body.0.K_T")])
    path.write_bytes(path.read_bytes() + bytes(8 * 2 * (60 - 36)))  # 24 more values each


# (body kind, damage to the saved file, what the CheckpointError says)
DAMAGED_BYTES = {
    "magic-plus-2-bytes": ("highway", lambda p: p.write_bytes(p.read_bytes()[:10]),
                           "truncated checkpoint header"),
    "header-not-utf8": ("highway", lambda p: p.write_bytes(
        p.read_bytes()[:12] + b"\xff" + p.read_bytes()[13:]), "unreadable checkpoint header"),
    "conv-kernels-3x5": ("conv-highway", kernels_3x5, r"\(2, 2, 3, 5\)"),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6)


def json_type(value) -> str:
    kinds = {bool: "boolean", int: "number", float: "number", str: "string", list: "array",
             dict: "object"}
    return kinds.get(type(value), "null")


def value_paths(node, path=()):
    """The key path of every value nested in a JSON object or array."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from value_paths(child, path + (key,))


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["highway", "plain"])
    def test_parameters_bit_identical(self, tmp_path, kind):
        net = make_net(kind)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path)
        restored = load_checkpoint(path)
        original = dict(net.parameters())
        for name, param in restored.parameters():
            assert param.tobytes() == original[name].tobytes(), name
        assert restored.body_kind == net.body_kind
        assert count_parameters(restored) == count_parameters(net)

    def test_conv_round_trip(self, tmp_path):
        net = build_network("conv-highway", 2, 0, 50, 4, "relu", image_shape=(2, 5, 5))
        init_network(net, InitScheme("he", -1.5, 9))
        path = tmp_path / "conv.ckpt"
        save_checkpoint(net, path)
        restored = load_checkpoint(path)
        original = dict(net.parameters())
        for name, param in restored.parameters():
            assert param.tobytes() == original[name].tobytes(), name
        assert restored.is_conv

    def test_empty_body_round_trips_as_plain(self, tmp_path):
        """A depth-1 highway net has no body layer, so it is stored, and
        loads, as a plain one."""
        net = init_network(build_network("highway", 1, 6, 5, 3, "tanh"), InitScheme("he", -3.0, 4))
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        assert read_header(path)["body_kind"] == "plain"
        restored = load_checkpoint(path)
        assert restored.body == [] and restored.body_kind == "plain"
        assert restored.parameters()[0][0] == "input.W_H"
        assert restored.theta.tobytes() == net.theta.tobytes()

    def test_blob_region_is_theta(self, tmp_path, small_net):
        net, _ = small_net
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        assert raw[12 + header_len:] == net.theta.astype("<f8").tobytes()
        assert load_checkpoint(path).theta.tobytes() == net.theta.tobytes()

    def test_activation_preserved(self, tmp_path):
        net = make_net()
        save_checkpoint(net, tmp_path / "m.ckpt")
        assert load_checkpoint(tmp_path / "m.ckpt").body[0].activation == "tanh"

    def test_mixed_activations_refused_before_writing(self, tmp_path):
        net = build_network("highway", 3, 4, 5, 3, "relu")
        init_network(net, InitScheme("he", -1.0, 2))
        net.input_layer.activation = "tanh"
        with pytest.raises(ValueError, match="relu, tanh"):
            save_checkpoint(net, tmp_path / "m.ckpt")
        assert not (tmp_path / "m.ckpt").exists()

    def test_save_is_deterministic(self, tmp_path):
        net = make_net()
        save_checkpoint(net, tmp_path / "a.ckpt")
        save_checkpoint(net, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_restored_network_predicts_identically(self, tmp_path):
        net = make_net()
        save_checkpoint(net, tmp_path / "m.ckpt")
        restored = load_checkpoint(tmp_path / "m.ckpt")
        x = np.linspace(-1, 1, 10).reshape(2, 5)
        assert np.array_equal(net.predict_probs(x), restored.predict_probs(x))


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        net = make_net()
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad checkpoint magic"):
            load_checkpoint(path)

    def test_truncated_blob(self, tmp_path):
        path = tmp_path / "short.ckpt"
        save_checkpoint(make_net(), path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="truncated parameter blobs"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "long.ckpt"
        save_checkpoint(make_net(), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="8 trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(DAMAGED_BYTES))
    def test_damaged_bytes_named(self, tmp_path, case):
        kind, damage, match = DAMAGED_BYTES[case]
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_net(kind), path)
        damage(path)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(BAD_HEADERS))
    def test_bad_header(self, tmp_path, case):
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_net("highway"), path)
        rewrite_header(path, BAD_HEADERS[case])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("spell", [
        lambda h: json.dumps(h, sort_keys=True) + "  ",
        lambda h: json.dumps(h, sort_keys=True, indent=1),
        lambda h: json.dumps(dict(reversed(list(h.items())))),
    ], ids=["trailing-blanks", "indented", "unsorted-keys"])
    def test_header_spelled_otherwise_refused(self, tmp_path, spell):
        """The same header JSON in other bytes does not load: a re-save
        would write the saver's bytes, not these."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_net("highway"), path)
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[8:12])
        blob = spell(json.loads(raw[12:12 + n])).encode("utf-8")
        assert blob != raw[12:12 + n]
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:])
        with pytest.raises(CheckpointError, match="not the one save_checkpoint writes"):
            load_checkpoint(path)

    def test_gated_kind_over_an_empty_body_refused(self, tmp_path):
        """A depth-1 highway net is stored as plain; naming its input layer
        and head highway again would load a net that saves as plain, so a
        load-save round trip would not keep the bytes."""
        net = init_network(build_network("highway", 1, 6, 5, 3, "tanh"), InitScheme("he", -3.0, 4))
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        rewrite_header(path, lambda h: h.update(body_kind="highway"))
        with pytest.raises(CheckpointError, match="save_checkpoint writes for the 'plain' network"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(LAYOUT_FAULTS))
    def test_layout_fault(self, tmp_path, case):
        kind, edit = LAYOUT_FAULTS[case]
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_net(kind), path)
        rewrite_layout(path, edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["highway", "plain"]), data=st.data())
    def test_retyped_header_value_loads_or_raises_checkpoint_error(self, tmp_path, kind, data):
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_net(kind), path)
        header = read_header(path)
        *outer, last = data.draw(st.sampled_from(list(value_paths(header))))

        def holder(node):
            for key in outer:
                node = node[key]
            return node

        old = holder(header)[last]
        new = data.draw(JSON_VALUES.filter(lambda v: json_type(v) != json_type(old)))
        rewrite_header(path, lambda h: holder(h).__setitem__(last, new))
        try:
            net = load_checkpoint(path)
        except CheckpointError:
            return
        save_checkpoint(net, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
