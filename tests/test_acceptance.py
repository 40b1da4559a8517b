"""Acceptance suite: one test per numbered criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (add -s for the progress prints).  Criterion 4 runs the full
desk-scale depth-ordering protocol and dominates the runtime (about 4.5
minutes on 2 cores); everything else finishes in seconds.

Criterion 5 is implemented exactly as specified and is expected to FAIL:
at gate bias -2 each gated layer replaces about 12% of its input with
transform output that does not depend on the sample, so the across-batch
std of the units shrinks 0.938x per layer (fresh net, seed 17, 512 desk
samples: 0.238 after the input layer, 4.1e-4 after the last body layer) and
the head cannot tell the samples apart; no stable learning rate moves the
training loss measurably within 10 epochs.
test_deep_trainability_analogue_bias_minus_4 demonstrates that the property
the criterion targets holds one bias notch away.
"""

import json
import os

import numpy as np
import pytest

from conftest import dataset_config_stanza
from gradcheck import (
    check_layer_gradients,
    max_relative_error,
    numerical_gradient,
    relu_preactivations_clear,
)
from highwaynet.analysis import gate_report, load_matrix_csv
from highwaynet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from highwaynet.cli import main
from highwaynet.data import (
    Dataset,
    FormatError,
    load_cifar_binary,
    load_idx,
    save_cifar_binary,
    save_idx,
    synthetic_digits,
)
from highwaynet.init import InitScheme, build_network, init_network
from highwaynet.layers import (
    ConvHighwayLayer,
    HighwayLayer,
    PlainLayer,
    SoftmaxHead,
    count_parameters,
    network_forward_backward,
)
from highwaynet.ops import Rng, sigmoid
from highwaynet.optim import SgdConfig, evaluate, train
from highwaynet.search import NetworkTemplate, SearchSpace, run_search

MASTER_SEED = 20260808
RETRY_SEED = 20260809


def say(message: str) -> None:
    print(f"[acceptance] {message}")


# -------------------------------------------------------------------------
# Criterion 1: gradient correctness for every layer type and a full network,
# max relative error < 1e-6 against central finite differences (eps=1e-5)
# over >= 20 random seeds.  Error is measured relative to each gradient
# tensor's scale; relu draws are resampled until every pre-activation is
# clear of the kink by 1e-3.
# -------------------------------------------------------------------------

def _screened(factory, seed_base: int):
    attempt = 0
    while True:
        rng = Rng(seed_base + 1000 * attempt)
        layer, x = factory(rng)
        if relu_preactivations_clear(layer, x):
            return layer, x
        attempt += 1


def test_criterion_1_gradient_correctness():
    worst = {"plain": 0.0, "highway": 0.0, "conv-highway": 0.0, "head": 0.0, "network": 0.0}
    for seed in range(20):
        activation = "tanh" if seed % 2 == 0 else "relu"

        layer, x = _screened(
            lambda r: (PlainLayer(r.normal(size=(4, 3)), r.normal(size=4), activation),
                       r.normal(size=(6, 3))), 7000 + seed)
        err = check_layer_gradients(layer, x, Rng(seed + 1).normal(size=(6, 4)))
        worst["plain"] = max(worst["plain"], err)

        layer, x = _screened(
            lambda r: (HighwayLayer(r.normal(size=(4, 4)), r.normal(size=4),
                                    r.normal(size=(4, 4)), r.normal(size=4), activation),
                       r.normal(size=(6, 4))), 8000 + seed)
        err = check_layer_gradients(layer, x, Rng(seed + 2).normal(size=(6, 4)))
        worst["highway"] = max(worst["highway"], err)

        layer, x = _screened(
            lambda r: (ConvHighwayLayer(r.normal(std=0.4, size=(2, 2, 3, 3)), r.normal(size=2),
                                        r.normal(std=0.4, size=(2, 2, 3, 3)), r.normal(size=2),
                                        activation),
                       r.normal(size=(2, 2, 5, 5))), 9000 + seed)
        err = check_layer_gradients(layer, x, Rng(seed + 3).normal(size=(2, 2, 5, 5)))
        worst["conv-highway"] = max(worst["conv-highway"], err)

        rng = Rng(9500 + seed)
        head = SoftmaxHead(rng.normal(size=(5, 4)), rng.normal(size=5))
        x_head = rng.normal(size=(6, 4))
        labels = Rng(seed).integers(5, size=6)

        def head_loss():
            value, _, _, _ = head.forward_backward(x_head, labels)
            return float(value)

        _, _, dx, grads = head.forward_backward(x_head, labels)
        err = max_relative_error(dx, numerical_gradient(head_loss, x_head))
        for name, param in head.parameters():
            err = max(err, max_relative_error(grads[name], numerical_gradient(head_loss, param)))
        worst["head"] = max(worst["head"], err)

        net = build_network("highway", 3, 5, 4, 3, "tanh")
        init_network(net, InitScheme("he", -1.0, seed))
        x_net = Rng(seed + 400).normal(size=(6, 4))
        y_net = Rng(seed + 500).integers(3, size=6)
        _, net_grads = network_forward_backward(net, x_net, y_net)

        def net_loss():
            value, _ = network_forward_backward(net, x_net, y_net)
            return float(value)

        err = 0.0
        for name, param in net.parameters():
            err = max(err, max_relative_error(net_grads[name], numerical_gradient(net_loss, param)))
        worst["network"] = max(worst["network"], err)

    assert all(v < 1e-6 for v in worst.values()), worst
    say("criterion 1 PASS: worst gradient errors " +
        ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


# -------------------------------------------------------------------------
# Criterion 2: gate limit suite.  Saturated-off gates pass inputs and
# gradients through unchanged; saturated-on gates reduce the layer to its
# transform.
# -------------------------------------------------------------------------

def test_criterion_2_gate_limit_suite():
    for seed in range(5):
        rng = Rng(seed + 60)
        x = rng.normal(size=(8, 6))
        upstream = rng.normal(size=(8, 6))

        off = HighwayLayer(rng.normal(size=(6, 6)), rng.normal(size=6),
                           np.zeros((6, 6)), np.full(6, -20.0), "tanh")
        y, cache = off.forward(x)
        assert np.abs(y - x).max() < 1e-3
        dL_dx, _ = off.backward(cache, upstream)
        assert np.abs(dL_dx - upstream).max() < 1e-3

        on = HighwayLayer(off.W_H, off.b_H, np.zeros((6, 6)), np.full(6, 20.0), "tanh")
        y_on, cache_on = on.forward(x)
        h = cache_on["h"]
        assert np.abs(y_on - h).max() < 1e-3 * (np.abs(h).max() + np.abs(x).max())

        x_img = rng.normal(size=(2, 2, 5, 5))
        up_img = rng.normal(size=(2, 2, 5, 5))
        conv_off = ConvHighwayLayer(rng.normal(std=0.3, size=(2, 2, 3, 3)), rng.normal(size=2),
                                    np.zeros((2, 2, 3, 3)), np.full(2, -20.0), "tanh")
        y_img, cache_img = conv_off.forward(x_img)
        assert np.abs(y_img - x_img).max() < 1e-3
        d_img, _ = conv_off.backward(cache_img, up_img)
        assert np.abs(d_img - up_img).max() < 1e-3

        conv_on = ConvHighwayLayer(conv_off.K_H, conv_off.b_H,
                                   np.zeros((2, 2, 3, 3)), np.full(2, 20.0), "tanh")
        y_img_on, cache_on_img = conv_on.forward(x_img)
        h_img = cache_on_img["h"]
        assert np.abs(y_img_on - h_img).max() < 1e-3 * (np.abs(h_img).max() + np.abs(x_img).max())
    say("criterion 2 PASS: saturated gates reproduce the carry/transform limits")


# -------------------------------------------------------------------------
# Criterion 3: parameter parity between 50-unit gated and 71-unit plain
# layers.
# -------------------------------------------------------------------------

def test_criterion_3_parameter_parity():
    gated = HighwayLayer(np.zeros((50, 50)), np.zeros(50), np.zeros((50, 50)), np.zeros(50))
    plain = PlainLayer(np.zeros((71, 71)), np.zeros(71))
    assert count_parameters(gated) == 5_100
    assert count_parameters(plain) == 5_112
    assert abs(5_100 / 5_112 - 1.0) < 0.01
    say("criterion 3 PASS: 5100 vs 5112 parameters (ratio off parity by "
        f"{abs(5100 / 5112 - 1):.4%})")


# -------------------------------------------------------------------------
# Criterion 4: desk-scale depth ordering.  Best of 5 random-search trials
# per configuration on the 10k corpus, 15 epochs:
#   (a) highway-50 best loss <= 2x highway-10
#   (b) plain-50 best loss >= 3x highway-50
#   (c) plain-10 and highway-10 both < 0.1
# Tolerances are loose by design; a failing first master seed triggers one
# rerun with a second seed before the test fails.  Each search runs in two
# processes, which ranks its trials as a serial one does.
# -------------------------------------------------------------------------

def _depth_ordering_losses(ds, master_seed: int) -> dict:
    space = SearchSpace(trials=5, epochs=15)
    best = {}
    for kind, depth, width in (("highway", 10, 50), ("highway", 50, 50),
                               ("plain", 10, 71), ("plain", 50, 71)):
        template = NetworkTemplate(kind, depth, width, ds.features, ds.num_classes)
        results = run_search(space, template, ds, master_seed, jobs=2)
        best[(kind, depth)] = results[0].best_loss
        say(f"  seed {master_seed} {kind}-{depth}: best loss {results[0].best_loss:.6f}")
    return best


def _ordering_holds(best: dict) -> tuple:
    a = best[("highway", 50)] <= 2.0 * best[("highway", 10)]
    b = best[("plain", 50)] >= 3.0 * best[("highway", 50)]
    c = best[("plain", 10)] < 0.1 and best[("highway", 10)] < 0.1
    return a and b and c, {"a": a, "b": b, "c": c}


def test_criterion_4_depth_ordering(desk_corpus_10k):
    ok, detail = _ordering_holds(_depth_ordering_losses(desk_corpus_10k, MASTER_SEED))
    if not ok:
        say(f"criterion 4 retry: first seed failed {detail}")
        ok, detail = _ordering_holds(_depth_ordering_losses(desk_corpus_10k, RETRY_SEED))
    assert ok, detail
    say("criterion 4 PASS: depth ordering holds " + str(detail))


# -------------------------------------------------------------------------
# Criterion 5: deep trainability smoke, exactly as specified (gate bias -2,
# 100 layers, 2k samples, 10 epochs, >= 50% loss reduction, no NaN).
# Expected to FAIL; see the module docstring and the analogue test below.
# -------------------------------------------------------------------------

def _deep_trainability_reduction(ds, gate_bias: float) -> tuple:
    net = build_network("highway", 100, 50, ds.features, ds.num_classes, "relu")
    init_network(net, InitScheme("he", gate_bias, 17))
    initial, _ = evaluate(net, ds)
    _, log = train(net, ds, SgdConfig(lr0=0.05, momentum=0.9, decay=1.0,
                                      epochs=10, batch_size=64), Rng(31))
    reduction = 1.0 - log.best_loss() / initial
    return reduction, log


def test_criterion_5_deep_trainability_smoke(desk_corpus_2k):
    reduction, log = _deep_trainability_reduction(desk_corpus_2k, -2.0)
    say(f"criterion 5: bias -2 loss reduction {reduction:.1%} over 10 epochs "
        f"(diverged={log.diverged})")
    assert not log.diverged
    assert all(np.isfinite(e.loss) for e in log.entries)
    assert reduction >= 0.5, (
        f"100-layer net at gate bias -2 reduced loss by only {reduction:.1%}"
    )
    say("criterion 5 PASS")


def test_deep_trainability_analogue_bias_minus_4(desk_corpus_2k):
    """Supplementary (not a numbered criterion): the same protocol passes one
    bias notch away, showing the deep stack itself optimizes fine."""
    reduction, log = _deep_trainability_reduction(desk_corpus_2k, -4.0)
    assert not log.diverged
    assert all(np.isfinite(e.loss) for e in log.entries)
    assert reduction >= 0.5
    say(f"supplementary PASS: bias -4 reduces loss by {reduction:.1%} in 10 epochs")


# -------------------------------------------------------------------------
# Criterion 6: analysis pipeline.  A trained 20-layer gated checkpoint run
# through the analyze command yields 4 CSV tables shaped (depth-1) x width
# with every gate activity inside (0, 1); a freshly initialized bias -2
# network reports mean gate activity within 0.05 of sigmoid(-2).
# -------------------------------------------------------------------------

def test_criterion_6_analysis_pipeline(tmp_path, desk_corpus_10k):
    config = {
        "dataset": dataset_config_stanza(),
        "arch": {"kind": "highway", "depth": 20, "width": 50, "activation": "relu"},
        "init": {"kind": "he", "gate_bias": -4.0},
        "sgd": {"lr0": 0.05, "momentum": 0.9, "decay": 0.95, "epochs": 5, "batch_size": 64},
        "seed": 404,
        "out_dir": str(tmp_path / "run"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 0

    report_dir = tmp_path / "report"
    assert main(["analyze", "--config", str(config_path),
                 "--checkpoint", str(tmp_path / "run" / "model.ckpt"),
                 "--out-dir", str(report_dir)]) == 0
    for name in ("bias_map", "mean_activity", "sample_trace", "block_outputs"):
        table = load_matrix_csv(report_dir / f"{name}.csv")
        assert table.shape == (19, 50), name
    for name in ("mean_activity", "sample_trace"):
        table = load_matrix_csv(report_dir / f"{name}.csv")
        assert np.all(table > 0.0) and np.all(table < 1.0), name

    fresh = build_network("highway", 20, 50, desk_corpus_10k.features,
                          desk_corpus_10k.num_classes, "relu")
    init_network(fresh, InitScheme("he", -2.0, 55))
    report = gate_report(fresh, desk_corpus_10k)
    target = float(sigmoid(np.array(-2.0)))
    assert abs(report.mean_activity.mean() - target) < 0.05
    assert np.abs(report.mean_activity.mean(axis=1) - target).max() < 0.05
    say(f"criterion 6 PASS: 19x50 tables emitted; fresh-init mean activity "
        f"{report.mean_activity.mean():.4f} vs sigmoid(-2)={target:.4f}")


# -------------------------------------------------------------------------
# Criterion 7: format round-trips and corruption rejection for checkpoints,
# IDX, and CIFAR binary files (synthetic data only).
# -------------------------------------------------------------------------

def test_criterion_7_format_round_trips(tmp_path):
    net = build_network("highway", 4, 8, 6, 3, "tanh")
    init_network(net, InitScheme("he", -2.5, 12))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(net, ckpt)
    restored = load_checkpoint(ckpt)
    original = dict(net.parameters())
    assert all(p.tobytes() == original[name].tobytes() for name, p in restored.parameters())
    corrupted = bytearray(ckpt.read_bytes())
    corrupted[0] ^= 0xFF
    (tmp_path / "bad.ckpt").write_bytes(bytes(corrupted))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "bad.ckpt")

    ds = synthetic_digits(32, seed=3)
    save_idx(ds, tmp_path / "imgs", tmp_path / "labs")
    save_idx(load_idx(tmp_path / "imgs", tmp_path / "labs"), tmp_path / "imgs2", tmp_path / "labs2")
    assert (tmp_path / "imgs2").read_bytes() == (tmp_path / "imgs").read_bytes()
    assert (tmp_path / "labs2").read_bytes() == (tmp_path / "labs").read_bytes()
    broken = bytearray((tmp_path / "imgs").read_bytes())
    broken[3] = 0x99
    (tmp_path / "imgs_bad").write_bytes(bytes(broken))
    with pytest.raises(FormatError):
        load_idx(tmp_path / "imgs_bad", tmp_path / "labs")

    rng = Rng(8)
    pixels = np.rint(rng.uniform(0.0, 1.0, size=(10, 3072)) * 255.0) / 255.0
    cifar = Dataset(pixels, rng.integers(10, size=10).astype(np.int64), 10, "cifar10")
    save_cifar_binary(cifar, tmp_path / "batch.bin", "cifar10")
    again = load_cifar_binary([tmp_path / "batch.bin"], "cifar10")
    save_cifar_binary(again, tmp_path / "batch2.bin", "cifar10")
    assert (tmp_path / "batch2.bin").read_bytes() == (tmp_path / "batch.bin").read_bytes()
    (tmp_path / "batch_bad.bin").write_bytes((tmp_path / "batch.bin").read_bytes()[:-7])
    with pytest.raises(FormatError):
        load_cifar_binary([tmp_path / "batch_bad.bin"], "cifar10")
    say("criterion 7 PASS: checkpoint/IDX/CIFAR round-trip bit-exact, corruption rejected")


# -------------------------------------------------------------------------
# Criterion 8: the full-scale comparison table and trained-network imagery
# are explicitly out of scope; their substitutes are criteria 1, 2, 5, 6.
# This test pins the scope: the gated conv layer exists and is exercised,
# while no teacher/hint-training or augmentation machinery is shipped.
# -------------------------------------------------------------------------

def test_criterion_8_out_of_scope_substitutions():
    import highwaynet.data as data_mod
    import highwaynet.layers as layers_mod
    import highwaynet.optim as optim_mod
    import highwaynet.search as search_mod

    assert hasattr(layers_mod, "ConvHighwayLayer")
    for module in (layers_mod, data_mod, optim_mod, search_mod):
        names = " ".join(dir(module)).lower()
        assert "maxout" not in names
        assert "teacher" not in names
        assert "augment" not in names
    say("criterion 8 PASS: full-scale comparisons excluded; substitutes in place")
