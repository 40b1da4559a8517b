"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They run the workloads at smoke size in this process, plus one launcher
run, and write only under .bench_out/ at the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from env import pin_threads  # noqa: E402

pin_threads(1)  # takes effect only if numpy is not loaded yet

import numpy as np  # noqa: E402

import checks  # noqa: E402
import counts  # noqa: E402
import metrics  # noqa: E402
import runpass  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SMOKE = workloads.Sizes(corpus=600, records=128, epochs=1, reps=1, setups=1)
SCRATCH = os.path.join(ROOT, ".bench_out", "tests")


@pytest.fixture
def workdir(request):
    path = os.path.join(SCRATCH, request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _pass(workload, seed, trace, workdir):
    return runpass.run_pass(workload, seed, SMOKE, trace, workdir, blas_threads=1)


def _fp(result):
    return json.dumps(result["fingerprint"], sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_every_check(workload, workdir):
    result = _pass(workload, 1, False, workdir)
    assert result["checks"]["attempted"] > 0
    assert result["checks"]["failed"] == 0, result["checks"]["failures"]
    assert all(v > 0 for v in result["e2e"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_fingerprint_and_tracing_changes_nothing(workload, workdir):
    first = _pass(workload, 3, False, workdir)
    again = _pass(workload, 3, False, workdir)
    traced = _pass(workload, 3, True, workdir)
    assert _fp(first) == _fp(again)
    assert _fp(first) == _fp(traced)
    assert traced["checks"]["failed"] == 0, traced["checks"]["failures"]
    assert traced["span_metrics"]["trace.spans"] > 0


@pytest.mark.parametrize("workload", ["train-highway50", "conv-cifar"])
def test_different_seed_different_inputs(workload):
    assert workloads.inputs_digest(workload, 1, SMOKE) != workloads.inputs_digest(workload, 2, SMOKE)
    assert workloads.inputs_digest(workload, 1, SMOKE) == workloads.inputs_digest(workload, 1, SMOKE)


def test_speed_scales_by_the_median_sample_in_a_widened_window():
    from speed import MIN_WINDOW_S, REFERENCE_S, Speed

    speed = Speed()
    speed.at = [0.0, 1.0, 2.0, 3.0, 10.0]
    speed.cost = [2 * REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S, 4 * REFERENCE_S, REFERENCE_S]
    assert speed.scaled(0.0, 4.0) == pytest.approx(4.0 / 3.0)
    # a short window is widened to MIN_WINDOW_S around its middle
    assert speed.slowdown(10.0 - MIN_WINDOW_S / 4, 10.0) == pytest.approx(1.0)
    # no sample near the window: the whole pass's median
    assert speed.slowdown(50.0, 50.1) == pytest.approx(2.0)


def test_speed_slowdown_in_uses_only_the_given_windows():
    from speed import REFERENCE_S, Speed

    speed = Speed()
    speed.at = [0.0, 0.5, 5.0, 9.0, 9.5]
    speed.cost = [REFERENCE_S, REFERENCE_S, 9 * REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    assert speed.slowdown_in([(0.0, 1.0), (9.0, 10.0)]) == pytest.approx(1.5)
    assert speed.slowdown_in([(20.0, 21.0)]) == pytest.approx(2.0)


def test_speed_burst_samples_and_reaps_its_helpers():
    from speed import Speed

    speed = Speed()
    start = time.perf_counter()
    speed.burst(0.2, 2)
    assert len(speed.cost) >= 20 and all(start <= t < start + 1.0 for t in speed.at)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_speed_samples_while_started():
    from speed import Speed

    speed = Speed()
    speed.start()
    try:
        pass
    finally:
        speed.stop()
    assert len(speed.cost) >= 3 and all(c > 0 for c in speed.cost)


def test_uninstall_restores_every_function():
    from highwaynet import layers, ops, optim, search

    before = (ops.matmul, layers.matmul, optim.network_forward_backward, search.train,
              layers.HighwayLayer.forward)
    tracer = Tracer()
    tracer.install()
    try:
        assert layers.matmul is not before[1] and search.train is not before[3]
    finally:
        tracer.uninstall()
    after = (ops.matmul, layers.matmul, optim.network_forward_backward, search.train,
             layers.HighwayLayer.forward)
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize("kind", ["highway", "plain"])
def test_step_flop_count_matches_traced_gemms(kind):
    from highwaynet import data, init, layers

    ds = data.synthetic_digits(64, 0)
    net = init.build_network(kind, 5, 20, ds.features, ds.num_classes)
    init.init_network(net, init.InitScheme("he", -2.0, 0))
    tracer = Tracer()
    tracer.install()
    try:
        layers.network_forward_backward(net, ds.inputs, ds.labels)
    finally:
        tracer.uninstall()
    cols = tracer.arrays()
    gemm = cols["name"] == list(cols["names"]).index("ops.matmul")
    assert cols["size"][gemm].sum() == counts.step_flop(net, 64)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_compare_accepts_the_reference_and_rejects_a_perturbed_one(workload):
    refs = checks.load_references()
    ref = checks.reference_for(refs, 1, workload, 1)
    check = checks.Checker()
    checks.compare(check, refs, workload, ref, ref)
    assert check.reference_values > 0 and check.failed == 0

    bad = json.loads(json.dumps(ref))
    rows = bad["epochs"] if "epochs" in bad else bad["search"]["highway"]
    col = 0 if "epochs" in bad else 2
    rows[-1][col] *= 1 + 10 * refs["tolerance"]["rel"]
    check = checks.Checker()
    checks.compare(check, refs, workload, bad, ref)
    assert check.failed == 1, check.failures


def _model_batch(kind):
    from highwaynet import data, init

    if kind == "conv-highway":
        ds = workloads.cifar_records(16, 0)
        net = init.build_network(kind, 2, 0, ds.features, 10, image_shape=(3, 32, 32))
    else:
        ds = data.synthetic_digits(16, 0)
        net = init.build_network(kind, 4, 12, ds.features, ds.num_classes)
    init.init_network(net, init.InitScheme("he", -2.0, 0))
    return net, ds.inputs, ds.labels


@pytest.mark.parametrize("kind", ["highway", "plain", "conv-highway"])
def test_check_model_passes_and_leaves_the_parameters_unchanged(kind):
    net, x, labels = _model_batch(kind)
    before = [p.copy() for _, p in net.parameters()]
    check = checks.Checker()
    checks.check_model(check, net, x, labels, kind)
    assert check.attempted == 2 and check.failed == 0, check.failures
    assert all(np.array_equal(a, p) for a, (_, p) in zip(before, net.parameters()))


def test_check_model_skips_a_sample_at_a_relu_kink():
    # A pre-activation 1e-9 from 0: every gradient step crosses it.
    net, x, labels = _model_batch("highway")
    p = dict(net.parameters())
    p["input.b_H"][0] -= x[0] @ p["input.W_H"][0] + p["input.b_H"][0] - 1e-9
    assert 0 not in checks.clear_of_kinks(net, x)
    check = checks.Checker()
    checks.check_model(check, net, x, labels, "highway")
    assert check.attempted == 2 and check.failed == 0, check.failures


@pytest.mark.parametrize("kind", ["highway", "conv-highway"])
def test_check_model_catches_a_wrong_gradient(kind, monkeypatch):
    from highwaynet import layers

    cls = layers.ConvHighwayLayer if kind == "conv-highway" else layers.HighwayLayer
    backward = cls.backward

    def off_by_a_little(self, cache, dL_dy):
        dL_dx, grads = backward(self, cache, dL_dy)
        return dL_dx, {**grads, "b_T": grads["b_T"] * 1.001}

    monkeypatch.setattr(cls, "backward", off_by_a_little)
    net, x, labels = _model_batch(kind)
    check = checks.Checker()
    checks.check_model(check, net, x, labels, kind)
    assert check.failures == [f for f in check.failures if "gradient" in f] and check.failed == 1


def test_check_model_catches_a_wrong_forward(monkeypatch):
    from highwaynet import layers

    sigmoid = layers.sigmoid
    monkeypatch.setattr(layers, "sigmoid", lambda s: sigmoid(s) * (1 - 1e-6))
    net, x, labels = _model_batch("highway")
    check = checks.Checker()
    checks.check_model(check, net, x, labels, "highway")
    assert check.failed == 1 and "reference loss" in check.failures[0]


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _launch(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_launcher_prints_every_per_layer_metric():
    out = _launch(ROOT, "--workload", "conv-cifar", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(metrics.PER_LAYER)
    assert all(m["unit"] == metrics.PER_LAYER[k] for k, m in result["metrics"].items())


def test_launcher_fails_without_the_library(workdir):
    os.makedirs(workdir)
    shutil.copytree(BENCH, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    out = _launch(workdir, "--workload", "conv-cifar", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
