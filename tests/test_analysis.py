import numpy as np
import pytest

from highwaynet.analysis import (
    AnalysisError,
    bias_activity_correlation,
    export_report,
    gate_report,
    gate_sparsity,
    load_matrix_csv,
)
from highwaynet.data import Dataset
from highwaynet.init import InitScheme, build_network, init_network
from highwaynet.ops import Rng, sigmoid
from highwaynet.optim import EVAL_BATCH
from test_data import traced_peak


def centered_inputs(count: int, width: int, seed: int, scale: float = 1.0) -> Dataset:
    """Zero-centered inputs bounded by 1; simplest probe distribution."""
    inputs = Rng(seed).uniform(-scale, scale, size=(count, width))
    labels = np.zeros(count, dtype=np.int64)
    return Dataset(inputs, labels, 2, "probe")


def fresh_highway(depth=8, width=50, bias=-2.0, seed=0, passthrough_input=False):
    net = build_network("highway", depth, width, width, 10, "relu")
    init_network(net, InitScheme("he", bias, seed))
    if passthrough_input:
        # let the probe distribution reach the gates unchanged
        net.input_layer.W_H[...] = np.eye(width)
        net.input_layer.b_H[...] = 0.0
        net.input_layer.activation = "identity"
    return net


class TestGateReport:
    def test_fresh_init_mean_activity_near_sigmoid_bias(self):
        net = fresh_highway(passthrough_input=True)
        ds = centered_inputs(512, 50, 1, scale=0.3)
        report = gate_report(net, ds)
        target = float(sigmoid(np.array(-2.0)))
        assert np.abs(report.mean_activity - target).max() < 0.05

    def test_single_sample_mean_equals_trace(self):
        net = fresh_highway(depth=4, width=6)
        ds = centered_inputs(1, 6, 2)
        report = gate_report(net, ds)
        assert np.array_equal(report.mean_activity, report.sample_trace)

    def test_bias_map_is_exact_copy(self):
        net = fresh_highway(depth=5, width=7, bias=-3.5)
        report = gate_report(net, centered_inputs(10, 7, 3))
        assert np.all(report.bias_map == -3.5)
        for row, layer in zip(report.bias_map, net.body):
            assert np.array_equal(row, layer.b_T)

    def test_shapes(self):
        net = fresh_highway(depth=6, width=9)
        report = gate_report(net, centered_inputs(20, 9, 4))
        assert report.bias_map.shape == (5, 9)
        assert report.mean_activity.shape == (5, 9)
        assert report.sample_trace.shape == (5, 9)
        assert report.block_outputs.shape == (5, 9)
        assert report.sample_count == 20

    def test_activities_in_open_interval(self):
        net = fresh_highway(depth=4, width=8)
        report = gate_report(net, centered_inputs(30, 8, 5))
        for field in (report.mean_activity, report.sample_trace):
            assert np.all(field > 0.0) and np.all(field < 1.0)

    def test_network_left_bit_unchanged(self):
        net = fresh_highway(depth=4, width=8)
        before = {name: p.tobytes() for name, p in net.parameters()}
        gate_report(net, centered_inputs(16, 8, 6))
        after = {name: p.tobytes() for name, p in net.parameters()}
        assert before == after

    def test_mean_invariant_to_sample_order(self):
        net = fresh_highway(depth=4, width=8)
        ds = centered_inputs(40, 8, 7)
        perm = Rng(8).permutation(40)
        shuffled = Dataset(ds.inputs[perm], ds.labels[perm], ds.num_classes, ds.name)
        a = gate_report(net, ds).mean_activity
        b = gate_report(net, shuffled).mean_activity
        assert np.allclose(a, b, atol=1e-12)

    def test_sample_cap(self):
        """Gate means stop at 10,000 samples: the 10,001st does not count."""
        net = fresh_highway(depth=3, width=6)
        ds = centered_inputs(10001, 6, 9)
        report = gate_report(net, ds)
        assert report.sample_count == 10000
        assert report.mean_activity.tobytes() == gate_report(
            net, Dataset(ds.inputs[:10000], ds.labels[:10000], 2, "probe")).mean_activity.tobytes()

    def test_means_equal_a_forward_caches_reference(self):
        """The layer-by-layer sums give the bits of sums over each batch's
        forward_caches, across full and short batches."""
        net = fresh_highway(depth=6, width=20)
        ds = centered_inputs(1100, 20, 12)
        sums = np.zeros((5, 20))
        for start in range(0, 1100, EVAL_BATCH):
            _, caches = net.forward_caches(ds.inputs[start:start + EVAL_BATCH])
            for row, cache in enumerate(caches[1:]):
                sums[row] += cache["t"].sum(axis=0)
        report = gate_report(net, ds, probe_index=700)
        assert report.mean_activity.tobytes() == (sums / 1100).tobytes()
        _, caches = net.forward_caches(ds.inputs[700:701])
        assert report.sample_trace.tobytes() == np.stack([c["t"][0] for c in caches[1:]]).tobytes()

    def test_peak_does_not_grow_with_depth(self):
        """Over 1,024 samples (two batches of 512) a highway-30 report holds
        about one layer's cache at a time: its tracemalloc peak is within
        64 KB of a highway-5's, and under a quarter of the 24.6 MB that one
        batch's caches for all 30 layers take."""
        ds = centered_inputs(1024, 50, 13)
        peaks = {}
        for depth in (5, 30):
            net = fresh_highway(depth=depth, width=50)
            peaks[depth] = traced_peak(lambda: gate_report(net, ds))[1]
        full_caches = 30 * 4 * EVAL_BATCH * 50 * 8  # x, a, h and t per layer
        assert peaks[30] <= peaks[5] + 64 * 2**10
        assert peaks[30] < full_caches / 4

    def test_plain_body_unsupported(self):
        net = build_network("plain", 4, 6, 6, 3)
        init_network(net, InitScheme("he", -1.0, 0))
        with pytest.raises(AnalysisError, match="plain"):
            gate_report(net, centered_inputs(5, 6, 10))

    def test_probe_index_validated(self):
        net = fresh_highway(depth=3, width=6)
        with pytest.raises(ValueError, match="probe"):
            gate_report(net, centered_inputs(5, 6, 11), probe_index=5)

    @pytest.mark.parametrize("probe_index", [0, -1])
    def test_empty_sample_set_refused(self, probe_index):
        """No probe index lies in [0, 0), so the probe check refuses it."""
        net = fresh_highway(depth=3, width=6)
        with pytest.raises(ValueError, match=r"outside \[0, 0\)"):
            gate_report(net, centered_inputs(0, 6, 11), probe_index=probe_index)


class TestGateSparsity:
    def make_report(self, activity):
        from highwaynet.analysis import GateReport
        m = np.asarray(activity)
        return GateReport(np.zeros_like(m), m, m, np.zeros_like(m), 1)

    def test_all_saturated_off(self):
        report = self.make_report(np.full((3, 4), 1e-4))
        s = gate_sparsity(report)
        assert np.all(s["mean"] == 1.0) and np.all(s["sample"] == 1.0)

    def test_half_open_gates(self):
        report = self.make_report(np.full((2, 5), 0.5))
        s = gate_sparsity(report)
        assert np.all(s["mean"] == 0.0) and np.all(s["sample"] == 0.0)

    def test_mixed_rows(self):
        report = self.make_report(np.array([[0.05, 0.5], [0.5, 0.5]]))
        assert np.array_equal(gate_sparsity(report)["mean"], np.array([0.5, 0.0]))


class TestCorrelation:
    def test_constant_bias_gives_nan(self):
        net = fresh_highway(depth=4, width=6)
        report = gate_report(net, centered_inputs(8, 6, 12))
        assert np.isnan(bias_activity_correlation(report))

    def test_varied_biases_give_finite_value(self):
        net = fresh_highway(depth=5, width=6)
        for i, layer in enumerate(net.body):
            layer.b_T[...] = -1.0 - 0.5 * i
        report = gate_report(net, centered_inputs(16, 6, 13))
        value = bias_activity_correlation(report)
        assert np.isfinite(value) and -1.0 <= value <= 1.0


class TestExport:
    def test_csv_shape_contract(self, tmp_path):
        net = fresh_highway(depth=6, width=9)
        report = gate_report(net, centered_inputs(12, 9, 14))
        paths = export_report(report, tmp_path)
        assert len(paths) == 4
        for path in paths:
            lines = open(path).read().strip().splitlines()
            assert len(lines) == 1 + 5                      # header + one row per layer
            assert lines[0] == ",".join(f"block_{j}" for j in range(9))
            assert all(len(line.split(",")) == 9 for line in lines)

    def test_reexport_idempotent(self, tmp_path):
        net = fresh_highway(depth=4, width=5)
        report = gate_report(net, centered_inputs(6, 5, 15))
        export_report(report, tmp_path / "a")
        export_report(report, tmp_path / "b")
        for name in ("bias_map", "mean_activity", "sample_trace", "block_outputs"):
            assert (tmp_path / "a" / f"{name}.csv").read_bytes() == \
                   (tmp_path / "b" / f"{name}.csv").read_bytes()

    def test_round_trip_full_precision(self, tmp_path):
        net = fresh_highway(depth=4, width=5)
        report = gate_report(net, centered_inputs(6, 5, 16))
        export_report(report, tmp_path)
        assert np.array_equal(load_matrix_csv(tmp_path / "mean_activity.csv"),
                              report.mean_activity)
        assert np.array_equal(load_matrix_csv(tmp_path / "block_outputs.csv"),
                              report.block_outputs)

    def test_unwritable_table_names_its_path(self, tmp_path):
        report = gate_report(fresh_highway(depth=3, width=4), centered_inputs(3, 4, 17))
        (tmp_path / "bias_map.csv").mkdir()
        with pytest.raises(OSError, match=r"could not write .*bias_map\.csv"):
            export_report(report, tmp_path)

    def test_empty_file_refused(self, tmp_path):
        path = tmp_path / "mean_activity.csv"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="no header line in .*mean_activity.csv"):
            load_matrix_csv(path)
