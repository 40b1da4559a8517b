import numpy as np
import pytest

from highwaynet.data import Dataset, batches, synthetic_digits
from highwaynet.init import InitScheme, build_network, init_network
from highwaynet.layers import network_forward_backward
from highwaynet.ops import Rng, ShapeError
from highwaynet.optim import SgdConfig, evaluate, sgd_step, train


class TestSgdStep:
    def test_hand_example(self):
        w = np.array([1.0])
        v = np.array([0.0])
        sgd_step(w, np.array([0.5]), v, lr=0.1, momentum=0.9)
        assert v[0] == pytest.approx(-0.05)
        assert w[0] == pytest.approx(0.95)

    def test_zero_momentum_is_plain_sgd(self):
        w = np.array([2.0, -1.0])
        g = np.array([0.5, 0.25])
        sgd_step(w, g, np.zeros(2), lr=0.2, momentum=0.0)
        assert np.allclose(w, np.array([2.0, -1.0]) - 0.2 * g)

    def test_velocity_decays_geometrically_without_gradient(self):
        w = np.zeros(1)
        v = np.array([1.0])
        for step in range(5):
            sgd_step(w, np.zeros(1), v, lr=0.1, momentum=0.5)
            assert v[0] == pytest.approx(0.5 ** (step + 1))

    def test_zero_lr_leaves_parameters_unchanged(self):
        w = np.array([3.0])
        sgd_step(w, np.array([10.0]), np.zeros(1), lr=0.0, momentum=0.9)
        assert w[0] == 3.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sgd_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9)


class TestDescentProperty:
    def test_small_step_decreases_batch_loss(self):
        for seed in range(10):
            net = build_network("highway", 3, 6, 5, 3, "tanh")
            init_network(net, InitScheme("he", -1.0, seed))
            x = Rng(seed + 10).normal(size=(12, 5))
            labels = Rng(seed + 20).integers(3, size=12)
            loss_before, grads = network_forward_backward(net, x, labels)
            grad = np.concatenate([grads[name] for name, _ in net.parameters()], axis=None)
            sgd_step(net.theta, grad, np.zeros_like(net.theta), lr=1e-4, momentum=0.0)
            loss_after, _ = network_forward_backward(net, x, labels)
            assert loss_after < loss_before


@pytest.fixture(scope="module")
def toy_two_class():
    # linearly separable blobs in 4 dimensions
    rng = Rng(77)
    n = 60
    a = rng.normal(0.0, 0.3, size=(n, 4)) + np.array([1.5, 0.0, 1.0, -1.0])
    b = rng.normal(0.0, 0.3, size=(n, 4)) + np.array([-1.5, 0.5, -1.0, 1.0])
    inputs = np.concatenate([a, b])
    labels = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    return Dataset(inputs, labels, 2, "blobs")


class TestSgdConfig:
    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [1.5, 2.0, "2", True, 0])
    def test_counts_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            SgdConfig(0.1, **{field: value})

    def test_numpy_integers_pass(self):
        assert SgdConfig(0.1, epochs=np.int64(2), batch_size=np.int32(8)).epochs == 2

    @pytest.mark.parametrize("field", ["lr0", "momentum", "decay"])
    @pytest.mark.parametrize("value", [True, False])
    def test_rates_refuse_a_bool(self, field, value):
        """True and False compare as 1 and 0, inside every range but decay's False."""
        with pytest.raises(ValueError, match=f"{field} must be a number, got {value}"):
            SgdConfig(**{"lr0": 0.1, field: value})


def cached_evaluate(net, ds: Dataset, batch_size: int):
    """evaluate through the training forward: every layer cache kept and the
    head's gradients computed, then dropped."""
    total_loss, correct = 0.0, 0
    for xb, yb in batches(ds, batch_size):
        y, _ = net.forward_caches(xb)
        loss, probs, _, _ = net.head.forward_backward(net._flatten(y), yb)
        total_loss += loss * xb.shape[0]
        correct += int((probs.argmax(axis=1) == yb).sum())
    return total_loss / ds.count, correct / ds.count


class TestEvaluate:
    def test_equals_cached_path(self, small_net):
        net, x = small_net
        x = Rng(61).normal(size=(600, *x.shape[1:]))  # 512 rows, then a short last batch
        ds = Dataset(x, Rng(62).integers(3, size=x.shape[0]), 3, "t")
        assert evaluate(net, ds) == cached_evaluate(net, ds, 512)

    def test_empty_dataset_refused(self, small_net):
        net, x = small_net
        with pytest.raises(ValueError, match="empty dataset"):
            evaluate(net, Dataset(x[:0], np.zeros(0, dtype=np.int64), 3, "empty"))


def per_tensor_train(net, ds: Dataset, cfg: SgdConfig, rng: Rng):
    """train's updates, one tensor at a time through a velocity dict."""
    velocity = {name: np.zeros_like(p) for name, p in net.parameters()}
    for epoch in range(cfg.epochs):
        lr = cfg.lr0 * cfg.decay ** epoch
        for xb, yb in batches(ds, cfg.batch_size, rng):
            _, grads = network_forward_backward(net, xb, yb)
            for name, p in net.parameters():
                v = velocity[name]
                v *= cfg.momentum
                v -= lr * grads[name]
                p += v


class TestTrain:
    @pytest.mark.parametrize("kind", ["plain", "highway"])
    def test_flat_updates_equal_per_tensor_updates(self, toy_two_class, kind):
        cfg = SgdConfig(0.05, 0.9, 0.9, epochs=3, batch_size=16)
        nets = []
        for _ in range(2):
            net = build_network(kind, 3, 5, 4, 2, "relu")
            nets.append(init_network(net, InitScheme("he", -1.0, 12)))
        train(nets[0], toy_two_class, cfg, Rng(13))
        per_tensor_train(nets[1], toy_two_class, cfg, Rng(13))
        assert nets[0].theta.tobytes() == nets[1].theta.tobytes()

    def test_separable_toy_reaches_full_accuracy(self, toy_two_class):
        net = build_network("highway", 2, 8, 4, 2, "tanh")
        init_network(net, InitScheme("he", -1.0, 5))
        _, log = train(net, toy_two_class, SgdConfig(0.1, 0.9, 1.0, epochs=50, batch_size=16),
                       Rng(6))
        assert not log.diverged
        assert log.entries[-1].accuracy == 1.0
        assert len(log.entries) <= 50

    def test_lr_schedule_is_exact(self, toy_two_class):
        net = build_network("plain", 2, 4, 4, 2, "tanh")
        init_network(net, InitScheme("he", -1.0, 1))
        cfg = SgdConfig(0.05, 0.9, 0.8, epochs=4, batch_size=32)
        _, log = train(net, toy_two_class, cfg, Rng(2))
        for e, entry in enumerate(log.entries):
            assert entry.lr == 0.05 * 0.8 ** e

    def test_same_seed_identical_log(self, toy_two_class):
        logs = []
        for _ in range(2):
            net = build_network("highway", 3, 6, 4, 2, "tanh")
            init_network(net, InitScheme("he", -2.0, 9))
            _, log = train(net, toy_two_class, SgdConfig(0.05, 0.9, 0.95, 5, 16), Rng(123))
            logs.append(log)
        a, b = logs
        assert [e.loss for e in a.entries] == [e.loss for e in b.entries]
        assert [e.accuracy for e in a.entries] == [e.accuracy for e in b.entries]
        assert [e.lr for e in a.entries] == [e.lr for e in b.entries]

    def test_divergence_reported_not_propagated(self, toy_two_class):
        net = build_network("highway", 3, 6, 4, 2, "relu")
        init_network(net, InitScheme("he", -1.0, 3))
        _, log = train(net, toy_two_class, SgdConfig(1e200, 0.9, 1.0, 5, 16), Rng(4))
        assert log.diverged
        assert all(np.isfinite(e.loss) for e in log.entries)
        assert log.best_loss() == float("inf") or np.isfinite(log.best_loss())

    def test_divergence_found_by_the_epoch_evaluation(self):
        """One step per epoch: its loss, from the fresh net, is finite, so only
        the evaluation after it can find the divergence."""
        net = build_network("highway", 2, 8, 784, 10, "relu")
        init_network(net, InitScheme("he", -2.0, 1))
        _, log = train(net, synthetic_digits(64, 2), SgdConfig(1e300, 0.9, 1.0, 3, 64), Rng(3))
        assert log.diverged and log.entries == []

    def test_numpy_lr0_is_written_as_a_float(self, toy_two_class, tmp_path):
        net = build_network("plain", 2, 4, 4, 2, "tanh")
        init_network(net, InitScheme("he", -1.0, 7))
        _, log = train(net, toy_two_class, SgdConfig(np.float64(0.05), epochs=1), Rng(8))
        log.write_csv(tmp_path / "log.csv")
        assert (tmp_path / "log.csv").read_text().splitlines()[1].split(",")[3] == "0.05"

    def test_csv_columns(self, toy_two_class, tmp_path):
        net = build_network("plain", 2, 4, 4, 2, "tanh")
        init_network(net, InitScheme("he", -1.0, 7))
        _, log = train(net, toy_two_class, SgdConfig(0.05, 0.9, 1.0, 3, 32), Rng(8))
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,accuracy,lr,seconds"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == log.entries[0].loss
