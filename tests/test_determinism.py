"""A property test of the determinism contracts (README "Notes on determinism").

Small drawn runs over all three body kinds, every activation, batch sizes
from 1 up and conv kernels of 1, 3 and 5 must each:
- train to the same theta twice from one seed;
- save, load and save again to the same checkpoint bytes;
- rank a search the same at jobs=1 and jobs=2;
- re-run the search's best trial alone, through run_trial, to its row.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from highwaynet.checkpoint import load_checkpoint, save_checkpoint
from highwaynet.data import Dataset
from highwaynet.ops import ACTIVATIONS, Rng
from highwaynet.search import NetworkTemplate, SearchSpace, TrainConfig, fit, run_search, run_trial

CLASSES = 3


@st.composite
def runs(draw):
    """(template, byte dataset, TrainConfig, seed): a net of depth 1-3 on
    12-40 samples of 16 features, or of 1-3 channels of 3x3 to 6x6 images."""
    kind = draw(st.sampled_from(["plain", "highway", "conv-highway"]))
    count, seed = draw(st.integers(12, 40)), draw(st.integers(0, 2**32 - 1))
    shape, kernel = None, 3
    if kind == "conv-highway":
        side = draw(st.integers(3, 6))
        shape, kernel = (draw(st.integers(1, 3)), side, side), draw(st.sampled_from([1, 3, 5]))
    features = 16 if shape is None else int(np.prod(shape))
    rng = Rng(seed)
    dataset = Dataset(rng.integers(256, size=(count, features)).astype(np.uint8),
                      rng.integers(CLASSES, size=count), CLASSES, "drawn")
    template = NetworkTemplate(kind, draw(st.integers(1, 3)), 0 if shape else 8, features,
                               CLASSES, image_shape=shape, kernel_size=kernel)
    config = TrainConfig(lr0=draw(st.sampled_from([0.0, 0.01, 0.3])), momentum=0.9, decay=0.9,
                         epochs=2, batch_size=draw(st.integers(1, count)),
                         activation=draw(st.sampled_from(ACTIVATIONS)),
                         gate_bias=None if kind == "plain" else -1.0)
    return template, dataset, config, seed


def ranking(results) -> list:
    return [(r.trial, r.status, r.best_loss, r.final_loss, r.config, r.seed) for r in results]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                 HealthCheck.function_scoped_fixture])
@given(run=runs())
def test_determinism_contracts(tmp_path_factory, run):
    template, dataset, config, seed = run
    net, _ = fit(template, dataset, config, seed)
    again, _ = fit(template, dataset, config, seed)
    assert net.theta.tobytes() == again.theta.tobytes()

    first, second = (tmp_path_factory.mktemp("ckpt") / name for name in ("a.ckpt", "b.ckpt"))
    save_checkpoint(net, first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()

    space = SearchSpace(trials=3, epochs=1, batch_size=config.batch_size,
                        activations=tuple(ACTIVATIONS))
    serial = run_search(space, template, dataset, seed, jobs=1)
    assert ranking(run_search(space, template, dataset, seed, jobs=2)) == ranking(serial)
    best = serial[0]
    rerun = run_trial(template, dataset, best.config, best.seed, trial=best.trial)
    assert ranking([rerun]) == ranking([best])
