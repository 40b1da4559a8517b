"""The benchmark's workloads.

Each workload makes its inputs from the seed, sets up, then makes the
library calls the CLI makes (`cmd_train`, `cmd_analyze`, `cmd_search`), in
the same order.  Library functions are always reached through their module
(`optim.train`, not a name imported by value) so the tracer's wrappers see
the benchmark's own calls too.

A workload is two functions: `run` does the timed (and, in a traced pass,
traced) work and returns its outputs; `finish` runs after the tracer is
removed, checks the outputs and returns end-to-end timings, phase timings,
the output fingerprint and computed counts.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler

import numpy as np

from highwaynet import analysis, checkpoint, data, init, ops, optim, search

import checks
import counts

WORKLOADS = ("train-highway50", "search-shallow", "conv-cifar")
SEARCH_JOBS = 2

# train-highway50: the ROADMAP's deep-net epoch.  Gate bias -4: at lr 0.02
# a -2 bias diverged in epoch 2.
TRAIN_NET = dict(kind="highway", depth=50, width=50, activation="relu")
TRAIN_INIT = ("he", -4.0)
TRAIN_SGD = dict(lr0=0.02, momentum=0.9, decay=0.95, batch_size=64)

# search-shallow: relu only and ranges that do not diverge, so every trial
# runs all its epochs and the work does not depend on the seed.
SEARCH_SPACE = search.SearchSpace(
    lr0=(0.002, 0.02), momentum=(0.5, 0.9), decay=(0.9, 1.0),
    activations=("relu",), gate_bias=(-4.0, -1.0), trials=4, epochs=2, batch_size=64)
SEARCH_TEMPLATES = (("highway", 10, 50), ("plain", 10, 71))
# Seconds of speed sampling with no pool worker alive, before the first
# search and after each repetition; search timings are scaled by these.
IDLE_S = 1.0

# conv-cifar
CONV_NET = dict(kind="conv-highway", depth=2, width=0, activation="relu",
                image_shape=(3, 32, 32), kernel_size=3)
CONV_INIT = ("he", -2.0)
CONV_SGD = dict(lr0=0.01, momentum=0.9, decay=0.95, batch_size=64)


@dataclass(frozen=True)
class Sizes:
    corpus: int = 10000   # synthetic digits (train, search)
    records: int = 1024   # CIFAR records (conv)
    epochs: int = 1       # training epochs (train, conv)
    reps: int = 1         # repetitions of both searches (search)
    setups: int = 5       # set-ups timed; the median is setup_s


# Seconds one unit of work took on a 2-core x86-64 box with 1 BLAS thread.
# They turn a time budget into fixed work counts, so two commits measured
# with the same --seconds do exactly the same work.
NOMINAL = {
    "train-highway50": {"epoch": 3.8, "fixed": 3.0},
    "search-shallow": {"rep": 8.2},
    "conv-cifar": {"epoch": 5.7, "fixed": 1.0},
}


def sizes_for(workload: str, budget: float) -> Sizes:
    cost = NOMINAL[workload]
    if workload == "search-shallow":
        return Sizes(reps=max(1, round(budget / cost["rep"])))
    epochs = max(1, round((budget - cost["fixed"]) / cost["epoch"]))
    return Sizes(epochs=epochs, setups=7 if workload == "conv-cifar" else 5)


class Clock:
    """Times the benchmark's phases; with a tracer, each phase is a span.

    Phase times are reported scaled to the reference speed (speed.py) unless
    asked for as wall seconds.
    """

    def __init__(self, speed, tracer=None):
        self.speed = speed
        self.tracer = tracer
        self.windows: dict[str, list[tuple[float, float]]] = defaultdict(list)

    @contextmanager
    def phase(self, name: str):
        with self.tracer.span(f"bench.{name}") if self.tracer else nullcontext():
            started = time.perf_counter()
            try:
                yield
            finally:
                self.windows[name].append((started, time.perf_counter()))

    @property
    def times(self) -> dict:
        """Wall seconds of every phase."""
        return {name: [t1 - t0 for t0, t1 in w] for name, w in self.windows.items()}

    def median(self, name: str, wall: bool = False) -> float:
        return statistics.median((t1 - t0) if wall else self.speed.scaled(t0, t1)
                                 for t0, t1 in self.windows[name])

    def idle(self) -> None:
        """Sample the speed for IDLE_S while nothing else runs (not a
        traced phase)."""
        started = time.perf_counter()
        self.speed.burst(IDLE_S, SEARCH_JOBS)
        self.windows["idle"].append((started, time.perf_counter()))

    def set_ups(self, count: int, set_up):
        """Time `count` calls of `set_up`; return what the last one made."""
        for _ in range(count):
            with self.phase("setup"):
                made = set_up()
        return made


# -- inputs --------------------------------------------------------------------

def cifar_records(count: int, seed: int) -> data.Dataset:
    """CIFAR-10-shaped images: a smooth prototype per class under noise,
    quantized to bytes so they survive the binary format exactly."""
    rng = ops.Rng(ops.derive_seed(seed, 7))
    coarse = rng.uniform(0.0, 1.0, size=(10, 3, 8, 8))
    protos = np.kron(coarse, np.ones((1, 1, 4, 4)))
    labels = rng.integers(10, size=count).astype(np.int64)
    noise = rng.uniform(0.0, 0.4, size=(count, 3, 32, 32))
    pixels = np.rint(np.clip(0.6 * protos[labels] + noise, 0.0, 1.0) * 255.0).astype(np.uint8)
    return data.Dataset(pixels.astype(np.float64) / 255.0, labels, 10, "cifar10")


def _digits(size: int, seed: int) -> data.Dataset:
    # dataset seed = run seed, as cmd_train and cmd_search resolve it
    return data.synthetic_digits(size, seed)


def inputs_digest(workload: str, seed: int, sizes: Sizes) -> str:
    """Hash of the generated inputs (for the seed tests)."""
    ds = cifar_records(sizes.records, seed) if workload == "conv-cifar" else _digits(sizes.corpus, seed)
    return hashlib.sha256(ds.inputs.tobytes() + ds.labels.tobytes()).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _step_counts(nets, batch: int) -> dict:
    return {
        "step_gemm_gflop": sum(counts.step_flop(n, batch) for n in nets) / 1e9,
        "step_gemm_mb": sum(counts.step_bytes(n, batch) for n in nets) / 1e6,
        "sgd_step_tensors": max(len(n.parameters()) for n in nets),
    }


def _timings(clock: Clock, epoch_seconds: dict, scaled_epochs: dict, scaled_commands: list,
             slowdown: float) -> dict:
    """End-to-end timings, scaled ("e2e") and as wall seconds ("wall").

    The epoch arguments map each trained net kind to its epochs' wall and
    scaled seconds; epoch_s sums the kinds' median epochs.  command_s is the
    median command phase.
    """
    def summary(epochs: dict, setup: float, commands: list) -> dict:
        return {"setup_s": setup,
                "epoch_s": sum(statistics.median(v) for v in epochs.values()),
                "command_s": statistics.median(commands)}

    return {"e2e": summary(scaled_epochs, clock.median("setup"), scaled_commands),
            "wall": summary(epoch_seconds, clock.median("setup", wall=True),
                            clock.times["command"]),
            "slowdown": slowdown, "epoch_seconds": epoch_seconds}


def _in_process_timings(clock: Clock, epoch_seconds: dict) -> dict:
    """Timings of a workload that trains in this process: its epochs ran
    back to back from the start of the train phase, and each epoch and
    command phase is scaled by the speed sampled during it."""
    speed = clock.speed
    start = clock.windows["train"][0][0]
    scaled = {}
    for kind, seconds in epoch_seconds.items():
        edges = start + np.cumsum([0.0, *seconds])
        scaled[kind] = [speed.scaled(a, b) for a, b in zip(edges[:-1], edges[1:])]
    commands = [speed.scaled(t0, t1) for t0, t1 in clock.windows["command"]]
    return _timings(clock, epoch_seconds, scaled, commands, speed.slowdown())


# -- train-highway50 -------------------------------------------------------------

def _train_and_save(net, ds, sgd: dict, epochs: int, seed: int, clock: Clock, workdir: str):
    """cmd_train after set-up: train, write log.csv, save the checkpoint."""
    config = optim.SgdConfig(epochs=epochs, **sgd)
    with clock.phase("train"):
        _, log = optim.train(net, ds, config, ops.Rng(ops.derive_seed(seed, 2)))
    path = os.path.join(workdir, "model.ckpt")
    with clock.phase("save"):
        log.write_csv(os.path.join(workdir, "log.csv"))
        checkpoint.save_checkpoint(net, path)
    return log, path


def _model_batch(ds: data.Dataset):
    return ds.inputs[:checks.MODEL_POOL], ds.labels[:checks.MODEL_POOL]


def _check_trained(check, out: dict, epochs: int, what: str) -> None:
    log = out["log"]
    checks.check_log(check, log, epochs, what)
    if log.entries:
        last = log.entries[-1]
        check.check(tuple(out["evaluated"]) == (last.loss, last.accuracy),
                    f"{what}: evaluate {out['evaluated']} differs from the last logged epoch")
    loaded = out["loaded"] if "loaded" in out else checkpoint.load_checkpoint(out["ckpt"])
    checks.check_round_trip(check, out["net"], loaded, what)
    checks.check_model(check, loaded, *_model_batch(out["ds"]), what)


def _trained_fingerprint(out: dict) -> dict:
    return {
        "inputs": out["ds"].count,
        "epochs": [[e.loss, e.accuracy] for e in out["log"].entries],
        "eval": list(out["evaluated"]),
        "checkpoint_sha256": _file_sha(out["ckpt"]),
    }


def run_train(seed: int, sizes: Sizes, clock: Clock, workdir: str) -> dict:
    def set_up():
        ds = _digits(sizes.corpus, seed)
        net = init.build_network(TRAIN_NET["kind"], TRAIN_NET["depth"], TRAIN_NET["width"],
                                 ds.features, ds.num_classes, TRAIN_NET["activation"])
        init.init_network(net, init.InitScheme(*TRAIN_INIT, ops.derive_seed(seed, 1)))
        return ds, net

    def command(ds, net):
        report_dir = os.path.join(workdir, "analyze")
        with clock.phase("command"):
            log, ckpt = _train_and_save(net, ds, TRAIN_SGD, sizes.epochs, seed, clock, workdir)
            with clock.phase("eval"):
                evaluated = optim.evaluate(net, ds)
            # cmd_analyze
            with clock.phase("analyze"):
                loaded = checkpoint.load_checkpoint(ckpt)
                report = analysis.gate_report(loaded, ds, 0)
                analysis.export_report(report, report_dir)
                analysis.gate_sparsity(report)
                correlation = analysis.bias_activity_correlation(report)
        return dict(ds=ds, net=net, log=log, ckpt=ckpt, evaluated=evaluated, loaded=loaded,
                    report=report, report_dir=report_dir, correlation=correlation)

    return command(*clock.set_ups(sizes.setups, set_up))


def finish_train(out: dict, sizes: Sizes, clock: Clock, check) -> dict:
    _check_trained(check, out, sizes.epochs, "train-highway50")
    report, report_dir = out["report"], out["report_dir"]
    checks.check_gate_tables(
        check, report, TRAIN_NET["depth"] - 1, TRAIN_NET["width"],
        lambda name: analysis.load_matrix_csv(os.path.join(report_dir, f"{name}.csv")))
    epoch_seconds = {"highway": [e.seconds for e in out["log"].entries]}
    return {
        **_in_process_timings(clock, epoch_seconds),
        "phases": {"eval_s": clock.median("eval"), "analyze_s": clock.median("analyze"),
                   "search_s": 0.0},
        "fingerprint": {
            **_trained_fingerprint(out),
            "gate_mean_activity_sum": float(report.mean_activity.sum()),
            "bias_activity_correlation": out["correlation"],
        },
        "counts": {**_step_counts([out["net"]], TRAIN_SGD["batch_size"]),
                   "checkpoint_bytes": os.path.getsize(out["ckpt"]),
                   "cifar_bytes": 0, "task_bytes": 0},
    }


# -- search-shallow ----------------------------------------------------------------

def _ranked(results) -> list:
    return [[r.trial, r.status, r.best_loss, r.final_loss] for r in results]


def run_search(seed: int, sizes: Sizes, clock: Clock, workdir: str) -> dict:
    def set_up():
        ds = _digits(sizes.corpus, seed)
        return ds, [search.NetworkTemplate(kind, depth, width, ds.features, ds.num_classes)
                    for kind, depth, width in SEARCH_TEMPLATES]

    def command(ds, templates):
        reps = []
        clock.idle()
        for _ in range(sizes.reps):
            # cmd_search, once per template
            with clock.phase("command"):
                runs = {}
                for template in templates:
                    results = search.run_search(SEARCH_SPACE, template, ds, seed, jobs=SEARCH_JOBS)
                    search.write_search_csv(results,
                                            os.path.join(workdir, f"search_{template.kind}.csv"))
                    runs[template.kind] = results
            reps.append(runs)
            clock.idle()
        return dict(ds=ds, templates=templates, reps=reps, seed=seed)

    return command(*clock.set_ups(sizes.setups, set_up))


def finish_search(out: dict, sizes: Sizes, clock: Clock, check) -> dict:
    reps, ds = out["reps"], out["ds"]
    # Each repetition's searches are scaled by the speed sampled in the idle
    # windows just before and after it, when no pool worker was running.
    idle = clock.windows["idle"]
    slowdowns = [clock.speed.slowdown_in(idle[i:i + 2]) for i in range(len(reps))]
    epoch_seconds, scaled_epochs = defaultdict(list), defaultdict(list)
    for runs, slowdown in zip(reps, slowdowns):
        for kind, results in runs.items():
            for r in results:
                check.check(r.status == "ok" and math.isfinite(r.best_loss),
                            f"search {kind} trial {r.trial}: status {r.status}, best {r.best_loss!r}")
                epoch_seconds[kind] += [e.seconds for e in r.log.entries]
                scaled_epochs[kind] += [e.seconds / slowdown for e in r.log.entries]
            keys = [(r.status != "ok", r.best_loss, r.trial) for r in results]
            check.check(keys == sorted(keys) and len(results) == SEARCH_SPACE.trials,
                        f"search {kind}: ranking is not sorted or trials are missing")
        check.check({k: _ranked(v) for k, v in runs.items()} ==
                    {k: _ranked(v) for k, v in reps[0].items()},
                    "search: a repetition ranked differently from the first")

    statuses = [r.status for results in reps[0].values() for r in results]
    task = (out["templates"][0], ds, SEARCH_SPACE, out["seed"], 0)
    nets = [init.build_network(t.kind, t.depth, t.width, t.in_features, t.classes)
            for t in out["templates"]]
    for net in nets:
        init.init_network(net, init.InitScheme("he", -2.0, ops.derive_seed(out["seed"], 1)))
        checks.check_model(check, net, *_model_batch(ds), f"search {net.body_kind}")
    commands = [(t1 - t0) / slowdown
                for (t0, t1), slowdown in zip(clock.windows["command"], slowdowns)]
    return {
        # epoch_s: one epoch of each template
        **_timings(clock, epoch_seconds, scaled_epochs, commands, statistics.median(slowdowns)),
        "phases": {"eval_s": 0.0, "analyze_s": 0.0, "search_s": statistics.median(commands)},
        "fingerprint": {
            "inputs": ds.count,
            "search": {kind: _ranked(results) for kind, results in reps[0].items()},
        },
        "counts": {**_step_counts(nets, SEARCH_SPACE.batch_size),
                   "checkpoint_bytes": 0, "cifar_bytes": 0,
                   "task_bytes": len(ForkingPickler.dumps(task)),
                   "trials_ok_frac": statuses.count("ok") / len(statuses),
                   "trials_diverged": statuses.count("diverged")},
    }


# -- conv-cifar ----------------------------------------------------------------------

def run_conv(seed: int, sizes: Sizes, clock: Clock, workdir: str) -> dict:
    path = os.path.join(workdir, "data_batch_1.bin")
    generated = cifar_records(sizes.records, seed)
    data.save_cifar_binary(generated, path)

    def set_up():
        ds = data.load_cifar_binary([path], "cifar10", as_images=True)
        net = init.build_network(CONV_NET["kind"], CONV_NET["depth"], CONV_NET["width"],
                                 ds.features, ds.num_classes, CONV_NET["activation"],
                                 image_shape=CONV_NET["image_shape"],
                                 kernel_size=CONV_NET["kernel_size"])
        init.init_network(net, init.InitScheme(*CONV_INIT, ops.derive_seed(seed, 1)))
        return ds, net

    def command(ds, net):
        with clock.phase("command"):
            log, ckpt = _train_and_save(net, ds, CONV_SGD, sizes.epochs, seed, clock, workdir)
            with clock.phase("eval"):
                evaluated = optim.evaluate(net, ds)
        return dict(ds=ds, net=net, log=log, ckpt=ckpt, evaluated=evaluated,
                    generated=generated, path=path)

    return command(*clock.set_ups(sizes.setups, set_up))


def finish_conv(out: dict, sizes: Sizes, clock: Clock, check) -> dict:
    ds, generated = out["ds"], out["generated"]
    check.check(np.array_equal(ds.inputs, generated.inputs) and
                np.array_equal(ds.labels, generated.labels),
                "conv-cifar: CIFAR binary round trip differs")
    _check_trained(check, out, sizes.epochs, "conv-cifar")
    epoch_seconds = {"conv-highway": [e.seconds for e in out["log"].entries]}
    return {
        **_in_process_timings(clock, epoch_seconds),
        "phases": {"eval_s": clock.median("eval"), "analyze_s": 0.0, "search_s": 0.0},
        "fingerprint": _trained_fingerprint(out),
        "counts": {**_step_counts([out["net"]], CONV_SGD["batch_size"]),
                   "checkpoint_bytes": os.path.getsize(out["ckpt"]),
                   "cifar_bytes": os.path.getsize(out["path"]), "task_bytes": 0},
    }


RUNNERS = {
    "train-highway50": (run_train, finish_train),
    "search-shallow": (run_search, finish_search),
    "conv-cifar": (run_conv, finish_conv),
}
