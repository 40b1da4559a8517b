"""Spans around the library's public calls, recorded from outside.

`Tracer.install()` replaces functions of the highwaynet modules with timing
wrappers and `uninstall()` puts the originals back; nothing under src/
changes.  A wrapped function object is replaced wherever a highwaynet
module binds it, so names imported by value (`layers.matmul`,
`optim.network_forward_backward`, `search.train`, ...) are traced too.
Layer classes get their methods wrapped on the class.

A span is a list [name_id, start, end, parent, size, proc]: perf_counter
times, the index of the enclosing span (-1 at the top), a name-specific
size (batch size, GEMM flops or tensor count) and 0 for the benchmark's
process or a pool worker's pid.  Spans stay in memory until the pass ends.

Search pool workers are forked while `run_search` is open, so they inherit
the wrappers.  Each trial ships the spans it recorded back to the parent on
its result object, and the `run_search` wrapper merges them.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

import numpy as np

MODULES = ("ops", "layers", "init", "optim", "search", "data", "checkpoint",
           "analysis", "cli")

START, END, PARENT, SIZE, PROC = 1, 2, 3, 4, 5


def _batch_of(position):
    def size(args, kwargs):
        return int(np.shape(args[position])[0])
    return size


def _gemm_flop(args, kwargs):
    a, b = np.shape(args[0]), np.shape(args[1])
    return 2 * a[0] * a[1] * b[1] if len(a) == 2 and len(b) == 2 else 0


def _tensor_count(args, kwargs):
    return len(args[0])


# (module, attribute, span name, size function).  "Class.method" attributes
# are wrapped on the class.
TARGETS = (
    ("ops", "matmul", "ops.matmul", _gemm_flop),
    ("ops", "sigmoid", "ops.sigmoid", None),
    ("ops", "apply_activation", "ops.activation", None),
    ("ops", "activation_derivative", "ops.activation", None),
    ("layers", "PlainLayer.forward", "layers.plain.fwd", _batch_of(1)),
    ("layers", "PlainLayer.backward", "layers.plain.bwd", _batch_of(2)),
    ("layers", "HighwayLayer.forward", "layers.highway.fwd", _batch_of(1)),
    ("layers", "HighwayLayer.backward", "layers.highway.bwd", _batch_of(2)),
    ("layers", "ConvHighwayLayer.forward", "layers.conv_highway.fwd", _batch_of(1)),
    ("layers", "ConvHighwayLayer.backward", "layers.conv_highway.bwd", _batch_of(2)),
    ("layers", "SoftmaxHead.forward_backward", "layers.head.fwd_bwd", _batch_of(1)),
    ("layers", "SoftmaxHead.probabilities", "layers.head.probs", _batch_of(1)),
    ("layers", "Network.forward_caches", "layers.forward_caches", _batch_of(1)),
    ("layers", "network_forward_backward", "layers.step", _batch_of(1)),
    ("init", "build_network", "init.build_network", None),
    ("init", "init_network", "init.init_network", None),
    ("optim", "sgd_step", "optim.sgd_step", _tensor_count),
    ("optim", "evaluate", "optim.evaluate", None),
    ("optim", "train", "optim.train", None),
    ("data", "synthetic_digits", "data.synthetic_digits", None),
    ("data", "load_cifar_binary", "data.load_cifar_binary", None),
    ("data", "save_cifar_binary", "data.save_cifar_binary", None),
    ("data", "batches", "data.batches", "generator"),
    ("checkpoint", "save_checkpoint", "checkpoint.save", None),
    ("checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("analysis", "gate_report", "analysis.gate_report", None),
    ("analysis", "export_report", "analysis.export_report", None),
    ("analysis", "gate_sparsity", "analysis.gate_sparsity", None),
    ("analysis", "bias_activity_correlation", "analysis.correlation", None),
    ("search", "run_search", "search.run_search", "run_search"),
    ("search", "_trial_for_index", "search.trial", "trial"),
    ("search", "write_search_csv", "search.write_csv", None),
)

_SHIPPED = "_perfbench_spans"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pid = os.getpid()
        self._restore: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str, size: int = 0):
        """A span opened by the benchmark itself (its phases)."""
        spans, stack = self.spans, self.stack
        sid = len(spans)
        rec = [self.name_id(name), time.perf_counter(), 0.0,
               stack[-1] if stack else -1, size, 0]
        spans.append(rec)
        stack.append(sid)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _plain(self, name, fn, size_of):
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = size_of(args, kwargs) if size_of is not None else 0
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1, size, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
        return wrapper

    def _generator(self, name, fn):
        """Times each step's wait for the next item, not the whole loop."""
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                rec = [nid, clock(), 0.0, stack[-1] if stack else -1, 0, 0]
                spans.append(rec)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    rec[END] = clock()
                yield item
        return wrapper

    def _trial(self, name, fn):
        """In a pool worker, detach the trial's spans onto its result."""
        traced = self._plain(name, fn, None)
        spans, parent_pid = self.spans, self.pid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = len(spans)
            result = traced(*args, **kwargs)
            if os.getpid() != parent_pid:
                chunk = spans[base:]
                del spans[base:]
                for rec in chunk:
                    rec[PROC] = os.getpid()
                setattr(result, _SHIPPED, (base, chunk))
            return result
        return wrapper

    def _run_search(self, name, fn):
        """Merge the spans the pool workers shipped back with their results."""
        traced = self._plain(name, fn, None)
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            results = traced(*args, **kwargs)
            for result in results:
                shipped = result.__dict__.pop(_SHIPPED, None)
                if shipped is None:
                    continue
                base, chunk = shipped
                offset = len(spans) - base
                for rec in chunk:
                    if rec[PARENT] >= base:
                        rec[PARENT] += offset
                    spans.append(rec)
            return results
        return wrapper

    def _make(self, name, fn, how):
        if how == "generator":
            return self._generator(name, fn)
        if how == "trial":
            return self._trial(name, fn)
        if how == "run_search":
            return self._run_search(name, fn)
        return self._plain(name, fn, how)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"highwaynet.{m}") for m in MODULES}
        for module, attr, name, how in TARGETS:
            owner = mods[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                fn = owner.__dict__[attr]
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, self._make(name, fn, how))
                continue
            fn = getattr(owner, attr)
            wrapper = self._make(name, fn, how)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def arrays(self) -> dict:
        """Spans as numpy columns (for aggregation and for saving)."""
        rows = [r for r in self.spans if r[END] > 0.0]
        if len(rows) != len(self.spans):
            raise RuntimeError(f"{len(self.spans) - len(rows)} spans never closed")
        cols = np.array(rows, dtype=np.float64).reshape(-1, 6)
        return {
            "name": cols[:, 0].astype(np.int64),
            "start": cols[:, START],
            "end": cols[:, END],
            "parent": cols[:, PARENT].astype(np.int64),
            "size": cols[:, SIZE].astype(np.int64),
            "proc": cols[:, PROC].astype(np.int64),
            "names": np.array(self.names),
        }


def self_times(cols: dict) -> np.ndarray:
    """Each span's duration minus the time its same-process children cover.

    Spans of one process nest strictly, so the children's durations can be
    summed.  A pool worker's trial runs while its parent `run_search` waits,
    so it is not subtracted from the parent.
    """
    dur = cols["end"] - cols["start"]
    parent, proc = cols["parent"], cols["proc"]
    has_parent = parent >= 0
    same = np.zeros_like(has_parent)
    same[has_parent] = proc[parent[has_parent]] == proc[has_parent]
    covered = np.zeros_like(dur)
    np.add.at(covered, parent[same], dur[same])
    return dur - covered
