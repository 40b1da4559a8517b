"""Machine speed, sampled while a pass runs, to take host load out of timings.

The 2-vCPU reference host is shared.  When its neighbours are busy, the same
work takes up to 50% longer for a minute or more at a time, and neither
steal time nor CPU time shows it (CPU time equals wall time).  Ten runs in a
row then spread by up to 24%, and the medians of two sets of runs half an
hour apart differed by up to 34%.  So every pass samples the speed it is
getting: a SIGALRM timer runs a fixed numpy kernel every INTERVAL_S in the
pass's main thread, between the workload's own bytecodes, and records how
long the kernel took.  A wall interval [t0, t1) is then scaled to the
reference speed:

    scaled = (t1 - t0) / slowdown(t0, t1)
    slowdown(t0, t1) = median kernel time sampled in [t0, t1) / REFERENCE_S

A window shorter than MIN_WINDOW_S is widened evenly on both sides so that it
holds enough samples.  The kernel takes about 1.5% of the pass's time, and
the per-layer span times include that share.  Worker processes get no timer
(a forked child does not inherit it).

While pool workers run, the kernel competes with them for the cores, so
its time then measures the workload's own load as well as the host's.
Work done in a pool is therefore scaled by `slowdown_in` over windows in
which the pass runs nothing else: `burst` runs the kernel back to back
there in as many processes as the pool has, with the timer paused.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
MIN_WINDOW_S = 1.0
# About the kernel's median time on the reference host while a workload
# runs, so that scaled seconds read close to wall seconds there.
REFERENCE_S = 1.2e-3


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random((64, 50))
        self._w = rng.random((50, 50))
        self.at: list[float] = []
        self.cost: list[float] = []

    def kernel(self) -> None:
        """The small GEMMs, exp and elementwise passes a training step makes."""
        x, w = self._x, self._w
        for _ in range(20):
            h = x @ w
            g = 1.0 / (1.0 + np.exp(-h))
            y = g * np.maximum(h, 0.0) + (1.0 - g) * x
            y.T @ x

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.kernel()
        self.at.append(started)
        self.cost.append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        time.sleep(MIN_WINDOW_S / 2)  # samples before the first timed window

    def _samples_for(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._sample(None, None)

    def burst(self, seconds: float, procs: int) -> None:
        """Sample back to back for `seconds` with the timer paused, in this
        process and in procs - 1 forked helpers alongside it."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        helpers = []
        for _ in range(procs - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                self.at, self.cost = [], []
                self._samples_for(seconds)
                with os.fdopen(w, "wb") as f:
                    f.write(np.array([self.at, self.cost]).tobytes())
                os._exit(0)
            os.close(w)
            helpers.append((pid, r))
        self._samples_for(seconds)
        for pid, r in helpers:
            with os.fdopen(r, "rb") as f:
                at, cost = np.frombuffer(f.read()).reshape(2, -1)
            os.waitpid(pid, 0)
            self.at += at.tolist()
            self.cost += cost.tolist()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t0: float = -np.inf, t1: float = np.inf) -> float:
        """Median kernel time over [t0, t1), widened to MIN_WINDOW_S, as a
        multiple of REFERENCE_S; over the whole pass by default."""
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        costs = [c for t, c in zip(self.at, self.cost) if t0 - pad <= t < t1 + pad]
        return statistics.median(costs or self.cost) / REFERENCE_S

    def slowdown_in(self, windows) -> float:
        """Median kernel time over the [t0, t1) `windows`, as a multiple of
        REFERENCE_S; over the whole pass if they hold no sample."""
        costs = [c for t, c in zip(self.at, self.cost)
                 if any(t0 <= t < t1 for t0, t1 in windows)]
        return statistics.median(costs or self.cost) / REFERENCE_S

    def scaled(self, t0: float, t1: float) -> float:
        return (t1 - t0) / self.slowdown(t0, t1)
