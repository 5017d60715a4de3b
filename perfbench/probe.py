"""Machine-speed probe: a fixed kernel timed between pieces of work.

On a shared host the same code can run up to twice as slow for seconds
or minutes at a time, because other tenants contend for the cores; user
CPU time slows with the wall time, so no clock of the process escapes
it. The probe is a small fixed piece of numpy and interpreter work,
close in kind to the crsum solvers and independent of the program under
test. During an untraced pass a timer signal runs it every
PROBE_EVERY_S seconds, wherever the program is (Python runs the handler
between bytecodes, never inside a numpy call). Its time is kept out of
the pass's time, and the pass is scaled to reference speed:

    scaled_s = (pass_s - time spent probing) / (mean(probe_s) / PROBE_REF_S)

A slow stretch slows the pass and the probes alike, so it cancels; a
change to crsum moves the pass and not the probe, so it shows. Each
probe runs its kernel twice and times the second run, so what the
program left in the caches does not move it.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# One probe's wall time on a quiet 2-vCPU Intel Xeon VM (numpy 2.4, one
# BLAS thread). Only ratios matter; the constant keeps scaled times in
# seconds of about the size a quiet machine gives.
PROBE_REF_S = 0.0006
PROBE_EVERY_S = 0.04


class Probe:
    def __init__(self):
        rng = np.random.Generator(np.random.Philox(key=12345))
        self._h = rng.exponential(1.0, size=(4000, 4))
        self._g = rng.exponential(1.0, size=(4000, 4, 2))
        self._scalars = [float(x) for x in rng.uniform(0.1, 1.0, 480)]
        self.walls = []
        self.cpus = []
        self.spent = [0.0, 0.0]     # wall, cpu of all probe work
        self._saved_handler = None
        self._kernel()          # warm the code paths once, untimed

    def _kernel(self) -> float:
        # batched gathers and reductions over fading-state arrays, as in
        # the per-state solvers, then an interpreter-bound loop
        h, g = self._h, self._g
        p = np.einsum("nk,nkm->nm", h, g)
        q = g[:, [0, 2]][:, :, [1]]
        s = float(np.log1p(h * p[:, :1]).sum(axis=1).max() + q.sum())
        for x in self._scalars:
            y = x
            for _ in range(4):
                y = y * 0.5 + x / (1.0 + y)
            s += y
        return s

    def run(self) -> None:
        """Time one kernel, after an untimed run that brings its arrays
        back into cache, so the probe does not read how much cache the
        program left it. Both runs count in `spent`."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        self._kernel()
        c1 = time.process_time()
        t1 = time.perf_counter()
        self._kernel()
        t2 = time.perf_counter()
        c2 = time.process_time()
        self.walls.append(t2 - t1)
        self.cpus.append(c2 - c1)
        self.spent[0] += t2 - t0
        self.spent[1] += c2 - c0

    def start(self, timer: bool = True) -> None:
        """Forget earlier samples; with `timer`, probe every PROBE_EVERY_S."""
        self.walls.clear()
        self.cpus.clear()
        self.spent = [0.0, 0.0]
        if timer:
            self._saved_handler = signal.signal(
                signal.SIGALRM, lambda signum, frame: self.run())
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        if self._saved_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._saved_handler)
            self._saved_handler = None

    def slowdown(self) -> tuple:
        """(wall, cpu) time of a probe now, over its reference time."""
        if not self.walls:
            return 1.0, 1.0
        return (statistics.fmean(self.walls) / PROBE_REF_S,
                statistics.fmean(self.cpus) / PROBE_REF_S)

    def scale(self, wall: float, cpu: float) -> tuple:
        """(wall, cpu) of the work since start(), without the probes' own
        time, at reference speed; unscaled when no probe ran."""
        sw, sc = self.slowdown()
        return ((wall - self.spent[0]) / sw,
                (cpu - self.spent[1]) / max(sc, 1e-9))
