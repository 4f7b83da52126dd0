"""The host's speed, read off a fixed kernel of the benchmark's own.

The benchmark's host is a few cores of a shared machine, and its speed
flips between a fast and a slow mode, about 1.6x apart, at every time
scale: from one tenth of a second to the next, and for minutes on end.
The same fixed work then takes up to twice as long in one run as in the
next. A run's times are therefore reported in reference seconds: the work
the host got done, in units of what it does per second at ``NOMINAL_S``.

While the program works, a timer signal interrupts it every ``TICK_S``
seconds, between two of its Python steps, to time ``REPS`` rounds of the
reference kernel. The samples fall evenly in wall time, so they see the
fast and the slow mode in the share the program saw them. A wall second
whose sample took ``d`` seconds is worth ``NOMINAL_S / d`` reference
seconds; averaged over a stretch of the run, that scales the stretch's
wall seconds, less the samples' own time. Set-up and the timed work are
two such stretches: set-up is short enough to fall in one mode alone.

The kernel does what the program's hot loop does, on inputs of the
program's size, and never calls the program: an ``eigh`` of a 64 x 64
complex Hermitian matrix, the PSD reconstruction, a diagonal sum by
``bincount`` and a small real least-squares solve (the Dykstra step and
the NNLS inner step). A change to the program leaves it unchanged.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

M = 64
REPS = 5          # rounds of the kernel in one sample, ~10 ms
TICK_S = 0.1      # wall seconds between two samples while the program works
# the unit of the reference seconds: about one sample's length on the host
# the benchmark was written on (2-core x86 VM, one BLAS thread), so that
# reference seconds read close to that host's wall seconds
NOMINAL_S = 0.010

# bound now: a traced run wraps numpy.linalg.lstsq to count the program's calls
_eigh = np.linalg.eigh
_lstsq = np.linalg.lstsq


class Span:
    """A stretch of the run and the samples taken inside it."""

    def __init__(self):
        self.wall = 0.0      # wall seconds, less the samples' own time
        self.samples = []

    @property
    def scale(self) -> float:
        """Reference seconds per wall second: the mean over the samples of
        ``NOMINAL_S / d``, each sample standing for the same share of wall
        time."""
        return NOMINAL_S * statistics.fmean(1.0 / d for d in self.samples)


class Reference:
    """The kernel's inputs; ``span`` measures a stretch of the run."""

    def __init__(self, tick: bool = True):
        rng = np.random.default_rng(1803_05754)
        g = rng.standard_normal((M, 2 * M)) + 1j * rng.standard_normal((M, 2 * M))
        self.a = g @ g.conj().T / (2 * M) - 0.5 * np.eye(M)
        self.idx = (np.arange(M)[:, None] - np.arange(M)[None, :] + M - 1).ravel()
        self.g = rng.standard_normal((2 * M - 1, M))
        self.tick = tick
        self._kernel(2)      # first-call costs stay out of the samples

    def _kernel(self, reps: int) -> None:
        a = self.a
        for _ in range(reps):
            w, u = _eigh(0.5 * (a + a.conj().T))
            x = (u * np.maximum(w, 0.0)) @ u.conj().T
            sums = np.bincount(self.idx, weights=x.real.ravel(), minlength=2 * M - 1)
            _lstsq(self.g, sums, rcond=None)

    def _sample(self, span: Span) -> float:
        t0 = time.perf_counter()
        self._kernel(REPS)
        dt = time.perf_counter() - t0
        span.samples.append(dt)
        return dt

    @contextlib.contextmanager
    def span(self, since: float | None = None):
        """Measure the block: its wall seconds (from ``since``, a
        ``perf_counter`` reading, if given) less the sampling, and a sample
        every ``TICK_S`` seconds taken from a timer signal. Without ticks (a
        traced run, whose self times must not hold the samples) one sample
        follows the block."""
        span = Span()
        spent = 0.0
        busy = False

        def on_tick(signum, frame):
            # a tick that comes while a sample runs would nest inside it
            nonlocal spent, busy
            if not busy:
                busy = True
                spent += self._sample(span)
                busy = False

        t0 = time.perf_counter() if since is None else since
        if self.tick:
            previous = signal.signal(signal.SIGALRM, on_tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield span
        finally:
            if self.tick:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            span.wall = time.perf_counter() - t0 - spent
        if not span.samples:
            self._sample(span)
