"""Host-speed probe: how fast the host runs right now.

The benchmark runs on shared hosts whose speed changes by twice or more
from one minute to the next: on a 2-vCPU Xeon VM the same fig4 cells
took 0.93 s in one run and 2.27 s some minutes later.  Process CPU time
tracks wall time through such a slow stretch and steal time stays near
zero, so each instruction runs slower (a busy sibling hyperthread, a
lower clock) rather than the benchmark waiting, and no repetition inside
a run removes it.

So a run also times a fixed probe, every :data:`PERIOD_S` seconds from
a timer signal, all through its measured work, and reports its host
times scaled to the reference host:
``host seconds * (REFERENCE_S / median probe seconds) ** EXPONENT``.

The probe uses only the standard library and NumPy, never the program,
so a change to the program moves the scaled times exactly as it moves
the raw ones.  Its work is the program's kind of work: a breadth-first
search over adjacency lists with dict and tuple bookkeeping, then a
NumPy sort and scatter-add over 20,000 values.  Its data (about 400 KB
with its dicts) fits a core's own cache, so it reads the core's speed
rather than how busy the shared cache is: a graph ten times larger read
10% apart from one process to the next on an idle host.

Probes run inside the measured work, so :func:`clock` leaves them out:
time cells with it instead of ``time.perf_counter``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

#: Probe seconds on the reference host: a quiet 2-vCPU Xeon VM with
#: Python 3.11 and NumPy 2.4, the host the benchmark's figures were first
#: taken on.  Scaled times are seconds on that host.
REFERENCE_S = 0.00090

#: How strongly the workloads' host times follow the probe.  The probe's
#: tight interpreted loop slows more than the program when the host gets
#: busy.  Over 21 fig4-cold-sweep runs at factors 0.30 to 0.51 the mean
#: cell times scaled with this power spread 8.3% (quartiles over the
#: median) and their median sits 3.5% below the 0.925 s a quiet host
#: measured; over 15 event-tail runs at factors 0.31 to 0.47 they spread
#: 8.7% and sit 2.4% below the quiet host's 2.10 s.  The power 0.6 puts
#: the quiet host 5 to 8% away, 0.8 puts it 14 to 16% away.
#: serve-explore has no quiet-host run to fit; it is given the same
#: power.
EXPONENT = 0.7

#: Seconds between probes: about 150 probes in a 30 s run, costing about
#: 0.5% of its time.
PERIOD_S = 0.2

_NODES = 2_000
_DEGREE = 4
_inputs = None

#: Probe seconds spent so far in this process (see :func:`clock`).
_spent = 0.0


def _build():
    global _inputs
    if _inputs is None:
        rng = np.random.default_rng(12345)
        values = rng.random(20_000)
        _inputs = (rng.integers(0, _NODES, size=(_NODES, _DEGREE)).tolist(),
                   values, (values * 999).astype(np.int64), np.zeros(1000))
    return _inputs


def _work(adjacency: list, values, index, bins) -> None:
    parent = {0: None}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    paths = {}
    for v in range(0, len(adjacency), 3):
        path = []
        u = v
        while u is not None and len(path) < 64:
            path.append(u)
            u = parent.get(u)
        paths[(v, len(path))] = tuple(path)
    np.sort(values)
    bins.fill(0.0)
    np.add.at(bins, index, values)


def probe() -> float:
    """Seconds of one probe (about 1 ms on the reference host).  The
    collector is off while it runs, so a collection of the workload's
    heap is never charged to it; its state is restored afterwards."""
    global _spent
    inputs = _build()
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    try:
        _work(*inputs)
        t1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
        _spent += time.perf_counter() - t0
    return t1 - t0


def clock() -> float:
    """``time.perf_counter()`` less every probe this process has run."""
    return time.perf_counter() - _spent


class Meter:
    """The probes of one run.  :meth:`start` probes at once and then
    every :data:`PERIOD_S` seconds from ``SIGALRM`` until :meth:`stop`;
    the median of all of them sets the run's scale."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def start(self) -> None:
        """Probe now, then every :data:`PERIOD_S` seconds."""
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def probe_s(self, first: int = 0) -> float:
        """Median of the probes from ``first`` on (all by default)."""
        samples = self.samples[first:]
        if not samples:
            raise ValueError("no probe samples")
        return float(statistics.median(samples))

    def factor(self, first: int = 0) -> float:
        """``REFERENCE_S`` over the median of the probes from ``first``
        on: below 1 on a host slower than the reference.  Host times taken
        while they ran are multiplied by it to the power
        :data:`EXPONENT`."""
        return REFERENCE_S / self.probe_s(first)
