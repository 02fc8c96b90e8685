"""Machine-speed reference: fixed computations timed next to every op.

On a shared host the throughput of a vCPU drifts: the same op took 167 to
343 ms within one minute, and phases of a 1.5x to 1.7x speed change last
seconds to minutes, as long as a run.  Raw times would then differ between
runs by more than any bound that can still catch a regression.  So every
time the benchmark reports is scaled by nominal over measured reference
time, the mean of the samples just before and just after it: a time at the
speed the machine had when the nominal times were measured.

The drift does not slow every kind of work alike: pure Python, small numpy
calls and cache-missing memory access each move on their own.  So the
reference has one part of each kind, and a workload is scaled by the parts
its time is made of.  The reference never calls quditgraph, so a change to
the program moves the scaled times exactly as it moves the raw ones.  Raw
times are reported too.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

PARTS = ("python", "numpy", "memory")
# Fast-state time of each part (10th percentile over 20 runs) on the 2-core
# Xeon VM that defined the benchmark.
NOMINAL_S = {"python": 0.45e-3, "numpy": 0.58e-3, "memory": 0.58e-3}


class Reference:
    """About 1 ms each of Python table lookups, small numpy calls and a cache-missing gather."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 16, size=(16, 16))
        self.amps = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
        self.index = rng.permutation(1 << 16)
        self.out = np.empty_like(self.amps)
        m = rng.standard_normal((48, 48))
        self.herm = m @ m.T
        self.big = rng.standard_normal(1 << 18) + 1j * rng.standard_normal(1 << 18)
        self.big_index = rng.integers(0, 1 << 18, size=1 << 16)
        self.samples: list[list[float]] = []  # seconds per part, in PARTS order

    def _python(self) -> None:
        table, acc = self.table, 0
        for i in range(2000):
            acc = int(table[acc & 15, i & 15])

    def _numpy(self) -> None:
        np.take(self.amps, self.index, out=self.out)
        np.linalg.eigvalsh(self.herm)

    def _memory(self) -> None:
        np.take(self.big, self.big_index, out=self.out)

    def sample(self) -> None:
        """Time every part (best of two) and keep the sample."""
        parts = []
        for part in (self._python, self._numpy, self._memory):
            best = float("inf")
            for _ in range(2):
                t0 = perf_counter()
                part()
                best = min(best, perf_counter() - t0)
            parts.append(best)
        self.samples.append(parts)

    def scale(self, position: int, parts: tuple[str, ...]) -> float:
        """Nominal over measured time of ``parts`` at sample ``position`` and the one after."""
        cols = [PARTS.index(p) for p in parts]
        around = self.samples[position:position + 2]
        measured = sum(s[c] for s in around for c in cols) / len(around)
        return sum(NOMINAL_S[p] for p in parts) / measured
