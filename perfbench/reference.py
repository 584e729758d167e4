"""A fixed reference computation that gauges how fast the host runs now.

On a shared host, other tenants' load can slow every computation by up
to several times, for seconds to minutes at a stretch. The end-to-end
times are therefore reported as multiples of this reference, timed
between the instances of each pass: the slowdown divides out.

One reference unit is a synthetic solver iteration on each base instance
of the workload, at its order n and Gram order m: three symmetric
eigendecompositions of order n (the PSD projections of an iteration and
its residual check), two solves with a Cholesky factor of order m (the
Gram solves) and a loop of small array operations on n x n entries,
whose cost is mostly interpreter overhead. It calls numpy and scipy
only, nothing of ``cadmm``, so no change to the solver moves it, while
a slowdown that hits eigensolvers, memory traffic or the interpreter
hits it as it hits the solver.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

SNAPSHOT_S = 0.05  # each call of ``seconds`` runs units for at least this long


class Reference:
    def __init__(self, sizes: list):
        """``sizes``: the (n, m) of each base instance."""
        rng = np.random.default_rng(0)
        self.inputs = []
        for n, m in sizes:
            a = rng.standard_normal((n, n))
            g = rng.standard_normal((m, m))
            self.inputs.append((a + a.T,
                                scipy.linalg.cho_factor(g @ g.T + m * np.eye(m)),
                                rng.standard_normal(m), rng.standard_normal(n * n)))

    def unit(self) -> None:
        for sym, factor, rhs, x in self.inputs:
            for _ in range(3):
                np.linalg.eigh(sym)
            for _ in range(2):
                scipy.linalg.cho_solve(factor, rhs)
            for _ in range(20):
                x = np.maximum(0.5 * x + 0.1, 0.0)

    def seconds(self) -> float:
        """Mean wall time of one unit over a ``SNAPSHOT_S`` stretch."""
        units = 0
        t0 = time.perf_counter()
        while True:
            self.unit()
            units += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= SNAPSHOT_S:
                return elapsed / units
