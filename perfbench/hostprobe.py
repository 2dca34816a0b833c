"""Host-speed probe: a fixed kernel, unrelated to partsketch, timed between benchmark calls.

On a shared host the speed of a core swings by tens of percent over seconds
to minutes (other tenants' load on the same physical core), and every kind
of code slows together: numpy block products, column gathers and the
interpreter alike.  Timing this kernel next to each call measures that
swing; dividing a call's time by ``probe time / REFERENCE_S`` reports it at
a fixed reference speed.  The kernel never changes with the package, so
normalised times of two commits compare like raw times on a steady host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0062  # the probe's time at the reference speed; sets the scale of normalised times


class HostProbe:
    """The kernel's inputs, built once; ``measure`` times one run of it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random((50, 500))
        self.small_t = self.small.T.copy()
        self.order = rng.permutation(500)
        self.large = rng.random((100, 2000))
        self.large_order = rng.permutation(2000)

    def measure(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for j in range(99):
            idx = self.order[5 * j:5 * j + 5]
            acc += float((self.small[:, idx] @ self.small_t[idx, :]).sum())
        for j in range(40):
            cols = self.large[:, self.large_order[50 * j:50 * j + 50]]
            acc += float((cols @ cols.T).sum())
        acc += sum(i * i for i in range(40_000))
        return time.perf_counter() - start

    def factor(self, repeats: int = 1) -> float:
        """Host slowdown against the reference speed: median probe time / ``REFERENCE_S``."""
        return statistics.median(self.measure() for _ in range(repeats)) / REFERENCE_S
