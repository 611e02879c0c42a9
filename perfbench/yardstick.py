"""Host-speed yardstick: scales measured times to a nominal host speed.

The benchmark runs on a few cores of a shared host, whose speed for the
same deterministic code changes from second to second and by tens of
percent from one minute to the next, as the other tenants come and go. A
fixed loop timed between the cases slows down with the solvers, so the
end-to-end times of a run are scaled by ``NOMINAL_S / typical``, where
``typical`` is the median time of the loop over the run. A scaled time
reads as the time the solve would take on a host on which the loop
typically takes ``NOMINAL_S``. The loop runs no haan code, so no change to
the program can move it.

The loop mixes the two kinds of work the solvers do: interpreted Python
(integers, tuples, dicts, sets, a sort) and scipy's sparse min-cost
matching on a small fixed matrix, which the min-cost layer calls. It is
timed in batches of ``BATCH`` runs, a few milliseconds like a typical
case, and takes about ``SAMPLE_SHARE`` of the measuring time.

Medians on both sides matched best. Over a 300 s trace on a two-core
host, cut into 50 s pieces, the piece-to-piece spread (interquartile
distance over median) of a corpus pass was, for sweep-small and
vcxp-cover: 0.09 and 0.15 for the sum of per-case fastest times; 0.13 and
0.18 for the sum of per-case medians; 0.06 and 0.13 for the fastest times
scaled by the loop's fastest time; 0.03 and 0.08 for the medians scaled by
the loop's median. A later 180 s trace per workload, cut into 30 s pieces,
gave 0.04, 0.04 and 0.02 for the scaled medians on halfsep-guess,
sweep-small and vcxp-cover, against 0.06, 0.04 and 0.12 unscaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

# The loop's median time on a two-core 2 GHz Xeon host shared with other
# tenants, rounded; only the ratio of scaled times between runs matters.
NOMINAL_S = 0.0014

BATCH = 8
SAMPLE_SHARE = 0.1

_ROWS = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
_COLS = np.array([0, 3, 1, 2, 0, 4, 2, 5, 1, 6, 3, 7])
_COSTS = np.arange(1.0, 13.0)


def _work() -> int:
    """A fixed mix of the work the solvers do."""
    total = 0
    for k in range(4):
        matrix = csr_matrix((_COSTS + k, (_ROWS, _COLS)), shape=(6, 8))
        _, cols = min_weight_full_bipartite_matching(matrix)
        total += int(cols.sum())
    table: dict[int, int] = {}
    items = []
    for i in range(300):
        key = (i * 7919) % 257
        table[key] = table.get(key, 0) + 1
        items.append((key, i & 15))
    items.sort()
    seen = set()
    for key, low in items:
        if low not in seen:
            seen.add(low)
    return total + len(table) + len(seen)


class Yardstick:
    """Timed batches of the loop: the time of one loop run in each batch."""

    def __init__(self):
        self.seconds: list[float] = []
        self.spent = 0.0

    def sample_within(self, elapsed: float) -> None:
        """Time one batch unless the loop has had its share of ``elapsed``."""
        if self.spent < SAMPLE_SHARE * elapsed:
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(BATCH):
            _work()
        seconds = time.perf_counter() - start
        self.seconds.append(seconds / BATCH)
        self.spent += seconds

    def scale(self) -> float:
        """Factor that brings this run's times to the nominal host speed."""
        if not self.seconds:
            self.sample()
        return NOMINAL_S / statistics.median(self.seconds)
