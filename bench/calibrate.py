"""Fixed reference computations that tell how fast the host runs right now,
so that timings taken at different host speeds compare.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts:
the same item set, timed in passes a few minutes apart, ran at 1.0x, 0.8x
and 1.6x, and process CPU time drifted with wall time, so no choice of clock
removes it.  A run therefore times a reference chunk between its items and
reports each item's latency in reference seconds: its wall time scaled by
the chunk's reference time over the chunk times measured around it.

In-process workloads use ``chunk``: a few milliseconds of exact sparse
elimination over ``Fraction``, the kind of work ``e2quiver`` does.  The
``cli`` workload, whose items are child interpreters, uses the start of a
bare child interpreter instead, since a child's time follows the parent's
chunk only loosely (log-log slope 0.6) and a bare child's closely (0.96).
Neither reference calls the package, so a change to the package moves the
scaled times as it moves the wall times at a fixed host speed.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction
from typing import Callable

# Median chunk time on the reference machine (2 vCPUs, CPython 3.11) at its
# usual speed.  Scaled times are wall times at that speed.
REFERENCE_S = 0.0045

# A chunk is timed after at least this much item time.
EVERY_S = 0.05

# The same for a bare child interpreter's start (``python -c pass``).
CHILD_REFERENCE_S = 0.055
CHILD_EVERY_S = 0.25

# An item is scaled by the median of this many chunks nearest to it.
WINDOW = 5

_ROWS, _COLS, _DENSITY, _SEED = 20, 18, 0.3, 20240917


def _system() -> list[dict[int, Fraction]]:
    rng = random.Random(_SEED)
    return [
        {c: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for c in range(_COLS) if rng.random() < _DENSITY}
        for _ in range(_ROWS)
    ]


_SYSTEM = _system()


def chunk() -> int:
    """Rank of the fixed system by exact row reduction (as ``linalg`` does)."""
    work = [dict(r) for r in _SYSTEM]
    rank = 0
    for col in range(_COLS):
        pivot = next((r for r in work if col in r), None)
        if pivot is None:
            continue
        work.remove(pivot)
        inv = 1 / pivot[col]
        for row in work:
            factor = row.get(col)
            if factor is None:
                continue
            factor *= inv
            for c, v in pivot.items():
                nv = row.get(c, 0) - factor * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        rank += 1
    return rank


_RANK = chunk()


def _checked_chunk() -> None:
    rank = chunk()
    if rank != _RANK:
        raise RuntimeError(f"reference chunk gave rank {rank}, expected {_RANK}")


class Clock:
    """Reference chunk times taken during a run, in order.  By default the
    chunk is ``chunk``; ``run`` replaces it with another reference, timed
    as a whole, whose reference time is ``reference_s``."""

    def __init__(self, run: Callable[[], None] | None = None, reference_s: float = REFERENCE_S,
                 every_s: float = EVERY_S) -> None:
        self.run = run or _checked_chunk
        self.reference_s, self.every_s = reference_s, every_s
        self.samples: list[float] = []
        self.since = 0.0

    def tick(self) -> None:
        """Time one chunk, with the cyclic garbage collector paused so that
        the package's heap does not enter the reference time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.run()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.since = 0.0

    def after(self, seconds: float) -> None:
        """Account an item's time and tick when every_s has gone by."""
        self.since += seconds
        if self.since >= self.every_s:
            self.tick()

    def scale(self, position: int) -> float:
        """reference_s over the median of the WINDOW chunks nearest to the
        moment when ``position`` chunks had been timed."""
        n = len(self.samples)
        if n == 0:
            raise RuntimeError("no reference chunk was timed")
        lo = min(max(0, position - WINDOW // 2), max(0, n - WINDOW))
        return self.reference_s / statistics.median(self.samples[lo:lo + WINDOW])

    def mean(self) -> float:
        return statistics.fmean(self.samples)
