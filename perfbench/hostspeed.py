"""The host's speed, from a fixed reference loop timed during the run.

The benchmark's hosts are shared: on the 2-vCPU host used to tune it, the
same pure-Python loop ran up to 50% slower in one 5-second window than in
the next, and the same fixed ops took up to 60% longer in one run than in
another.  Those swings are not the program's, so the end-to-end times are
reported at a reference host speed: each run times ``reference`` every
``INTERVAL`` seconds of CPU time, between ops, and scales the CPU time of
each op by ``REFERENCE_S`` over the mean time of the reference samples taken
within ``WINDOW`` of it.  The raw times are printed to standard error.

``reference`` is exact Gaussian elimination over ``Fraction`` on a fixed
matrix, the kind of arithmetic polyvar's own kernels do, written here so
that no change to polyvar can change it.  It runs with the garbage
collector off, so the program's heap does not slow it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

CLOCK = time.process_time  # the clock of op, set-up and reference times
INTERVAL = 0.1  # CPU seconds between reference samples
WINDOW = 1.0  # CPU seconds on each side of an op whose samples give its speed
EDGE_SAMPLES = 8  # samples at the start and end of a stretch
REFERENCE_S = 0.005  # the reference loop's time at the reference speed

_R = random.Random(1)
_MATRIX = [[Fraction(_R.randint(-9, 9)) for _ in range(9)] for _ in range(7)]


def reference() -> None:
    """Row-reduce the fixed 7x9 matrix three times."""
    for _ in range(3):
        rows = [list(r) for r in _MATRIX]
        pr = 0
        for pc in range(len(rows[0])):
            pivot = next((i for i in range(pr, len(rows)) if rows[i][pc] != 0), None)
            if pivot is None:
                continue
            rows[pr], rows[pivot] = rows[pivot], rows[pr]
            pv = rows[pr][pc]
            rows[pr] = [x / pv for x in rows[pr]]
            for i in range(len(rows)):
                if i != pr and rows[i][pc] != 0:
                    f = rows[i][pc]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
            pr += 1
            if pr == len(rows):
                break


class HostSpeed:
    """Reference samples of one stretch of a run, and the factors that take
    its CPU times to the reference speed.  Open it before the stretch and
    call ``close`` after it, so that its first and last ops have samples on
    both sides."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock at the end, seconds)
        self.sample(EDGE_SAMPLES)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            enabled = gc.isenabled()
            gc.disable()
            t0 = CLOCK()
            reference()
            t1 = CLOCK()
            self.samples.append((t1, t1 - t0))
            if enabled:
                gc.enable()
        self.last = CLOCK()

    def close(self) -> None:
        self.sample(EDGE_SAMPLES)

    def tick(self) -> None:
        """Sample if ``INTERVAL`` of CPU time has passed since the last one,
        so that samples are spread evenly over the stretch's time."""
        if CLOCK() - self.last >= INTERVAL:
            self.sample()

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """The factor for the CPU-clock interval [start, end], or for the
        whole stretch when no interval is given."""
        near = [d for t, d in self.samples if start is None or start - WINDOW <= t <= end + WINDOW]
        return REFERENCE_S / statistics.fmean(near or [d for _, d in self.samples])
