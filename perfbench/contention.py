"""Host contention: a reference timing around each op, and the scale it gives.

On the 2-vCPU virtual machine the baseline was taken on (Intel Xeon at
2.0 GHz, Python 3.11), the host runs this process at two speeds, the slow
one 1.5 to 1.8 times slower, switching every 0.5 to 5 s; the share of slow
time drifts from minute to minute.  Raw p50 latencies of 30 s runs on
different seeds then spread by up to 40% between quartiles, more than any
bound a regression gate can use.

A fixed pure-Python snippet (object creation, calls, float arithmetic and a
dict insert, the kind of work the library does per lattice point) is timed
after every op.  An op's wall time is divided by

    (s / REFERENCE_NS) ** EXPONENT

where s is the mean of the snippet times just before and just after it.
REFERENCE_NS is the snippet's time at the fast speed on that machine, so the
scaled figures read as wall time at the uncontended speed.  EXPONENT is how
strongly the library's own op times follow the snippet's: regressing log op
time on log snippet time over seeded runs at the seed gave 0.5 to 1.0 across
the three workloads, and 0.8 brought the spread of all three below 6%.

Code that slows less under contention than the seed's pure-Python paths (for
example numpy kernels) is scaled down too much while the host is slow, which
flatters it; the raw figures are printed beside the scaled ones so that a
claimed gain can be checked in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter_ns

REFERENCE_NS = 175_000
EXPONENT = 0.8


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite point")


def _line(p: _Point, a: float = 0.3, b: float = -0.7, c: float = 0.1) -> float:
    return a * p.x + b * p.y + c


def reference_ns() -> int:
    """Time the fixed snippet once."""
    t0 = perf_counter_ns()
    seen = {}
    for i in range(150):
        p = _Point(i * 0.5, i * 0.25)
        seen[(i, i & 7)] = _line(p) * _line(p)
    return perf_counter_ns() - t0


def scaled(elapsed: float, before: int, after: int) -> float:
    """Elapsed time at the reference speed, from the snippet times around it."""
    return elapsed / ((before + after) / (2.0 * REFERENCE_NS)) ** EXPONENT
