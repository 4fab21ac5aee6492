"""Host-speed reference for the timed metrics.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds: identical work measured in consecutive 10-second windows
spread by 23-29% (quartile distance over median) on the 2-CPU host where
this was written.  A fixed reference kernel, run between the timed calls,
slows and speeds up with the host.  Each timed sample is scaled by
``REFERENCE_MS`` over the kernel's recent median time, which cut the
spread of the same windows to about 4%.

The kernel uses numpy and plain Python only, in the mix the package runs
(small-matrix linear algebra, polynomial evaluation, fancy indexing and
interpreter overhead), and none of the package's code, so a change to the
package moves the scaled times exactly as it moves the raw ones.

Subprocess wall times follow the host less closely than the kernel does
(a third to two thirds of its swings), and scaling them by the kernel
widened their spread.  They are scaled instead by ``REFERENCE_START_S``
over the run's median wall time of a reference child, ``python -c
"import numpy"``: interpreter start and the numpy import make up most of
a CLI call, and no change to the package moves them.  A reference child
next to each call did not steady single calls, whose jitter is random;
the run's median only removes drift of the host between runs.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

#: the kernel's typical time on the host the benchmark was written on, so
#: that scaled times read close to raw ones there
REFERENCE_MS = 1.5
#: the reference child's typical wall time there
REFERENCE_START_S = 0.17
#: probes the scale is the median of
WINDOW = 5

_MATS = [np.random.default_rng(0).normal(size=(4, 4)) for _ in range(8)]
_POLY = np.array([1.0, -2.0, 0.5, 3.0, 1.0])
_POINTS = (0.1, 0.3, 0.7, 1.1, 1.9, 2.3)


def reference_kernel() -> float:
    s = 0.0
    for a in _MATS:
        for x in _POINTS:
            s += float(np.polyval(_POLY, x))
        for i in range(4):
            rows = [j for j in range(4) if j != i]
            s += float(np.linalg.det(a[np.ix_(rows, rows)]))
        u, sv, vt = np.linalg.svd(a)
        s += float(sv[-1]) + float(np.trace(u @ np.diag(sv) @ vt))
        s += float(np.abs(np.linalg.eigvals(a)).max())
        s += sum(float(v) * 0.5 for v in a.ravel())
    return s


class HostSpeed:
    """Running median of the reference kernel's time, and the scale it gives."""

    def __init__(self) -> None:
        self.recent: deque[int] = deque(maxlen=WINDOW)
        self.samples: list[int] = []
        for _ in range(3):  # first calls load LAPACK routines
            reference_kernel()
        for _ in range(WINDOW):
            self.probe()

    def probe(self) -> None:
        start = time.perf_counter_ns()
        reference_kernel()
        elapsed = time.perf_counter_ns() - start
        self.recent.append(elapsed)
        self.samples.append(elapsed)

    def scale(self) -> float:
        """Factor that turns a raw time into one at reference speed."""
        return REFERENCE_MS * 1e6 / statistics.median(self.recent)

    def reference_ms(self) -> float:
        """Median kernel time over the whole run, for the details line."""
        return statistics.median(self.samples) / 1e6
