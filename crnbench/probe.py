"""A fixed reference task that measures how fast the host runs right now.

The benchmark's host shares its cores with other machines, and for seconds
at a time the same job can take up to twice as long.  ``measure`` times a
small task that never changes (exact Gauss-Jordan elimination over
``Fraction``, a bitmask subset scan and a loop of small numpy operations,
the kinds of work crncert does).  ``worker.py`` runs it between jobs, and
each job's time is divided by the probe time measured around it, which
takes out the slowdown both share.  Nothing here imports crncert, so a
change to the program cannot change the probe.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Probe seconds on a quiet host (Intel Xeon VM, 2.1 GHz, Python 3.11).  It
# only sets the scale: a job that takes t seconds while the probe takes c
# reports t * REFERENCE_S / c.
REFERENCE_S = 0.0015

_MATRIX = [[Fraction((7 * i + 3 * j * j + 1) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(8)] for i in range(7)]
_A = np.arange(36.0).reshape(6, 6) / 100.0


def _task() -> float:
    rows = [row[:] for row in _MATRIX]
    r = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    hits = 0
    for w in range(1 << 10):
        if w & (w >> 3) and bin(w).count("1") % 3 == 0:
            hits += 1
    x = np.ones(6)
    for _ in range(40):
        x = np.exp(-np.abs(_A @ x)) + 0.1 * x
    return float(rows[0][-1]) + hits + float(x.sum())


def measure() -> float:
    """Seconds the reference task takes now, its caches warm."""
    _task()
    start = time.perf_counter()
    _task()
    return time.perf_counter() - start
