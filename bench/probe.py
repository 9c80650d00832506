"""A fixed calibration load that measures how fast the machine runs now.

On a shared machine the speed of a core drifts by a quarter or more within
minutes.  A job's wall or CPU time divided by this probe's, timed between
jobs on the same core, cancels most of that drift.  The probe calls
nothing in the program, so a change to the program cannot move it.

It mixes the kinds of work the program does: Fraction arithmetic with
small and with growing denominators, dict and integer work in the
interpreter, row operations and pivots on small numpy arrays, and building
and sorting small tuples.  Each kind tracks the machine's drift a little
differently, and the mix tracks all three workloads better than any one
part did.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_ROWS = np.linspace(0.5, 1.5, 30 * 200).reshape(30, 200)
_TABLEAU = np.linspace(0.5, 1.5, 16 * 120).reshape(16, 120)


def probe() -> tuple[float, float]:
    """Run the fixed load once; return its (wall, CPU) seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    acc, counts = Fraction(0), {}
    for i in range(1, 1500):
        acc += Fraction(i, i + 7)
        counts[i % 17] = counts.get(i % 17, 0) + i * i
    total = Fraction(0)
    for i in range(1, 420):
        a, b = Fraction(i, 1000), Fraction(i + 1, 1000)
        total += (b * b - a * a) / 2 - Fraction(i % 7, 64) * (b - a)
    for _ in range(400):
        rows = _ROWS * 1.0001
        rows[3] -= rows[3, 5] * rows[4]
        int(np.argmin(rows[-1]))
    t = _TABLEAU.copy()
    for k in range(160):
        row, col = k % 15, k % 119
        t[row] /= abs(t[row, col]) + 2.0
        for r in range(t.shape[0]):
            if r != row:
                t[r] -= 1e-3 * t[r, col] * t[row]
    s = 0
    for i in range(100_000):
        s += i * i
    sorted({(round(i * 0.37 % 1, 6), round(i * 0.61 % 1, 6)) for i in range(4500)})
    return time.perf_counter() - wall, time.process_time() - cpu
