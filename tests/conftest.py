"""Shared randomized generators and the reference LP solver of the test suite.

Everything is driven by seeded random.Random instances so failures replay.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from impulse_reach import simplex
from impulse_reach.errors import NumericError
from impulse_reach.intervals import Cell, Interval, Partition, partition_from_cuts
from impulse_reach.measures import FAMeasure, Side, SideAtom, indefinite
from impulse_reach.piecewise import PiecewiseFn, step_function
from impulse_reach.rational import fmt_rat, num_to_json

UNIT = Interval.make(0, 1)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20160901)


def rand_rat(rng: random.Random, lo=0, hi=1, denoms=(2, 3, 4, 5, 6, 8, 12, 16)) -> Fraction:
    den = rng.choice(denoms)
    lo = Fraction(lo)
    return lo + Fraction(rng.randint(0, math.floor((Fraction(hi) - lo) * den)), den)


def rand_cuts(rng: random.Random, domain: Interval = UNIT, max_cuts: int = 5) -> list[Fraction]:
    cuts = {rand_rat(rng, domain.lo, domain.hi) for _ in range(rng.randint(0, max_cuts))}
    return sorted(t for t in cuts if domain.lo < t < domain.hi)


def rand_interval(rng: random.Random, domain: Interval = UNIT) -> Interval:
    a = rand_rat(rng, domain.lo, domain.hi)
    b = rand_rat(rng, domain.lo, domain.hi)
    if a > b:
        a, b = b, a
    if a == b:
        return Interval(a, b)
    return Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)


def rand_cell(rng: random.Random, domain: Interval = UNIT, max_parts: int = 3) -> Cell:
    n = rng.randint(0, max_parts)
    return Cell.from_intervals([rand_interval(rng, domain) for _ in range(n)])


def rand_partition(rng: random.Random, domain: Interval = UNIT,
                   max_cuts: int = 6, group: bool = True) -> Partition:
    """Random partition; with group=True cells may be multi-interval unions."""
    atoms = partition_from_cuts(domain, rand_cuts(rng, domain, max_cuts))
    if not group or len(atoms.cells) == 1:
        return atoms
    k = rng.randint(1, len(atoms.cells))
    buckets: list[list[Interval]] = [[] for _ in range(k)]
    for i, cell in enumerate(atoms.cells):
        target = i % k if i < k else rng.randrange(k)
        buckets[target].extend(cell.parts)
    cells = [Cell.from_intervals(parts) for parts in buckets if parts]
    return Partition(tuple(cells), domain)


def rand_step(rng: random.Random, domain: Interval = UNIT, exact: bool = True,
              nonneg: bool = False, max_cuts: int = 4) -> PiecewiseFn:
    parts = partition_from_cuts(domain, rand_cuts(rng, domain, max_cuts))
    values = []
    for _ in parts.cells:
        if exact:
            v = Fraction(rng.randint(0 if nonneg else -8, 8), rng.choice((1, 2, 4)))
        else:
            v = rng.uniform(0 if nonneg else -2.0, 2.0)
        values.append(v)
    return step_function(domain, list(zip(parts.cells, values)))


def rand_measure(rng: random.Random, domain: Interval = UNIT, exact: bool = True,
                 nonneg: bool = False, max_atoms: int = 3) -> FAMeasure:
    mu = indefinite(rand_step(rng, domain, exact=exact, nonneg=nonneg))
    atoms = []
    seen = set()
    for _ in range(rng.randint(0, max_atoms)):
        loc = rand_rat(rng, domain.lo, domain.hi)
        side = rng.choice((Side.LEFT, Side.RIGHT))
        if side is Side.LEFT and loc <= domain.lo:
            side = Side.RIGHT
        if side is Side.RIGHT and loc >= domain.hi:
            side = Side.LEFT
        if loc <= domain.lo and side is Side.LEFT:
            continue
        if loc >= domain.hi and side is Side.RIGHT:
            continue
        if (loc, side) in seen:
            continue
        seen.add((loc, side))
        if exact:
            mass = Fraction(rng.randint(0 if nonneg else -4, 4), rng.choice((1, 2, 4)))
        else:
            mass = rng.uniform(0 if nonneg else -1.5, 1.5)
        atoms.append(SideAtom(loc, side, mass))
    return FAMeasure(mu.density, FAMeasure.sort_atoms(atoms))


def piecewise_json(f: PiecewiseFn) -> dict:
    """f in the file format that PiecewiseFn.from_json reads (scenario kernels)."""
    return {"breakpoints": [fmt_rat(b) for b in f.breakpoints],
            "pieces": [[num_to_json(c) for c in coeffs] for coeffs in f.pieces],
            "point_values": [num_to_json(v) for v in f.point_values]}


def measure_json(mu: FAMeasure) -> dict:
    """mu in the file format that FAMeasure.from_json reads (traj --measure)."""
    return {"density": piecewise_json(mu.density),
            "atoms": [{"loc": fmt_rat(a.loc), "side": a.side.value,
                       "mass": num_to_json(a.mass)} for a in mu.atoms]}


def membership_samples(domain: Interval, *cells: Cell) -> list[Fraction]:
    """Endpoints and midpoints: a complete membership oracle grid for cells."""
    pts = {domain.lo, domain.hi}
    for c in cells:
        pts.update(c.endpoints())
    ordered = sorted(pts)
    mids = [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    return sorted(set(ordered + mids))


# -- reference LP solver ------------------------------------------------------------

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


@dataclass
class LPResult:
    status: str
    x: Optional[np.ndarray]
    value: float


def solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None) -> LPResult:
    """min c.x over x >= 0, A_eq x = b_eq, A_ub x <= b_ub (at least one row)
    by one cold two-phase simplex on the sweep's own phase 1: the reference
    for one support value of a set, one LP per direction.  A ratio test
    that finds no row after phase 1 means UNBOUNDED here; in phase 1 its
    NumericError propagates."""
    c = np.asarray(c, dtype=float)
    n = c.size
    A, b = simplex._standard_form(n, A_eq, b_eq, A_ub, b_ub)
    max_iter = 200 * sum(A.shape)
    start = simplex._phase1(A, b, [c], max_iter)
    if start is None:
        return LPResult(INFEASIBLE, None, np.inf)
    T, basis = start
    try:
        simplex._run_simplex(T, basis, T.shape[1] - 1, max_iter)
    except NumericError as exc:
        if "unbounded" not in str(exc):
            raise
        return LPResult(UNBOUNDED, None, -np.inf)
    x = np.zeros(T.shape[1] - 1)
    x[basis] = T[:basis.size, -1]
    return LPResult(OPTIMAL, x[:n], float(c @ x[:n]))
