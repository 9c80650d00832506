"""Randomized invariant battery behind the CLI `check` command.

Each check replays library invariants on measures and controls derived from
the scenario's own kernels plus seeded random data, and returns a list of
(name, passed, detail) rows.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Optional

from .dynamics import ConstraintSpec, ImpulseSystem, gen_moments, moments
from .intervals import (
    Cell,
    Interval,
    common_refinement,
    is_finer,
    partition_from_cuts,
)
from .measures import (
    FAMeasure,
    Side,
    SideAtom,
    averaging,
    eval_cell,
    indefinite,
    integral,
    variation,
)
from .piecewise import (
    PiecewiseFn,
    integrate_eta,
    integrate_product,
    scale,
    sup_norm,
)

CheckRow = tuple[str, bool, str]


# Every draw is lo + (k/den)·span for a random den in DENS and k in [0, den],
# so it is the point m/LATTICE of the span for the lattice index
# m = k·(LATTICE/den).  Draws are compared, deduplicated and sorted as these
# ints, and each kept one becomes a Fraction once.
DENS = (2, 3, 4, 6, 8, 16)
LATTICE = 48


def _rand_index(rng: random.Random) -> int:
    den = rng.choice(DENS)
    return rng.randint(0, den) * (LATTICE // den)


def _lattice_points(dom: Interval, indices: Iterable[int]) -> list[Fraction]:
    """lo + (m/LATTICE)·span for each lattice index m, in the given order."""
    (a, b), (c, d) = dom.lo.as_integer_ratio(), dom.hi.as_integer_ratio()
    span = c * b - a * d
    return [Fraction(LATTICE * a * d + m * span, LATTICE * b * d) for m in indices]


def _rand_cuts(rng: random.Random, dom: Interval, count: int) -> list[Fraction]:
    """count draws on the domain, of positive length, sorted and distinct,
    its endpoints dropped."""
    indices = {_rand_index(rng) for _ in range(count)}
    return _lattice_points(dom, sorted(m for m in indices if 0 < m < LATTICE))


def _rand_step(rng: random.Random, dom: Interval, nonneg: bool) -> PiecewiseFn:
    """A random value on each cell [t_i, t_{i+1}) of random cuts, the last cell closed.

    This is step_function over partition_from_cuts' cells, built directly.
    """
    bps = (dom.lo, *_rand_cuts(rng, dom, 4), dom.hi)
    values = [Fraction(rng.randint(0 if nonneg else -6, 6), rng.choice((1, 2)))
              for _ in bps[1:]]
    return PiecewiseFn(bps, tuple((v,) for v in values), (*values, values[-1]))


def _rand_measure(rng: random.Random, dom: Interval, nonneg: bool) -> FAMeasure:
    atoms = []
    seen = set()
    for _ in range(rng.randint(0, 2)):
        m = _rand_index(rng)
        side = rng.choice((Side.LEFT, Side.RIGHT))
        if (side is Side.LEFT and m == 0) or \
           (side is Side.RIGHT and m == LATTICE) or (m, side) in seen:
            continue
        seen.add((m, side))
        mass = Fraction(rng.randint(0 if nonneg else -3, 3), rng.choice((1, 2)))
        atoms.append(SideAtom(_lattice_points(dom, (m,))[0], side, mass))
    return FAMeasure(_rand_step(rng, dom, nonneg), FAMeasure.sort_atoms(atoms))


def _split_cell(rng: random.Random, cell: Cell) -> list[Cell]:
    parts = []
    for part in cell.parts:
        if part.lo == part.hi:
            parts.append(part)
            continue
        for sub in partition_from_cuts(part, _rand_cuts(rng, part, 2)).cells:
            parts.extend(sub.parts)
    if not parts:
        return []
    k = rng.randint(1, len(parts))
    buckets: list[list] = [[] for _ in range(k)]
    for i, part in enumerate(parts):
        buckets[i % k].append(part)
    return [Cell.from_intervals(b) for b in buckets if b]


# Each law draws its inputs from rng and says whether the invariant holds on
# them, or None for a draw it cannot test.


def _refinement_direction(rng: random.Random, dom: Interval, sys: ImpulseSystem,
                          cons: ConstraintSpec) -> Optional[bool]:
    a = partition_from_cuts(dom, _rand_cuts(rng, dom, 4))
    b = partition_from_cuts(dom, _rand_cuts(rng, dom, 4))
    r = common_refinement(a, b)
    return is_finer(r, a) and is_finer(r, b)


def _finite_additivity(rng: random.Random, dom: Interval, sys: ImpulseSystem,
                       cons: ConstraintSpec) -> Optional[bool]:
    mu = _rand_measure(rng, dom, nonneg=False)
    cell = rng.choice(partition_from_cuts(dom, _rand_cuts(rng, dom, 3)).cells)
    subs = _split_cell(rng, cell)
    return sum((eval_cell(mu, s) for s in subs), Fraction(0)) == eval_cell(mu, cell)


def _integral_bound(rng: random.Random, dom: Interval, sys: ImpulseSystem,
                    cons: ConstraintSpec) -> Optional[bool]:
    mu = _rand_measure(rng, dom, nonneg=False)
    u = _rand_step(rng, dom, nonneg=False)
    return abs(integral(u, mu)) <= sup_norm(u) * variation(mu)


def _factorization(rng: random.Random, dom: Interval, sys: ImpulseSystem,
                   cons: ConstraintSpec) -> Optional[bool]:
    """None for a massless draw, which no mass-b control rescales."""
    f = _rand_step(rng, dom, nonneg=True)
    total = integrate_eta(f, Cell((dom,)))
    if total == 0:
        return None
    f = scale(sys.b / total, f)
    return gen_moments(indefinite(f), sys, cons) == moments(f, sys, cons)


def _averaging_exactness(rng: random.Random, dom: Interval, sys: ImpulseSystem,
                         cons: ConstraintSpec) -> Optional[bool]:
    mu = _rand_measure(rng, dom, nonneg=True)
    h = _rand_step(rng, dom, nonneg=False)
    cuts = set(h.breakpoints[1:-1]) | {a.loc for a in mu.atoms}
    partition = partition_from_cuts(dom, cuts | set(_rand_cuts(rng, dom, 2)))
    return integrate_product(h, averaging(mu, partition), Cell((dom,))) == integral(h, mu)


def _null_set_vanishing(rng: random.Random, dom: Interval, sys: ImpulseSystem,
                        cons: ConstraintSpec) -> Optional[bool]:
    mu = _rand_measure(rng, dom, nonneg=False)
    pts = _lattice_points(dom, sorted({_rand_index(rng) for _ in range(3)}))
    return eval_cell(mu, Cell.from_intervals([Interval(t, t) for t in pts])) == 0


# (row name, law, draws, unit of the tested draws), in the order of the rows
LAWS = (
    ("refinement-direction", _refinement_direction, 50, "partition pairs"),
    ("finite-additivity", _finite_additivity, 100, "measure/cell splits"),
    ("integral-bound", _integral_bound, 50, "(u, mu) pairs"),
    ("factorization", _factorization, 25, "step controls"),
    ("averaging-exactness", _averaging_exactness, 25, "(mu, h) pairs"),
    ("null-set-vanishing", _null_set_vanishing, 50, "null cells"),
)


def run_battery(sys: ImpulseSystem, cons: ConstraintSpec,
                seed: int = 0) -> list[CheckRow]:
    """One row per law: it passes when every tested draw holds, and stops at
    the first that fails."""
    rng = random.Random(seed)
    dom = sys.domain
    rows: list[CheckRow] = []
    for name, law, draws, unit in LAWS:
        ok, tried = True, 0
        for _ in range(draws):
            holds = law(rng, dom, sys, cons)
            if holds is None:
                continue
            tried += 1
            if not holds:
                ok = False
                break
        rows.append((name, ok, f"{tried} {unit}"))
    return rows
