"""Randomized invariant battery behind the CLI `check` command.

Each check replays library invariants on measures and controls derived from
the scenario's own kernels plus seeded random data, and returns a list of
(name, passed, detail) rows.
"""

from __future__ import annotations

import random
from fractions import Fraction

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


def _rand_rat(rng: random.Random, lo: Fraction, span: Fraction) -> Fraction:
    """lo + (k/den)·span for a random den in 2..16 and a random k in [0, den].

    Built as one Fraction, so it is normalized once.
    """
    den = rng.choice((2, 3, 4, 6, 8, 16))
    k = rng.randint(0, den)
    return Fraction(lo.numerator * span.denominator * den + k * span.numerator * lo.denominator,
                    lo.denominator * span.denominator * den)


def _rand_cuts(rng: random.Random, dom: Interval, count: int) -> list[Fraction]:
    span = dom.length
    return sorted({_rand_rat(rng, dom.lo, span) for _ in range(count)}
                  - {dom.lo, dom.hi})


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
        loc = _rand_rat(rng, dom.lo, dom.length)
        side = rng.choice((Side.LEFT, Side.RIGHT))
        if (side is Side.LEFT and loc <= dom.lo) or \
           (side is Side.RIGHT and loc >= dom.hi) or (loc, side) in seen:
            continue
        seen.add((loc, side))
        mass = Fraction(rng.randint(0 if nonneg else -3, 3), rng.choice((1, 2)))
        atoms.append(SideAtom(loc, side, mass))
    return FAMeasure(_rand_step(rng, dom, nonneg), FAMeasure.sort_atoms(atoms))


def _split_cell(rng: random.Random, cell: Cell, dom: Interval) -> list[Cell]:
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


def run_battery(sys: ImpulseSystem, cons: ConstraintSpec,
                seed: int = 0) -> list[CheckRow]:
    rng = random.Random(seed)
    dom = sys.domain
    rows: list[CheckRow] = []

    ok, tried = True, 0
    for _ in range(50):
        a = partition_from_cuts(dom, _rand_cuts(rng, dom, 4))
        b = partition_from_cuts(dom, _rand_cuts(rng, dom, 4))
        r = common_refinement(a, b)
        tried += 1
        if not (is_finer(r, a) and is_finer(r, b)):
            ok = False
            break
    rows.append(("refinement-direction", ok, f"{tried} partition pairs"))

    ok, tried = True, 0
    for _ in range(100):
        mu = _rand_measure(rng, dom, nonneg=False)
        cell_parts = partition_from_cuts(dom, _rand_cuts(rng, dom, 3)).cells
        cell = rng.choice(cell_parts)
        subs = _split_cell(rng, cell, dom)
        tried += 1
        if sum((eval_cell(mu, s) for s in subs), Fraction(0)) != eval_cell(mu, cell):
            ok = False
            break
    rows.append(("finite-additivity", ok, f"{tried} measure/cell splits"))

    ok, tried = True, 0
    for _ in range(50):
        mu = _rand_measure(rng, dom, nonneg=False)
        u = _rand_step(rng, dom, nonneg=False)
        tried += 1
        if abs(integral(u, mu)) > sup_norm(u) * variation(mu):
            ok = False
            break
    rows.append(("integral-bound", ok, f"{tried} (u, mu) pairs"))

    ok, tried = True, 0
    for _ in range(25):
        f = _rand_step(rng, dom, nonneg=True)
        total = integrate_eta(f, Cell((dom,)))
        if total == 0:
            continue
        b = sys.b if isinstance(sys.b, float) else Fraction(sys.b)
        f = scale(b / total, f)
        tried += 1
        if gen_moments(indefinite(f), sys, cons) != moments(f, sys, cons):
            ok = False
            break
    rows.append(("factorization", ok, f"{tried} step controls"))

    ok, tried = True, 0
    for _ in range(25):
        mu = _rand_measure(rng, dom, nonneg=True)
        h = _rand_step(rng, dom, nonneg=False)
        cuts = set(h.breakpoints[1:-1]) | {a.loc for a in mu.atoms}
        partition = partition_from_cuts(dom, cuts | set(_rand_cuts(rng, dom, 2)))
        theta = averaging(mu, partition)
        tried += 1
        if integrate_product(h, theta, Cell((dom,))) != integral(h, mu):
            ok = False
            break
    rows.append(("averaging-exactness", ok, f"{tried} (mu, h) pairs"))

    ok, tried = True, 0
    for _ in range(50):
        mu = _rand_measure(rng, dom, nonneg=False)
        pts = {_rand_rat(rng, dom.lo, dom.length) for _ in range(3)}
        null = Cell.from_intervals([Interval(t, t) for t in pts])
        tried += 1
        if eval_cell(mu, null) != 0:
            ok = False
            break
    rows.append(("null-set-vanishing", ok, f"{tried} null cells"))

    return rows
