"""The merge-walk primitives against the scan-based code they replace.

Each reference below is the earlier implementation, kept as the oracle in
the way conftest's `solve_lp`, one cold LP per direction, serves the
shadow-vertex sweep: it evaluates or scans every point and cell pair, so it
is slow but plainly right.  Every rewrite
must agree with it exactly on seeded random inputs: equal Fractions, the
same float bits and the same errors.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from impulse_reach import checks
from impulse_reach.errors import CapacityError, DomainError
from impulse_reach.intervals import (
    Cell,
    Interval,
    Partition,
    _interval_from_cuts,
    cell_intersect,
    common_refinement,
    is_finer,
    partition_from_cuts,
)
from impulse_reach.piecewise import (
    MAX_DEGREE,
    PiecewiseFn,
    _common,
    integrate_eta,
    integrate_product,
    multiply,
    poly_antiderivative,
    poly_eval,
    step_function,
)
from impulse_reach.rational import rat

from conftest import UNIT, rand_cuts, rand_partition, rand_rat

F = Fraction
DOMAINS = [UNIT, Interval(F(1, 3), F(7, 5))]
DOMAIN_IDS = ["unit", "offset"]


# -- references ----------------------------------------------------------------

def ref_eval(f: PiecewiseFn, t: Fraction):
    i = bisect_left(f.breakpoints, t)
    if i < len(f.breakpoints) and f.breakpoints[i] == t:
        return f.point_values[i]
    return poly_eval(f.pieces[i - 1], t)


def ref_refine(f: PiecewiseFn, extra) -> PiecewiseFn:
    new = sorted(set(f.breakpoints) | {rat(t) for t in extra})
    if new[0] != f.breakpoints[0] or new[-1] != f.breakpoints[-1]:
        raise DomainError("refinement points must lie inside the domain")
    pieces = []
    values = [ref_eval(f, t) for t in new]
    for a in new[:-1]:
        i = bisect_right(f.breakpoints, a) - 1
        pieces.append(f.pieces[min(i, len(f.pieces) - 1)])
    return PiecewiseFn(tuple(new), tuple(pieces), tuple(values))


def ref_common(f: PiecewiseFn, g: PiecewiseFn):
    cuts = set(f.breakpoints) | set(g.breakpoints)
    return ref_refine(f, cuts), ref_refine(g, cuts)


def ref_step_function(domain: Interval, cell_values, default=0) -> PiecewiseFn:
    cuts = {domain.lo, domain.hi}
    for cell, _ in cell_values:
        cuts.update(t for t in cell.endpoints() if domain.lo <= t <= domain.hi)
    bps = sorted(cuts)

    def value_at(t):
        for cell, v in cell_values:
            if cell.contains(t):
                return v
        return default

    pieces = tuple((value_at((a + b) / 2),) for a, b in zip(bps, bps[1:]))
    values = tuple(value_at(b) for b in bps)
    return PiecewiseFn(tuple(bps), pieces, values)


def ref_is_finer(fine: Partition, coarse: Partition) -> bool:
    return all(any(cell_intersect(small, big) == small for big in coarse.cells)
               for small in fine.cells)


def ref_common_refinement(a: Partition, b: Partition) -> Partition:
    cells = [m for ca in a.cells for cb in b.cells
             if not (m := cell_intersect(ca, cb)).is_empty]
    return Partition(tuple(cells), a.domain)


def ref_integrate_eta(f: PiecewiseFn, a: Cell):
    total = Fraction(0)
    rounded = False
    for part in a.parts:
        lo, hi = part.lo, part.hi
        if lo == hi:
            continue
        i = min(bisect_right(f.breakpoints, lo) - 1, len(f.pieces) - 1)
        cursor = lo
        while cursor < hi:
            seg_hi = min(hi, f.breakpoints[i + 1])
            rounded = rounded or any(isinstance(c, float) for c in f.pieces[i])
            anti = poly_antiderivative(f.pieces[i])
            total += poly_eval(anti, seg_hi) - poly_eval(anti, cursor)
            cursor = seg_hi
            i += 1
    return float(total) if rounded else total


def ref_partition_from_cuts(domain: Interval, cuts) -> Partition:
    inner = sorted({rat(t) for t in cuts if domain.lo < rat(t) < domain.hi})
    bounds = [domain.start_cut] + [(t, 0) for t in inner] + [domain.end_cut]
    cells = [Cell((_interval_from_cuts(s, e),))
             for s, e in zip(bounds, bounds[1:]) if s < e]
    return Partition(tuple(cells), domain)


def ref_rand_cuts(rng: random.Random, dom: Interval, count: int) -> list[Fraction]:
    def rand_rat_(lo, hi):
        den = rng.choice((2, 3, 4, 6, 8, 16))
        return lo + Fraction(rng.randint(0, den), den) * (hi - lo)
    return sorted({rand_rat_(dom.lo, dom.hi) for _ in range(count)} - {dom.lo, dom.hi})


def ref_rand_step(rng: random.Random, dom: Interval, nonneg: bool) -> PiecewiseFn:
    cells = partition_from_cuts(dom, ref_rand_cuts(rng, dom, 4)).cells
    values = [Fraction(rng.randint(0 if nonneg else -6, 6), rng.choice((1, 2)))
              for _ in cells]
    return step_function(dom, list(zip(cells, values)))


# -- random inputs -------------------------------------------------------------

def rand_coeff(rng: random.Random, exact: bool):
    if exact:
        return F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    return rng.uniform(-2.0, 2.0)


def rand_fn(rng: random.Random, domain: Interval, max_degree: int = 2,
            exact: bool = True, max_cuts: int = 5) -> PiecewiseFn:
    """Pieces of random degree; point values drawn apart from the pieces.

    Unless `exact`, each coefficient and value is a float with even odds.
    """
    def coeff():
        return rand_coeff(rng, exact or rng.random() < 0.5)
    bps = (domain.lo, *rand_cuts(rng, domain, max_cuts), domain.hi)
    pieces = tuple(tuple(coeff() for _ in range(rng.randint(1, max_degree + 1)))
                   for _ in bps[1:])
    values = tuple(coeff() for _ in bps)
    return PiecewiseFn(bps, pieces, values)


def rand_atoms(rng: random.Random, domain: Interval) -> list[Interval]:
    """A cover of the domain by disjoint intervals with every kind of end.

    Each interior cut goes to the interval on its left, the one on its
    right, or its own singleton.
    """
    cuts = rand_cuts(rng, domain, 6)
    modes = [rng.choice(("left", "right", "single")) for _ in cuts]
    lo_closed = [True] + [m == "right" for m in modes]
    hi_closed = [m == "left" for m in modes] + [True]
    ends = [domain.lo, *cuts, domain.hi]
    atoms = [Interval(a, b, lo_closed[k], hi_closed[k])
             for k, (a, b) in enumerate(zip(ends, ends[1:]))]
    atoms += [Interval(t, t) for t, m in zip(cuts, modes) if m == "single"]
    return sorted(atoms, key=lambda iv: iv.start_cut)


def rand_disjoint_cells(rng: random.Random, domain: Interval) -> list[Cell]:
    """Disjoint, often multi-part cells that may leave parts of the domain bare."""
    atoms = rand_atoms(rng, domain)
    k = rng.randint(1, len(atoms))
    buckets: list[list[Interval]] = [[] for _ in range(k)]
    for atom in atoms:
        buckets[rng.randrange(k)].append(atom)
    cells = [Cell.from_intervals(b) for b in buckets if b and rng.random() < 0.7]
    rng.shuffle(cells)
    return cells


def rand_subcell(rng: random.Random, domain: Interval) -> Cell:
    """A union of random atoms: multi-part, with singletons and either kind of end."""
    return Cell.from_intervals(a for a in rand_atoms(rng, domain) if rng.random() < 0.4)


def rand_grouped_partition(rng: random.Random, domain: Interval) -> Partition:
    atoms = rand_atoms(rng, domain)
    k = rng.randint(1, len(atoms))
    buckets: list[list[Interval]] = [[] for _ in range(k)]
    for i, atom in enumerate(atoms):
        buckets[i % k if i < k else rng.randrange(k)].append(atom)
    return Partition(tuple(Cell.from_intervals(b) for b in buckets), domain)


# -- piecewise -----------------------------------------------------------------

@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_refine_matches_reference(rng, domain):
    for _ in range(150):
        f = rand_fn(rng, domain, exact=rng.random() < 0.5)
        extra = rand_cuts(rng, domain, 4) + rng.sample(f.breakpoints, 2)
        assert f.refine(extra) == ref_refine(f, extra)
        assert f.refine(f.breakpoints) == f
        outside = domain.hi + F(1, 7)
        with pytest.raises(DomainError):
            ref_refine(f, extra + [outside])
        with pytest.raises(DomainError):
            f.refine(extra + [outside])


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_common_matches_reference(rng, domain):
    for _ in range(150):
        f = rand_fn(rng, domain, exact=rng.random() < 0.5)
        if rng.random() < 0.4:  # equal breakpoints
            g = PiecewiseFn(f.breakpoints, tuple((rand_coeff(rng, True),) for _ in f.pieces),
                            tuple(rand_coeff(rng, True) for _ in f.breakpoints))
        else:
            g = rand_fn(rng, domain)
        assert _common(f, g) == ref_common(f, g)


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_step_function_matches_reference(rng, domain):
    for _ in range(200):
        cells = rand_disjoint_cells(rng, domain)
        cell_values = [(c, rand_coeff(rng, True)) for c in cells]
        default = rng.choice((0, F(-5, 2)))
        assert step_function(domain, cell_values, default) == \
            ref_step_function(domain, cell_values, default)


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_integrate_eta_matches_reference(rng, domain):
    for _ in range(150):
        exact = rng.random() < 0.5
        f = rand_fn(rng, domain, max_degree=MAX_DEGREE, exact=exact)
        a = rand_subcell(rng, domain)
        got, want = integrate_eta(f, a), ref_integrate_eta(f, a)
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_integrate_product_matches_product_path(rng, domain):
    for _ in range(200):
        exact = rng.random() < 0.5
        f = rand_fn(rng, domain, exact=exact)
        g = rand_fn(rng, domain, exact=exact or rng.random() < 0.5)
        a = rand_subcell(rng, domain)
        got, want = integrate_product(f, g, a), integrate_eta(multiply(f, g), a)
        # bit-equal floats and equal Fractions alike
        assert type(got) is type(want) and got == want


def test_integrate_product_raises_where_multiply_does(rng):
    for _ in range(50):
        f = rand_fn(rng, UNIT, max_degree=MAX_DEGREE)
        g = rand_fn(rng, UNIT, max_degree=MAX_DEGREE)
        a = rand_subcell(rng, UNIT)
        try:
            want = integrate_eta(multiply(f, g), a)
        except CapacityError:
            with pytest.raises(CapacityError):
                integrate_product(f, g, a)
        else:
            assert integrate_product(f, g, a) == want
    # the overflowing gap lies outside the cell: both still refuse
    cubic = PiecewiseFn.build(["0", "1/2", "1"], [[1], [0, 0, 0, 1]])
    square = PiecewiseFn.build(["0", "1"], [[0, 0, 1]])
    head = Cell((Interval.make(0, "1/4"),))
    with pytest.raises(CapacityError):
        integrate_eta(multiply(cubic, square), head)
    with pytest.raises(CapacityError):
        integrate_product(cubic, square, head)
    with pytest.raises(DomainError):
        integrate_product(cubic, PiecewiseFn.constant(DOMAINS[1], 1), head)


# -- intervals -----------------------------------------------------------------

@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_is_finer_and_common_refinement_match_reference(rng, domain):
    for _ in range(100):
        if rng.random() < 0.5:
            a, b = rand_grouped_partition(rng, domain), rand_grouped_partition(rng, domain)
        else:
            a, b = rand_partition(rng, domain), rand_partition(rng, domain)
        r = common_refinement(a, b)
        assert r == ref_common_refinement(a, b)
        for fine, coarse in ((r, a), (r, b), (a, b), (b, a), (a, r)):
            assert is_finer(fine, coarse) == ref_is_finer(fine, coarse)


def test_is_finer_needs_one_coarse_cell_per_fine_cell():
    halves = partition_from_cuts(UNIT, ["1/2"])
    split = Partition((Cell((Interval.make(0, "1/4", True, False),
                             Interval.make("3/4", 1))),
                       Cell((Interval.make("1/4", "3/4", True, False),))), UNIT)
    # every part of the first cell lies in some half, but not in the same one
    assert not is_finer(split, halves) and not ref_is_finer(split, halves)


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_partition_from_cuts_matches_reference(rng, domain):
    for _ in range(100):
        cuts = [rand_rat(rng, domain.lo - 1, domain.hi + 1) for _ in range(rng.randint(0, 6))]
        cuts += [str(t) for t in cuts[:2]] + [domain.lo, domain.hi]
        assert partition_from_cuts(domain, cuts) == ref_partition_from_cuts(domain, cuts)


# -- checks --------------------------------------------------------------------

@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_random_data_keeps_draws_and_rng_sequence(domain):
    for seed in range(20):
        new, old = random.Random(seed), random.Random(seed)
        for count in (2, 3, 4):
            assert checks._rand_cuts(new, domain, count) == ref_rand_cuts(old, domain, count)
        for nonneg in (False, True):
            assert checks._rand_step(new, domain, nonneg) == ref_rand_step(old, domain, nonneg)
        assert new.getstate() == old.getstate()
