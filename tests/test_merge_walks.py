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
from impulse_reach.measures import FAMeasure, Side, SideAtom, variation
from impulse_reach.piecewise import (
    MAX_DEGREE,
    PiecewiseFn,
    _common,
    integrate_eta,
    integrate_product,
    multiply,
    poly_eval,
    poly_mul,
    step_function,
    step_values,
    sup_norm,
)
from impulse_reach.rational import rat

from conftest import UNIT, rand_cuts, rand_partition, rand_rat, rand_step

F = Fraction
DOMAINS = [UNIT, Interval(F(1, 3), F(7, 5))]
DOMAIN_IDS = ["unit", "offset"]


# -- references ----------------------------------------------------------------

def poly_antiderivative(coeffs):
    """The antiderivative vanishing at 0, over the exact value of every coefficient."""
    return (Fraction(0),) + tuple((c if isinstance(c, Fraction) else Fraction(c)) / (k + 1)
                                  for k, c in enumerate(coeffs))


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


def ref_integrate_gaps(bps, piece, a: Cell):
    """The Fraction cursor walk: each gap's antiderivative evaluated in Fractions."""
    if not a.within(Interval(bps[0], bps[-1])):
        raise DomainError("integration cell must lie in the domain")
    total = Fraction(0)
    rounded = False
    for part in a.parts:
        lo, hi = part.lo, part.hi
        if lo == hi:
            continue
        i = bisect_right(bps, lo) - 1
        cursor = lo
        while cursor < hi:
            seg_hi = min(hi, bps[i + 1])
            coeffs = piece(i)
            rounded = rounded or any(isinstance(c, float) for c in coeffs)
            anti = poly_antiderivative(coeffs)
            total += poly_eval(anti, seg_hi) - poly_eval(anti, cursor)
            cursor = seg_hi
            i += 1
    return float(total) if rounded else total


def ref_integrate_product(f: PiecewiseFn, g: PiecewiseFn, a: Cell):
    """The merge walk over Fraction breakpoints, each gap multiplied by poly_mul."""
    if f.domain != g.domain:
        raise DomainError("functions live on different domains")
    fb, gb = f.breakpoints, g.breakpoints
    bps = [fb[0]]
    pairs = []
    i = j = 0
    while i < len(f.pieces):
        fp, gp = f.pieces[i], g.pieces[j]
        if len(fp) + len(gp) - 2 > MAX_DEGREE:
            raise CapacityError("product degree exceeds cap")
        pairs.append((fp, gp))
        f_hi, g_hi = fb[i + 1], gb[j + 1]
        if f_hi < g_hi:
            bps.append(f_hi)
            i += 1
        elif g_hi < f_hi:
            bps.append(g_hi)
            j += 1
        else:
            bps.append(f_hi)
            i += 1
            j += 1
    return ref_integrate_gaps(bps, lambda k: poly_mul(*pairs[k]), a)


def ref_sup_norm(f: PiecewiseFn):
    """The candidate loop of sup_norm, which exact step functions now skip."""
    best = 0
    for v in f.point_values:
        best = max(best, abs(v))
    for (a, b), coeffs in zip(zip(f.breakpoints, f.breakpoints[1:]), f.pieces):
        for t in (a, b):
            best = max(best, abs(poly_eval(coeffs, t)))
    return best


def ref_variation(mu: FAMeasure):
    total = 0
    for lo, hi, value in step_values(mu.density):
        total += abs(value) * (hi - lo)
    for atom in mu.atoms:
        total += abs(atom.mass)
    return total


def ref_captured_by(atom: SideAtom, cell: Cell) -> bool:
    t = atom.loc
    if atom.side is Side.LEFT:
        return any(start < (t, 0) <= end for start, end in cell.cut_ranges)
    return any(start <= (t, 1) < end for start, end in cell.cut_ranges)


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


def ref_rand_measure(rng: random.Random, dom: Interval, nonneg: bool) -> FAMeasure:
    atoms = []
    seen = set()
    for _ in range(rng.randint(0, 2)):
        den = rng.choice((2, 3, 4, 6, 8, 16))
        loc = dom.lo + Fraction(rng.randint(0, den), den) * (dom.hi - dom.lo)
        side = rng.choice((Side.LEFT, Side.RIGHT))
        if (side is Side.LEFT and loc <= dom.lo) or \
           (side is Side.RIGHT and loc >= dom.hi) or (loc, side) in seen:
            continue
        seen.add((loc, side))
        mass = Fraction(rng.randint(0 if nonneg else -3, 3), rng.choice((1, 2)))
        atoms.append(SideAtom(loc, side, mass))
    return FAMeasure(ref_rand_step(rng, dom, nonneg), FAMeasure.sort_atoms(atoms))


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


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_integer_integration_matches_the_fraction_walk(rng, domain):
    for _ in range(200):
        exact = rng.random() < 0.5
        f = rand_fn(rng, domain, max_degree=MAX_DEGREE, exact=exact, max_cuts=8)
        g = rand_fn(rng, domain, exact=exact or rng.random() < 0.5)
        h = rand_fn(rng, domain, max_degree=MAX_DEGREE - 2, exact=exact)
        a = rand_subcell(rng, domain)
        for got, want in ((integrate_eta(f, a), ref_integrate_gaps(
                               f.breakpoints, f.pieces.__getitem__, a)),
                          (integrate_product(h, g, a), ref_integrate_product(h, g, a)),
                          (integrate_product(g, h, a), ref_integrate_product(g, h, a))):
            # equal Fractions and the same float bits
            assert type(got) is type(want) and got == want


def test_integer_integration_edge_pieces():
    unit = Cell((UNIT,))
    third = PiecewiseFn((F(0), F(1)), ((F(1, 3), 0.0),), (0, 0))
    two = PiecewiseFn.constant(UNIT, 2)
    # poly_mul trims the product's float 0.0 top coefficient: the result is exact
    assert integrate_product(third, two, unit) == ref_integrate_product(third, two, unit) \
        == F(2, 3)
    assert type(integrate_product(third, two, unit)) is Fraction
    assert integrate_eta(third, unit) == 1 / 3 and type(integrate_eta(third, unit)) is float
    # an empty cell, a singleton part and a float constant that rounds
    assert integrate_eta(two, Cell()) == 0 and type(integrate_eta(two, Cell())) is Fraction
    assert integrate_eta(two, Cell((Interval(F(1, 2), F(1, 2)),))) == 0
    tenth = PiecewiseFn.constant(Interval(F(1, 3), F(7, 5)), 0.1)
    part = Cell((Interval(F(1, 3), F(2, 3)), Interval(F(1), F(7, 5))))
    assert integrate_eta(tenth, part) == float(F(0.1) * F(11, 15))
    with pytest.raises(DomainError):
        integrate_eta(two, Cell((Interval(F(1, 2), F(3, 2)),)))
    with pytest.raises(DomainError):
        integrate_product(tenth, two, unit)


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


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_exact_step_sup_norm_and_variation_match_reference(rng, domain):
    for _ in range(200):
        exact = rng.random() < 0.8
        f = rand_step(rng, domain, exact=exact, nonneg=rng.random() < 0.3)
        if rng.random() < 0.3:  # ints, ties between point values and pieces, zeros
            f = PiecewiseFn(f.breakpoints,
                            tuple((rng.choice((0, 1, -1, F(1), F(-1, 2))),) for _ in f.pieces),
                            tuple(rng.choice((0, 1, F(-1), F(1, 2))) for _ in f.breakpoints))
        got, want = sup_norm(f), ref_sup_norm(f)
        assert type(got) is type(want) and got == want
        mu = FAMeasure(f, FAMeasure.sort_atoms(
            SideAtom(t, side, rng.choice((1, F(-3, 2), 0.5 if not exact else F(1, 3))))
            for t in rand_cuts(rng, domain, 2) for side in (Side.LEFT, Side.RIGHT)
            if rng.random() < 0.5))
        got, want = variation(mu), ref_variation(mu)
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_atom_capture_matches_the_cut_rule(rng, domain):
    for _ in range(200):
        cell = rand_subcell(rng, domain)
        ends = [t for part in cell.parts for t in (part.lo, part.hi)]
        for t in ends + rand_cuts(rng, domain, 3):
            for side in (Side.LEFT, Side.RIGHT):
                atom = SideAtom(t, side, 1)
                assert atom.captured_by(cell) == ref_captured_by(atom, cell)


def test_measure_rejects_unsorted_duplicate_and_outside_atoms():
    dom = DOMAINS[1]  # [1/3, 7/5]
    zero = PiecewiseFn.constant(dom, 0)
    a, b = F(1, 2), F(2, 3)
    FAMeasure(zero, (SideAtom(dom.lo, Side.RIGHT, 1), SideAtom(a, Side.LEFT, 1),
                     SideAtom(a, Side.RIGHT, 1), SideAtom(b, Side.LEFT, 1),
                     SideAtom(dom.hi, Side.LEFT, 1)))
    for atoms, message in [
            ((SideAtom(b, Side.LEFT, 1), SideAtom(a, Side.LEFT, 1)), "sorted"),
            ((SideAtom(a, Side.RIGHT, 1), SideAtom(a, Side.LEFT, 1)), "sorted"),
            ((SideAtom(a, Side.LEFT, 1), SideAtom(F(2, 4), Side.LEFT, 2)), "duplicate"),
            ((SideAtom(dom.lo, Side.LEFT, 1),), "Left atom"),
            ((SideAtom(dom.hi, Side.RIGHT, 1),), "Right atom"),
            ((SideAtom(F(1, 4), Side.RIGHT, 1),), "outside"),
            ((SideAtom(F(3, 2), Side.LEFT, 1),), "outside")]:
        with pytest.raises(DomainError, match=message):
            FAMeasure(zero, atoms)


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


def test_integer_keys_separate_cuts_at_one_time():
    # each pair differs only in whether one time t belongs to a part: the
    # cut keys 2·t·D and 2·t·D + 1 are one apart
    half = F(1, 2)
    left_open = Interval(F(0), half, True, False)
    right_open = Interval(half, F(1), False, True)
    with pytest.raises(DomainError, match="gap"):
        Partition((Cell((left_open,)), Cell((right_open,))), UNIT)
    with pytest.raises(DomainError, match="overlap"):
        Partition((Cell((Interval(F(0), half),)), Cell((Interval(half, F(1)),))), UNIT)
    with pytest.raises(DomainError, match="non-adjacent"):
        Cell((left_open, Interval(half, F(1))))
    Cell((left_open, right_open))
    with pytest.raises(DomainError, match="strictly increasing"):
        PiecewiseFn((F(0), half, F(2, 4), F(1)), ((1,), (2,), (3,)), (1, 2, 3, 3))
    # {1/2} alone is finer than no cell of [0, 1/2) + [1/2, 1], and [0, 1/2]
    # is finer than no cell of [0, 1/2) + [1/2, 1]
    coarse = Partition((Cell((left_open,)), Cell((Interval(half, F(1)),))), UNIT)
    point = Partition((Cell((left_open,)), Cell((Interval(half, half),)),
                       Cell((right_open,))), UNIT)
    closed = Partition((Cell((Interval(F(0), half),)), Cell((right_open,))), UNIT)
    assert is_finer(point, coarse) and not is_finer(closed, coarse)
    assert not ref_is_finer(closed, coarse)


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
            assert checks._rand_measure(new, domain, nonneg) == \
                ref_rand_measure(old, domain, nonneg)
        assert new.getstate() == old.getstate()
