import random
from fractions import Fraction

import pytest

from impulse_reach.errors import CapacityError, DomainError
from impulse_reach.intervals import (
    Cell,
    Interval,
    Partition,
    partition_from_cuts,
)
from impulse_reach.measures import (
    FAMeasure,
    Side,
    SideAtom,
    averaging,
    eval_cell,
    indefinite,
    integral,
    measure_lin_comb,
    membership_xi,
    variation,
)
from impulse_reach.piecewise import (
    PiecewiseFn,
    fn_equal,
    indicator,
    integrate_eta,
    lin_comb,
    multiply,
    sup_norm,
)

from conftest import (
    UNIT,
    measure_json,
    rand_cell,
    rand_cuts,
    rand_measure,
    rand_partition,
    rand_step,
)

F = Fraction


def cell_of(*specs) -> Cell:
    ivs = [Interval.point(s) if not isinstance(s, tuple) else Interval.make(*s)
           for s in specs]
    return Cell.from_intervals(ivs)


def zigzag() -> PiecewiseFn:
    return PiecewiseFn.build(["0", "1/2", "1"], [[1], [-1]], [1, -1, -1])


def refine_cell(rng: random.Random, cell: Cell) -> list[Cell]:
    """Split a cell into a random disjoint family covering it."""
    pieces = []
    for part in cell.parts:
        if part.lo == part.hi:
            pieces.append(Interval(part.lo, part.hi))
            continue
        cuts = sorted({t for t in rand_cuts(rng, part, 3)})
        sub = partition_from_cuts(part, cuts)
        pieces.extend(p for c in sub.cells for p in c.parts)
    if not pieces:
        return []
    k = rng.randint(1, len(pieces))
    buckets = [[] for _ in range(k)]
    for i, part in enumerate(pieces):
        buckets[i % k if i < k else rng.randrange(k)].append(part)
    return [Cell.from_intervals(b) for b in buckets if b]


# -- eval_cell ----------------------------------------------------------------

def test_one_sided_dirac_neighborhood_rule():
    mu = FAMeasure.dirac("1/2", Side.LEFT, UNIT)
    assert eval_cell(mu, cell_of((0, "1/2", True, False))) == 1
    assert eval_cell(mu, cell_of(("1/2", 1))) == 0
    assert eval_cell(mu, cell_of("1/2")) == 0
    nu = FAMeasure.dirac("1/2", Side.RIGHT, UNIT)
    assert eval_cell(nu, cell_of((0, "1/2", True, False))) == 0
    assert eval_cell(nu, cell_of(("1/2", 1))) == 1
    assert eval_cell(nu, cell_of(("1/2", "3/4", False, False))) == 1


def test_eval_empty_cell(rng):
    for _ in range(20):
        assert eval_cell(rand_measure(rng), Cell()) == 0


def test_indefinite_integral_eval():
    f = lin_comb(4, indicator(cell_of((0, "1/4", True, False)), UNIT), 0,
                 PiecewiseFn.constant(UNIT, 0))
    mu = indefinite(f)
    # antiderivative oracle: integral of 4*chi_[0,1/4) over [1/8,1]
    assert eval_cell(mu, cell_of(("1/8", 1))) == F(1, 2)


def test_additivity_over_partitions_of_cell(rng):
    for _ in range(120):
        mu = rand_measure(rng)
        cell = rand_cell(rng)
        subs = refine_cell(rng, cell)
        total = sum((eval_cell(mu, s) for s in subs), F(0))
        assert total == eval_cell(mu, cell)


# -- variation ----------------------------------------------------------------

def test_variation_zero_measure():
    assert variation(FAMeasure.zero(UNIT)) == 0


def test_variation_nonneg_is_total_mass():
    mu = measure_lin_comb(1, FAMeasure.dirac("1/4", Side.RIGHT, UNIT, F(3, 10)),
                          1, indefinite(PiecewiseFn.constant(UNIT, F(14, 10))))
    assert variation(mu) == F(17, 10)
    assert variation(mu) == eval_cell(mu, Cell((UNIT,)))


def test_variation_signed_formula_vs_partition_sup(rng):
    density = PiecewiseFn.build(["0", "1/2", "1"], [[1], [-1]], [1, -1, -1])
    mu = FAMeasure(density, (SideAtom.make("3/4", Side.LEFT, -F(1, 2)),))
    formula = variation(mu)
    assert formula == F(3, 2)
    best = F(0)
    for trial in range(400):
        cuts = set(rand_cuts(rng, UNIT, 5))
        if trial % 4 == 0:
            cuts |= {F(1, 2), F(3, 4)}
        p = partition_from_cuts(UNIT, cuts)
        total = sum((abs(eval_cell(mu, c)) for c in p.cells), F(0))
        assert total <= formula
        best = max(best, total)
    # the defining supremum is attained once the sign-change cuts are present
    assert best == formula


def test_variation_norm_properties(rng):
    for _ in range(40):
        mu, nu = rand_measure(rng), rand_measure(rng)
        alpha = F(rng.randint(-3, 3), rng.choice((1, 2)))
        assert variation(measure_lin_comb(alpha, mu, 0, FAMeasure.zero(UNIT))) == \
            abs(alpha) * variation(mu)
        assert variation(measure_lin_comb(1, mu, 1, nu)) <= variation(mu) + variation(nu)


def test_variation_equals_mass_for_nonneg(rng):
    for _ in range(40):
        mu = rand_measure(rng, nonneg=True)
        assert variation(mu) == eval_cell(mu, Cell((UNIT,)))


# -- membership ---------------------------------------------------------------

def test_membership_examples():
    assert membership_xi(indefinite(PiecewiseFn.constant(UNIT, 1)), 1)
    assert membership_xi(FAMeasure.dirac("1/2", Side.LEFT, UNIT), 1)
    neg = indefinite(lin_comb(-1, indicator(cell_of((0, "1/2", True, False)), UNIT),
                              0, PiecewiseFn.constant(UNIT, 0)))
    assert not membership_xi(neg, 1)
    assert not membership_xi(neg, -F(1, 2))


# -- integral -----------------------------------------------------------------

def test_integral_of_indicator_is_measure_value(rng):
    for _ in range(60):
        mu = rand_measure(rng)
        cell = rand_cell(rng)
        assert integral(indicator(cell, UNIT), mu) == eval_cell(mu, cell)


def test_integral_of_zero(rng):
    mu = rand_measure(rng)
    assert integral(PiecewiseFn.constant(UNIT, 0), mu) == 0


def test_integral_zigzag_left_dirac():
    pi1 = multiply(PiecewiseFn.build(["0", "1"], [[1, -1]]), zigzag())
    mu = FAMeasure.dirac("1/2", Side.LEFT, UNIT)
    assert integral(pi1, mu) == F(1, 2)
    nu = FAMeasure.dirac("1/2", Side.RIGHT, UNIT)
    assert integral(pi1, nu) == -F(1, 2)


def test_integral_bilinear(rng):
    for _ in range(60):
        u, v = rand_step(rng), rand_step(rng)
        mu, nu = rand_measure(rng), rand_measure(rng)
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3), 2)
        assert integral(lin_comb(a, u, b, v), mu) == \
            a * integral(u, mu) + b * integral(v, mu)
        assert integral(u, measure_lin_comb(a, mu, b, nu)) == \
            a * integral(u, mu) + b * integral(u, nu)


def test_integral_bound(rng):
    for _ in range(60):
        u = rand_step(rng)
        mu = rand_measure(rng)
        assert abs(integral(u, mu)) <= sup_norm(u) * variation(mu)


# -- indefinite ---------------------------------------------------------------

def test_indefinite_zero():
    mu = indefinite(PiecewiseFn.constant(UNIT, 0))
    assert variation(mu) == 0


def test_indefinite_prefix_value():
    f = lin_comb(4, indicator(cell_of((0, "1/4", True, False)), UNIT), 0,
                 PiecewiseFn.constant(UNIT, 0))
    mu = indefinite(f)
    assert eval_cell(mu, cell_of((0, "1/8"))) == F(1, 2)


def test_indefinite_rejects_nonstep():
    ramp = PiecewiseFn.build(["0", "1"], [[0, 1]])
    with pytest.raises(CapacityError):
        indefinite(ramp)


def test_weak_absolute_continuity_on_null_cells(rng):
    null = cell_of("0", "1/2")
    for _ in range(40):
        mu = rand_measure(rng)
        assert eval_cell(mu, null) == 0
        f = rand_step(rng)
        assert eval_cell(indefinite(f), null) == 0


# -- averaging ----------------------------------------------------------------

def test_averaging_recovers_aligned_density(rng):
    for _ in range(30):
        f = rand_step(rng, nonneg=True)
        mu = indefinite(f)
        partition = partition_from_cuts(UNIT, f.breakpoints[1:-1])
        theta = averaging(mu, partition)
        # equality up to breakpoint values, which carry no integral weight
        for cell in partition.cells:
            assert integrate_eta(theta, cell) == integrate_eta(f, cell)
        got = [c for c in theta.pieces]
        want = [c for c in f.refine(theta.breakpoints).pieces]
        assert got == want


def test_averaging_left_dirac_example():
    mu = FAMeasure.dirac("1/2", Side.LEFT, UNIT)
    partition = partition_from_cuts(UNIT, ["1/4", "1/2"])
    theta = averaging(mu, partition)
    assert theta.pieces == ((0,), (4,), (0,))


def test_averaging_zero_on_null_cell():
    # a partition may carry a singleton cell; it averages to zero and the
    # atom mass lands in the cell holding its one-sided neighborhood
    mu = FAMeasure.dirac("1/2", Side.LEFT, UNIT)
    point = cell_of("1/2")
    rest = cell_of((0, "1/2", True, False), ("1/2", 1, False, True))
    partition = Partition((point, rest), UNIT)
    theta = averaging(mu, partition)
    assert theta.eval("1/2") == 0
    assert integrate_eta(theta, Cell((UNIT,))) == 1


def test_averaging_rejects_signed():
    neg = indefinite(lin_comb(-1, PiecewiseFn.constant(UNIT, 1), 0,
                              PiecewiseFn.constant(UNIT, 0)))
    with pytest.raises(DomainError):
        averaging(neg, partition_from_cuts(UNIT, ["1/2"]))


def test_averaging_total_mass_preserved(rng):
    for _ in range(30):
        mu = rand_measure(rng, nonneg=True)
        p = rand_partition(rng)
        theta = averaging(mu, p)
        assert integrate_eta(theta, Cell((UNIT,))) == eval_cell(mu, Cell((UNIT,)))


def test_averaging_exact_on_cell_unions(rng):
    for _ in range(30):
        mu = rand_measure(rng, nonneg=True)
        p = rand_partition(rng)
        theta = indefinite(averaging(mu, p))
        # any union of partition cells gets the exact measure value
        chosen = [c for i, c in enumerate(p.cells) if i % 2 == 0]
        union = Cell.from_intervals([part for c in chosen for part in c.parts])
        assert eval_cell(theta, union) == eval_cell(mu, union)


def test_averaging_reproduces_step_integrals(rng):
    # with the partition split at h's breakpoints and every atom location,
    # integrating h against the averaged density is exact
    for _ in range(40):
        mu = rand_measure(rng, nonneg=True)
        h = rand_step(rng)
        cuts = set(h.breakpoints[1:-1])
        cuts.update(a.loc for a in mu.atoms)
        cuts.update(rand_cuts(rng, UNIT, 2))
        partition = partition_from_cuts(UNIT, cuts)
        theta = averaging(mu, partition)
        assert integrate_eta(multiply(h, theta), Cell((UNIT,))) == integral(h, mu)


def test_measure_json_roundtrip(rng):
    mu = rand_measure(rng)
    back = FAMeasure.from_json(measure_json(mu))
    assert back.atoms == mu.atoms
    assert fn_equal(back.density, mu.density)


def test_side_atom_rejects_a_side_that_is_not_l_or_r():
    for side in ("right", "R", "r", "RIGHT", "Right"):
        assert SideAtom.make("1/2", side, 1).side is Side.RIGHT
    for side in ("left", "L", "l", "LEFT", "Left"):
        assert SideAtom.make("1/2", side, 1).side is Side.LEFT
    for side in ("", "x", "rubbish", "lower", "Lx", "r ", "lef"):
        with pytest.raises(ValueError):
            SideAtom.make("1/2", side, 1)
    for side in (None, 1):
        with pytest.raises(TypeError):
            SideAtom.make("1/2", side, 1)
