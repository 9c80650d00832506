from fractions import Fraction

import pytest

from impulse_reach.errors import DomainError
from impulse_reach.intervals import (
    Cell,
    Interval,
    Partition,
    cell_intersect,
    common_refinement,
    eta,
    is_finer,
    partition_from_cuts,
)

from conftest import UNIT, membership_samples, rand_cell, rand_interval, rand_partition


def cell_of(*specs) -> Cell:
    """specs: (lo, hi, lo_closed, hi_closed) tuples or single points."""
    ivs = []
    for s in specs:
        if not isinstance(s, tuple):
            ivs.append(Interval.point(s))
        else:
            ivs.append(Interval.make(*s))
    return Cell.from_intervals(ivs)


def same_membership(a: Cell, b: Cell) -> bool:
    for t in membership_samples(UNIT, a, b):
        if a.contains(t) != b.contains(t):
            return False
    return True


# -- interval / cell construction --------------------------------------------

def test_interval_validation():
    with pytest.raises(DomainError):
        Interval.make(1, 0)
    with pytest.raises(DomainError):
        Interval.make("1/2", "1/2", True, False)
    assert Interval.point("1/2").contains("1/2")


def test_cell_normalization_is_canonical():
    a = cell_of((0, "1/2", True, False), ("1/2", 1, True, True))
    b = cell_of((0, 1, True, True))
    assert a == b
    c = cell_of((0, "1/4"), ("1/4", "1/2", False, False))
    d = cell_of((0, "1/2", True, False))
    assert c == d
    assert cell_of((0, "1/4", True, False), ("1/4", "1/2")) == cell_of((0, "1/2"))


# -- cell_intersect -----------------------------------------------------------

def test_intersect_halfopen_with_closed():
    got = cell_intersect(cell_of((0, "1/2", True, False)), cell_of(("1/4", 1)))
    assert got == cell_of(("1/4", "1/2", True, False))


def test_intersect_with_empty_is_absorbing(rng):
    for _ in range(20):
        x = rand_cell(rng)
        assert cell_intersect(x, Cell()) == Cell()


def test_intersect_two_part_cell_against_interval():
    a = cell_of((0, "1/4"), ("1/2", 1))
    b = cell_of(("1/4", "3/4"))
    got = cell_intersect(a, b)
    # dense-sample membership oracle
    for t in membership_samples(UNIT, a, b, got):
        assert got.contains(t) == (a.contains(t) and b.contains(t))
    assert got == cell_of("1/4", ("1/2", "3/4"))


def test_intersect_matches_membership_oracle(rng):
    for _ in range(150):
        a, b = rand_cell(rng), rand_cell(rng)
        got = cell_intersect(a, b)
        for t in membership_samples(UNIT, a, b, got):
            assert got.contains(t) == (a.contains(t) and b.contains(t))


def test_within_matches_intersection(rng):
    # reference: a lies in the domain iff intersecting with it changes nothing
    for _ in range(300):
        a = rand_cell(rng)
        dom = rand_interval(rng)
        assert a.within(dom) == (cell_intersect(a, Cell((dom,))) == a)
    half_open = Interval.make(0, 1, True, False)
    assert cell_of((0, "1/2", True, False)).within(half_open)
    assert not cell_of((0, "1/2"), 1).within(half_open)
    assert Cell().within(half_open)


# -- eta ----------------------------------------------------------------------

def test_eta_examples():
    assert eta(cell_of(("1/4", "1/2", True, False))) == Fraction(1, 4)
    assert eta(cell_of("1/2")) == 0
    assert eta(cell_of((0, "1/4"), ("1/2", 1))) == Fraction(3, 4)


def test_eta_modularity(rng):
    for _ in range(100):
        a, b = rand_cell(rng), rand_cell(rng)
        union = Cell.from_intervals(a.parts + b.parts)
        assert eta(a) + eta(b) == eta(union) + eta(cell_intersect(a, b))


def test_eta_additive_over_partitions(rng):
    for _ in range(50):
        p = rand_partition(rng)
        assert sum(eta(c) for c in p.cells) == eta(p.domain)


# -- partitions and refinement -------------------------------------------------

def test_partition_validation():
    with pytest.raises(DomainError):
        Partition((cell_of((0, "1/2")), cell_of(("1/2", 1))), UNIT)  # overlap {1/2}
    with pytest.raises(DomainError):
        Partition((cell_of((0, "1/2", True, False)),), UNIT)  # gap
    Partition((cell_of((0, "1/2", True, False)), cell_of(("1/2", 1))), UNIT)


def test_is_finer_examples():
    p = partition_from_cuts(UNIT, ["1/2"])
    assert is_finer(p, p)
    fine = partition_from_cuts(UNIT, ["1/4", "1/2"])
    assert is_finer(fine, p)
    other = partition_from_cuts(UNIT, ["1/3"])
    assert not is_finer(other, p)
    assert not is_finer(p, fine)


def test_common_refinement_idempotent(rng):
    for _ in range(20):
        p = rand_partition(rng)
        assert common_refinement(p, p) == p


def test_common_refinement_example():
    a = partition_from_cuts(UNIT, ["1/2"])
    b = partition_from_cuts(UNIT, ["1/3"])
    got = common_refinement(a, b)
    assert got == partition_from_cuts(UNIT, ["1/3", "1/2"])


def test_common_refinement_bounds_both(rng):
    for _ in range(80):
        a, b = rand_partition(rng), rand_partition(rng)
        r = common_refinement(a, b)
        assert len(r.cells) <= len(a.cells) * len(b.cells)
        assert is_finer(r, a) and is_finer(r, b)


def test_refinement_transitive(rng):
    for _ in range(40):
        p1 = rand_partition(rng, max_cuts=3)
        p2 = common_refinement(p1, rand_partition(rng, max_cuts=3))
        p3 = common_refinement(p2, rand_partition(rng, max_cuts=3))
        assert is_finer(p2, p1) and is_finer(p3, p2)
        assert is_finer(p3, p1)


def test_uniform_partition():
    # the mesh-cell split that reach uses: half-open cells, the last closed
    p = partition_from_cuts(UNIT, ["1/4", "1/2", "3/4"])
    assert len(p.cells) == 4
    assert p.cells[0] == cell_of((0, "1/4", True, False))
    assert p.cells[-1] == cell_of(("3/4", 1))
    assert {eta(c) for c in p.cells} == {Fraction(1, 4)}
