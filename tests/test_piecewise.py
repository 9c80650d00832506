from fractions import Fraction

import pytest

from impulse_reach.errors import BoundaryError, CapacityError, DomainError
from impulse_reach.intervals import Cell, Interval, cell_intersect
from impulse_reach.piecewise import (
    LEFT,
    RIGHT,
    PiecewiseFn,
    fn_equal,
    indicator,
    integrate_eta,
    lin_comb,
    multiply,
    step_function,
    sup_norm,
)

from conftest import (
    UNIT,
    membership_samples,
    piecewise_json,
    rand_cell,
    rand_partition,
    rand_step,
)

F = Fraction


def zigzag() -> PiecewiseFn:
    """Thrust orientation: +1 on [0,1/2), -1 on [1/2,1]."""
    return PiecewiseFn.build(["0", "1/2", "1"], [[1], [-1]], [1, -1, -1])


def one_minus_t() -> PiecewiseFn:
    return PiecewiseFn.build(["0", "1"], [[1, -1]])


def cell_of(*specs) -> Cell:
    ivs = [Interval.point(s) if not isinstance(s, tuple) else Interval.make(*s)
           for s in specs]
    return Cell.from_intervals(ivs)


# -- indicator ----------------------------------------------------------------

def test_indicator_empty_is_zero():
    z = indicator(Cell(), UNIT)
    assert all(z.eval(t) == 0 for t in ("0", "1/3", "1"))


def test_indicator_product_is_intersection_indicator(rng):
    for _ in range(30):
        a, b = rand_cell(rng), rand_cell(rng)
        prod = multiply(indicator(a, UNIT), indicator(b, UNIT))
        meet = indicator(cell_intersect(a, b), UNIT)
        assert fn_equal(prod, meet)


def test_indicator_of_point():
    chi = indicator(cell_of("1/2"), UNIT)
    assert chi.eval("1/2") == 1
    for t in ("0", "1/4", "3/4", "1"):
        assert chi.eval(t) == 0


def test_indicator_injective(rng):
    for _ in range(30):
        a, b = rand_cell(rng), rand_cell(rng)
        if fn_equal(indicator(a, UNIT), indicator(b, UNIT)):
            assert a == b


# -- step_function ------------------------------------------------------------

def test_step_function_rejects_overlapping_cells():
    low, high = cell_of((0, "1/2")), cell_of(("1/4", 1))
    for cell_values in ([(low, 1), (high, 2)], [(high, 2), (low, 1)]):
        with pytest.raises(DomainError):
            step_function(UNIT, cell_values)
    with pytest.raises(DomainError):  # a shared point is an overlap too
        step_function(UNIT, [(low, 1), (cell_of(("1/2", 1)), 2)])
    touching = step_function(UNIT, [(cell_of((0, "1/2", True, False)), 1),
                                    (cell_of(("1/2", 1)), 2)])
    assert [touching.eval(t) for t in ("0", "1/2", "1")] == [1, 2, 2]


def test_step_function_rejects_cells_outside_the_domain():
    closed, half_open = Interval.make(0, "1/2"), Interval.make(0, "1/2", True, False)
    for domain, cell in ((closed, cell_of(("1/4", 1))), (closed, cell_of("3/4")),
                         (half_open, cell_of((0, "1/2")))):
        with pytest.raises(DomainError):
            step_function(domain, [(cell, 1)])
        with pytest.raises(DomainError):
            indicator(cell, domain)


# -- lin_comb -----------------------------------------------------------------

def test_lin_comb_identity_and_cancellation(rng):
    f = rand_step(rng)
    g = rand_step(rng)
    assert fn_equal(lin_comb(1, f, 0, g), f)
    zero = lin_comb(1, f, -1, f)
    assert sup_norm(zero) == 0


def test_lin_comb_step_values_pointwise():
    f = indicator(cell_of((0, "1/2", True, False)), UNIT)
    g = indicator(cell_of(("1/4", 1)), UNIT)
    h = lin_comb(2, f, 3, g)
    # pointwise oracle on a sample grid
    for t in membership_samples(UNIT, cell_of((0, "1/2", True, False)), cell_of(("1/4", 1))):
        assert h.eval(t) == 2 * f.eval(t) + 3 * g.eval(t)
    assert h.eval("1/8") == 2 and h.eval("3/8") == 5 and h.eval("3/4") == 3


# -- multiply -----------------------------------------------------------------

def test_multiply_by_zero(rng):
    f = rand_step(rng)
    z = PiecewiseFn.constant(UNIT, 0)
    assert sup_norm(multiply(f, z)) == 0


def test_multiply_zigzag_terminal_kernel():
    # first moment kernel of the reversed-thrust example
    pi1 = multiply(one_minus_t(), zigzag())
    assert pi1.eval("1/4") == F(3, 4)
    assert pi1.eval("3/4") == -F(1, 4)
    assert pi1.pieces[0] == (1, -1)
    assert pi1.pieces[1] == (-1, 1)


def test_multiply_degree_cap():
    cubic = PiecewiseFn.build(["0", "1"], [[0, 0, 0, 1]])
    quad = PiecewiseFn.build(["0", "1"], [[0, 0, 1]])
    with pytest.raises(CapacityError):
        multiply(cubic, quad)


# -- sup_norm -----------------------------------------------------------------

def test_sup_norm_examples():
    assert sup_norm(PiecewiseFn.constant(UNIT, 0)) == 0
    assert sup_norm(indicator(cell_of(("1/4", "1/2")), UNIT)) == 1


def test_sup_norm_zigzag_kernel_dense_grid():
    pi1 = multiply(one_minus_t(), zigzag())
    got = sup_norm(pi1)
    dense = max(abs(pi1.eval(F(k, 512))) for k in range(513))
    assert got == 1
    assert dense <= got
    assert got - dense <= F(1, 256)


def test_sup_norm_interior_max_quadratic():
    # t(1-t) peaks at 1/4, exactly also for integer coefficients
    f = PiecewiseFn.build(["0", "1"], [[0, 1, -1]])
    assert sup_norm(f) == F(1, 4) and isinstance(sup_norm(f), F)


def test_sup_norm_refuses_cubic_and_quartic_pieces():
    # t^3 - t on [0,1] peaks at the irrational t = 1/sqrt(3), so no exact
    # max exists; t^2 (1-t)^2 is refused by degree alone
    cubic = PiecewiseFn.build(["0", "1"], [[0, -1, 0, 1]])
    quartic = PiecewiseFn.build(["0", "1"], [[0, 0, 1, -2, 1]])
    for f in (cubic, quartic):
        with pytest.raises(CapacityError, match="exact up to degree 2"):
            sup_norm(f)


def test_norm_axioms(rng):
    for _ in range(40):
        f, g = rand_step(rng), rand_step(rng)
        alpha = F(rng.randint(-4, 4), rng.choice((1, 2)))
        assert sup_norm(lin_comb(alpha, f, 0, g)) == abs(alpha) * sup_norm(f)
        assert sup_norm(lin_comb(1, f, 1, g)) <= sup_norm(f) + sup_norm(g)
        assert sup_norm(multiply(f, g)) <= sup_norm(f) * sup_norm(g)


# -- side_limit ---------------------------------------------------------------

def test_side_limit_zigzag_pi1():
    pi1 = multiply(one_minus_t(), zigzag())
    assert pi1.side_limit("1/2", LEFT) == F(1, 2)
    assert pi1.side_limit("1/2", RIGHT) == -F(1, 2)


def test_side_limit_zigzag_pi2():
    c = zigzag()
    assert c.side_limit("1/2", LEFT) == 1
    assert c.side_limit("1/2", RIGHT) == -1


def test_side_limit_continuity_point():
    pi1 = multiply(one_minus_t(), zigzag())
    assert pi1.side_limit("1/4", LEFT) == F(3, 4)
    assert pi1.side_limit("1/4", RIGHT) == F(3, 4)
    assert pi1.eval("1/4") == F(3, 4)


def test_side_limit_boundary_errors():
    c = zigzag()
    with pytest.raises(BoundaryError):
        c.side_limit(0, LEFT)
    with pytest.raises(BoundaryError):
        c.side_limit(1, RIGHT)


def test_side_limit_agrees_with_eval_where_continuous(rng):
    for _ in range(30):
        f = rand_step(rng)
        bset = set(f.breakpoints)
        for k in range(1, 16):
            t = F(k, 16)
            if t not in bset:
                assert f.side_limit(t, LEFT) == f.eval(t) == f.side_limit(t, RIGHT)


# -- integrate_eta ------------------------------------------------------------

def midpoint_quadrature(f: PiecewiseFn, a: Cell, n: int = 4096) -> float:
    total = 0.0
    for part in a.parts:
        lo, hi = float(part.lo), float(part.hi)
        if hi == lo:
            continue
        h = (hi - lo) / n
        total += h * sum(float(f.eval(F(lo + (k + 0.5) * h).limit_denominator(10**9)))
                         for k in range(n))
    return total


def test_integrate_empty():
    f = zigzag()
    assert integrate_eta(f, Cell()) == 0


def test_integrate_step_indicator():
    f = lin_comb(4, indicator(cell_of((0, "1/4", True, False)), UNIT), 0,
                 PiecewiseFn.constant(UNIT, 0))
    assert integrate_eta(f, Cell((UNIT,))) == 1


def test_integrate_linear_tail_with_quadrature_oracle():
    f = lin_comb(4, one_minus_t(), 0, PiecewiseFn.constant(UNIT, 0))
    cell = cell_of(("3/4", 1))
    exact = integrate_eta(f, cell)
    assert exact == F(1, 8)
    approx = midpoint_quadrature(f, cell, 2048)
    assert abs(approx - float(exact)) < 1e-6


def test_integrate_float_kernel_is_correctly_rounded():
    # subtracting float antiderivatives at the ends of a short cell far from
    # 0 cancels hundreds of ulps; the integral must be rounded only once
    f = PiecewiseFn.build(["0", "1"], [[0.3, -1.7, 2.1]])
    exact = PiecewiseFn.build(["0", "1"], [[F(0.3), F(-1.7), F(2.1)]])
    for j in range(1000, 1024):
        cell = cell_of((F(j, 1024), F(j + 1, 1024)))
        value = integrate_eta(f, cell)
        assert isinstance(value, float)
        assert value == float(integrate_eta(exact, cell))


def test_integrate_ignores_point_values():
    f = PiecewiseFn.build(["0", "1/2", "1"], [[1], [2]], [7, 9, 11])
    assert integrate_eta(f, Cell((UNIT,))) == F(3, 2)


def test_integrate_linear_in_f_and_additive_in_cell(rng):
    for _ in range(30):
        f, g = rand_step(rng), rand_step(rng)
        a = rand_cell(rng)
        lhs = integrate_eta(lin_comb(2, f, -3, g), a)
        assert lhs == 2 * integrate_eta(f, a) - 3 * integrate_eta(g, a)
        # partition cells are disjoint, so the union's integral is the sum
        chosen = [c for c in rand_partition(rng).cells if rng.random() < 0.5]
        union = Cell.from_intervals([part for c in chosen for part in c.parts])
        assert integrate_eta(f, union) == sum((integrate_eta(f, c) for c in chosen), F(0))


def test_json_roundtrip(rng):
    f = rand_step(rng)
    assert fn_equal(PiecewiseFn.from_json(piecewise_json(f)), f)
    p = multiply(one_minus_t(), zigzag())
    assert fn_equal(PiecewiseFn.from_json(piecewise_json(p)), p)


def test_fn_equal_is_exact():
    f = zigzag()
    nudged = lin_comb(1, f, 1, PiecewiseFn.constant(UNIT, F(1, 10**30)))
    assert fn_equal(f, f) and not fn_equal(f, nudged)
    moved = PiecewiseFn.build(["0", "1/2", "1"], [[1], [-1]], [1, 1, -1])
    assert not fn_equal(f, moved)  # differs only in the value at t = 1/2
