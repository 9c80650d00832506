from fractions import Fraction

import pytest

from impulse_reach.dynamics import (
    ConstraintSpec,
    build_double_integrator,
    gen_moments,
    moments,
    trajectory_eval,
)
from impulse_reach.errors import DomainError, PreconditionError
from impulse_reach.intervals import Cell, Interval, partition_from_cuts
from impulse_reach.measures import (
    FAMeasure,
    Side,
    averaging,
    indefinite,
    integral,
)
from impulse_reach.piecewise import (
    PiecewiseFn,
    fn_equal,
    indicator,
    integrate_eta,
    lin_comb,
    scale,
)

from conftest import UNIT, rand_measure, rand_step

F = Fraction


def const_one() -> PiecewiseFn:
    return PiecewiseFn.constant(UNIT, 1)


def zigzag() -> PiecewiseFn:
    return PiecewiseFn.build(["0", "1/2", "1"], [[1], [-1]], [1, -1, -1])


def chi(lo, hi, lo_closed=True, hi_closed=True) -> PiecewiseFn:
    return indicator(Cell((Interval.make(lo, hi, lo_closed, hi_closed),)), UNIT)


def normalized_step(f: PiecewiseFn, b=1) -> PiecewiseFn:
    total = integrate_eta(f, Cell((UNIT,)))
    if total == 0:
        f = lin_comb(1, f, 1, PiecewiseFn.constant(UNIT, 1))
        total = integrate_eta(f, Cell((UNIT,)))
    return scale(F(b) / total, f)


# -- build_double_integrator ---------------------------------------------------

def test_build_constant_thrust():
    sys, (s1, s2) = build_double_integrator(const_one(), 1, 1, 1)
    assert fn_equal(sys.pi[0], PiecewiseFn.build(["0", "1"], [[1, -1]]))
    assert fn_equal(sys.pi[1], const_one())
    assert fn_equal(s1, PiecewiseFn.build(["0", "1"], [[1, -1]]))
    assert fn_equal(s2, const_one())


def test_build_zigzag_terminal_kernel():
    sys, _ = build_double_integrator(zigzag(), 1, 1, 1)
    pi1 = sys.pi[0]
    assert pi1.breakpoints == (F(0), F(1, 2), F(1))
    assert pi1.pieces == ((1, -1), (-1, 1))


def test_build_velocity_kernel_is_step_for_step_thrust():
    _, (_, s2) = build_double_integrator(const_one(), 1, "1/2", 1)
    assert s2.is_step
    assert fn_equal(s2, chi(0, "1/2"))
    cons = ConstraintSpec((s2,), (((0, 0),),), frozenset({1}))
    assert cons.J == frozenset({1})


def test_build_rejects_bad_times():
    with pytest.raises(DomainError):
        build_double_integrator(const_one(), 2, 1, 1)


def test_constraint_spec_rejects_nonstep_J_kernel():
    ramp = PiecewiseFn.build(["0", "1"], [[1, -1]])
    with pytest.raises(DomainError):
        ConstraintSpec((ramp,), (((0, 0),),), frozenset({1}))


# -- moments -------------------------------------------------------------------

def test_moments_front_loaded_control():
    sys, _ = build_double_integrator(const_one(), 1, 1, 1)
    f = scale(4, chi(0, "1/4", True, False))
    term, _ = moments(f, sys, ConstraintSpec.unconstrained())
    # antiderivative oracle: 4*int_0^{1/4} (1-t) dt = 7/8
    assert term == (F(7, 8), 1)


def test_moments_back_loaded_control():
    sys, _ = build_double_integrator(const_one(), 1, 1, 1)
    f = scale(4, chi("3/4", 1))
    term, _ = moments(f, sys, ConstraintSpec.unconstrained())
    assert term == (F(1, 8), 1)


def test_moments_rejects_wrong_mass():
    sys, _ = build_double_integrator(const_one(), 1, 1, 1)
    with pytest.raises(PreconditionError):
        moments(scale(2, chi(0, "1/4", True, False)), sys,
                ConstraintSpec.unconstrained())
    with pytest.raises(PreconditionError):
        moments(scale(-4, chi(0, "1/4", True, False)), sys,
                ConstraintSpec.unconstrained())


# -- gen_moments ---------------------------------------------------------------

def test_gen_moments_zigzag_side_diracs():
    sys, _ = build_double_integrator(zigzag(), 1, 1, 1)
    cons = ConstraintSpec.unconstrained()
    term, _ = gen_moments(FAMeasure.dirac("1/2", Side.LEFT, UNIT), sys, cons)
    assert term == (F(1, 2), 1)
    term, _ = gen_moments(FAMeasure.dirac("1/2", Side.RIGHT, UNIT), sys, cons)
    assert term == (-F(1, 2), -1)


def test_gen_moments_zigzag_boundary_diracs():
    sys, _ = build_double_integrator(zigzag(), 1, 1, 1)
    cons = ConstraintSpec.unconstrained()
    term, _ = gen_moments(FAMeasure.dirac(0, Side.RIGHT, UNIT), sys, cons)
    assert term == (1, 1)
    term, _ = gen_moments(FAMeasure.dirac(1, Side.LEFT, UNIT), sys, cons)
    assert term == (0, -1)


def test_gen_moments_lebesgue_density():
    sys, _ = build_double_integrator(const_one(), 1, 1, 1)
    mu = indefinite(const_one())
    term, _ = gen_moments(mu, sys, ConstraintSpec.unconstrained())
    assert term == (F(1, 2), 1)


def test_gen_moments_rejects_outside_cone():
    sys, _ = build_double_integrator(const_one(), 1, 1, 1)
    with pytest.raises(PreconditionError):
        gen_moments(FAMeasure.dirac("1/2", Side.LEFT, UNIT, 2), sys,
                    ConstraintSpec.unconstrained())


@pytest.mark.parametrize("b", [1e-9, 3e-7, 1.0, 1e9])
def test_float_mass_tolerance_is_relative_to_b(b):
    # a float control or measure has mass b within MASS_TOL * b at any scale,
    # so mass 0 is rejected also where b is below MASS_TOL
    sys, _ = build_double_integrator(const_one(), 1, 1, b)
    cons = ConstraintSpec.unconstrained()
    assert moments(PiecewiseFn.constant(UNIT, b), sys, cons)[0][1] == b
    assert gen_moments(FAMeasure.dirac("1/2", Side.LEFT, UNIT, b), sys, cons)[0][1] == b
    for mass in (0.0, b * (1 - 1e-8), b * (1 + 1e-8)):
        with pytest.raises(PreconditionError):
            moments(PiecewiseFn.constant(UNIT, mass), sys, cons)
        with pytest.raises(PreconditionError):
            gen_moments(FAMeasure.dirac("1/2", Side.LEFT, UNIT, mass), sys, cons)


def test_factorization_through_indefinite(rng):
    sys, (s1, s2) = build_double_integrator(zigzag(), "3/4", "1/2", 1)
    cons = ConstraintSpec((s1, s2), (((None, None), (None, None)),), frozenset())
    for _ in range(60):
        f = normalized_step(rand_step(rng, nonneg=True), 1)
        assert gen_moments(indefinite(f), sys, cons) == moments(f, sys, cons)


def test_moment_linearity(rng):
    sys, _ = build_double_integrator(const_one(), 1, 1, 1)
    cons = ConstraintSpec.unconstrained()
    for _ in range(20):
        f = normalized_step(rand_step(rng, nonneg=True))
        g = normalized_step(rand_step(rng, nonneg=True))
        half_sum = lin_comb(F(1, 2), f, F(1, 2), g)
        tf, _ = moments(f, sys, cons)
        tg, _ = moments(g, sys, cons)
        th, _ = moments(half_sum, sys, cons)
        assert th == tuple((a + b) / 2 for a, b in zip(tf, tg))


def test_second_coordinate_bound(rng):
    sys, _ = build_double_integrator(zigzag(), 1, 1, 1)
    for _ in range(20):
        mu = rand_measure(rng, nonneg=True)
        total = integral(const_one(), mu)
        if total == 0:
            continue
        x1, x2 = trajectory_eval(mu, 1, sys)
        assert abs(x2) <= total  # |c| == 1


# -- trajectory ----------------------------------------------------------------

def test_trajectory_at_start():
    sys, _ = build_double_integrator(const_one(), 1, 1, 1)
    mu = FAMeasure.dirac("1/2", Side.LEFT, UNIT)
    assert trajectory_eval(mu, 0, sys) == (0, 0)


def test_trajectory_left_dirac():
    sys, _ = build_double_integrator(const_one(), 1, 1, 1)
    mu = FAMeasure.dirac("1/2", Side.LEFT, UNIT)
    assert trajectory_eval(mu, 1, sys) == (F(1, 2), 1)
    # Left atom at 1/2 is inside [0, 1/2]; its position contribution is zero
    assert trajectory_eval(mu, "1/2", sys) == (0, 1)


def test_trajectory_right_dirac_excluded_at_own_time():
    sys, _ = build_double_integrator(const_one(), 1, 1, 1)
    mu = FAMeasure.dirac("1/2", Side.RIGHT, UNIT)
    assert trajectory_eval(mu, "1/2", sys) == (0, 0)
    assert trajectory_eval(mu, 1, sys) == (F(1, 2), 1)


def test_trajectory_uniform_density_riemann_oracle():
    sys, _ = build_double_integrator(const_one(), 1, 1, 1)
    mu = indefinite(const_one())
    x1, x2 = trajectory_eval(mu, 1, sys)
    assert (x1, x2) == (F(1, 2), 1)
    n = 4000
    riemann = sum((1 - (k + 0.5) / n) / n for k in range(n))
    assert abs(float(x1) - riemann) < 1e-6
    for t in (F(1, 4), F(1, 2), F(3, 4)):
        x1, x2 = trajectory_eval(mu, t, sys)
        assert x1 == t * t / 2 and x2 == t


def test_trajectory_terminal_matches_gen_moments(rng):
    sys, _ = build_double_integrator(zigzag(), 1, 1, 1)
    cons = ConstraintSpec.unconstrained()
    for _ in range(20):
        f = normalized_step(rand_step(rng, nonneg=True))
        mu = indefinite(f)
        term, _ = gen_moments(mu, sys, cons)
        assert trajectory_eval(mu, 1, sys) == term


def test_trajectory_terminal_matches_gen_moments_with_atoms(rng):
    sys, _ = build_double_integrator(zigzag(), 1, 1, 1)
    cons = ConstraintSpec.unconstrained()
    checked = 0
    while checked < 20:
        mu = rand_measure(rng, nonneg=True)
        total = integral(const_one(), mu)
        if total == 0:
            continue
        mu = FAMeasure(scale(1 / total, mu.density),
                       tuple(type(a)(a.loc, a.side, a.mass / total)
                             for a in mu.atoms))
        term, _ = gen_moments(mu, sys, cons)
        assert trajectory_eval(mu, 1, sys) == term
        checked += 1


def test_moments_of_averaged_measures_converge(rng):
    sys, (s1, s2) = build_double_integrator(const_one(), 1, "1/2", 1)
    cons = ConstraintSpec((s1, s2), (((None, None), (None, None)),), frozenset({2}))
    for _ in range(10):
        mu = rand_measure(rng, nonneg=True)
        total = integral(const_one(), mu)
        if total == 0:
            continue
        mu = FAMeasure(scale(1 / total, mu.density).refine([]),
                       tuple(type(a)(a.loc, a.side, a.mass / total) for a in mu.atoms))
        gen_term, gen_constr = gen_moments(mu, sys, cons)
        cuts = set(s2.breakpoints[1:-1]) | {a.loc for a in mu.atoms}
        cuts |= {F(k, 64) for k in range(1, 64)}
        partition = partition_from_cuts(UNIT, cuts)
        f = averaging(mu, partition)
        term, constr = moments(f, sys, cons)
        # the J-indexed step constraint coordinate is reproduced exactly
        assert constr[1] == gen_constr[1]
        # the other coordinates converge with the mesh
        assert abs(float(term[0] - gen_term[0])) < 0.05
        assert term[1] == gen_term[1]  # s == c constant: exact as well
