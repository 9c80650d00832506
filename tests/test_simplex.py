import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from impulse_reach import attainability, simplex
from impulse_reach.dynamics import (
    ConstraintSpec,
    build_double_integrator,
    position_kernel,
    velocity_kernel,
)
from impulse_reach.errors import NumericError
from impulse_reach.piecewise import PiecewiseFn
from impulse_reach.simplex import shadow_vertices

from conftest import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def brute_force_min(c, A_eq, b_eq, A_ub, b_ub):
    """Enumerate basic feasible points of the standard-form polytope."""
    c = np.asarray(c, float)
    rows = []
    rhs = []
    n = c.size
    n_slack = 0 if A_ub is None else len(b_ub)
    if A_ub is not None:
        for i, row in enumerate(np.asarray(A_ub, float)):
            r = np.zeros(n + n_slack)
            r[:n] = row
            r[n + i] = 1.0
            rows.append(r)
            rhs.append(b_ub[i])
    if A_eq is not None:
        for row, b in zip(np.asarray(A_eq, float), b_eq):
            r = np.zeros(n + n_slack)
            r[:n] = row
            rows.append(r)
            rhs.append(b)
    A = np.vstack(rows)
    b = np.asarray(rhs, float)
    m, total = A.shape
    best = None
    for cols in itertools.combinations(range(total), m):
        sub = A[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_b = np.linalg.solve(sub, b)
        if np.any(x_b < -1e-9):
            continue
        x = np.zeros(total)
        x[list(cols)] = x_b
        val = float(c @ x[:n])
        if best is None or val < best:
            best = val
    return best


def test_simple_maximization():
    # max x + y s.t. x + y <= 1 -> value 1
    res = solve_lp([-1.0, -1.0], A_ub=np.array([[1.0, 1.0]]), b_ub=[1.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-1.0)


def test_equality_and_bounds():
    # min x1 s.t. x1 + x2 = 1, x1 - x2 <= 0
    res = solve_lp([1.0, 0.0], A_eq=np.array([[1.0, 1.0]]), b_eq=[1.0],
                   A_ub=np.array([[1.0, -1.0]]), b_ub=[0.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(0.0)
    assert res.x[0] == pytest.approx(0.0)


def test_infeasible():
    res = solve_lp([1.0], A_eq=np.array([[1.0]]), b_eq=[-1.0])
    assert res.status == INFEASIBLE


def test_unbounded():
    res = solve_lp([-1.0, 0.0], A_ub=np.array([[-1.0, 1.0]]), b_ub=[0.0])
    assert res.status == UNBOUNDED


def test_degenerate_mass_problem():
    # the reach-set pattern: mass row plus a fixed coordinate
    eta = np.full(4, 0.25)
    res = solve_lp([-0.875, -0.625, -0.375, -0.125],
                   A_eq=eta[None, :], b_eq=[1.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-3.5)  # all mass on the first cell
    assert res.x[0] == pytest.approx(4.0)


def test_redundant_equality_rows():
    res = solve_lp([1.0, 1.0],
                   A_eq=np.array([[1.0, 1.0], [2.0, 2.0]]), b_eq=[1.0, 2.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(1.0)


def test_random_lps_against_vertex_enumeration():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 4)
        m_ub = rng.randint(0, 2)
        m_eq = rng.randint(0, 1)
        c = [rng.uniform(-2, 2) for _ in range(n)]
        A_ub = (np.array([[rng.uniform(-1, 2) for _ in range(n)]
                          for _ in range(m_ub)]) if m_ub else None)
        b_ub = [rng.uniform(0.2, 2) for _ in range(m_ub)] if m_ub else None
        A_eq = (np.array([[rng.uniform(0.2, 2) for _ in range(n)]
                          for _ in range(m_eq)]) if m_eq else None)
        b_eq = [rng.uniform(0.2, 2) for _ in range(m_eq)] if m_eq else None
        if A_ub is None and A_eq is None:
            continue
        res = solve_lp(c, A_eq, b_eq, A_ub, b_ub)
        if res.status == UNBOUNDED:
            continue
        oracle = brute_force_min(c, A_eq, b_eq, A_ub, b_ub)
        if oracle is None:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL
            assert res.value == pytest.approx(oracle, abs=1e-7)


def slack_tableau(c, A_ub, b_ub):
    """min c.x over x >= 0, A_ub x <= b_ub with b_ub >= 0, as a tableau on
    the slack basis, which is feasible: the rows [A_ub I b_ub], then c."""
    m, n = A_ub.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, n:n + m], T[:m, -1] = A_ub, np.eye(m), b_ub
    T[-1, :n] = c
    return T, n + np.arange(m)


# max x1 + 2 x2 + 3 x3 over x <= 1: Dantzig's rule takes three pivots
BOX_LP = ([-1.0, -2.0, -3.0], np.eye(3), [1.0, 1.0, 1.0])


def test_bland_rule_takes_over_and_still_reaches_the_optimum(monkeypatch):
    rules = []
    leaving_row = simplex._leaving_row

    def recorded(T, basis, col, bland):
        rules.append(bland)
        return leaving_row(T, basis, col, bland)

    monkeypatch.setattr(simplex, "_leaving_row", recorded)
    c, A_ub, b_ub = BOX_LP
    T, basis = slack_tableau(c, A_ub, b_ub)
    # max_iter 5 hands over to Bland's rule after two Dantzig pivots
    simplex._run_simplex(T, basis, T.shape[1] - 1, 5)
    assert rules == [False, False, True]
    assert -T[-1, -1] == pytest.approx(brute_force_min(c, None, None, A_ub, b_ub))


def test_simplex_raises_at_the_iteration_limit():
    T, basis = slack_tableau(*BOX_LP)
    with pytest.raises(NumericError, match="iteration limit"):
        simplex._run_simplex(T, basis, T.shape[1] - 1, 2)


def sweep_points(points, A_ub=None, b_ub=None):
    """The images of the bases a sweep over the hull of `points` visits."""
    g = np.asarray(points, float).T
    visited = shadow_vertices(-g[0], -g[1], np.ones((1, g.shape[1])), [1.0], A_ub, b_ub)
    return None if visited is None else [tuple(p) for p in visited]


def distinct_in_order(points):
    out = [points[0]]
    for p in points[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def test_sweep_walks_the_vertices_counterclockwise_from_theta_zero():
    # the walk closes: the vertex optimal at theta = 0 is optimal again at 2 pi
    diamond = [(0.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    inner = [(0.0, 0.0), (0.5, 0.5), (-0.25, 0.0), (0.5, 0.5)]
    assert distinct_in_order(sweep_points(diamond + inner)) == [
        (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)]


def test_sweep_leaves_a_vertex_optimal_only_at_theta_zero_at_once():
    # the edge x = 1 is optimal at theta = 0; its lower end is optimal there
    # only, so the walk pivots to the upper end before theta moves
    square = [(1.0, -1.0), (-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    assert distinct_in_order(sweep_points(square)) == [
        (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]


def test_sweep_of_a_segment_and_of_a_point():
    assert set(sweep_points([(0.0, 0.0), (2.0, 1.0), (1.0, 0.5)])) == {(0.0, 0.0), (2.0, 1.0)}
    assert set(sweep_points([(1.5, -2.0)] * 3)) == {(1.5, -2.0)}


def test_sweep_slices_by_inequalities_and_reports_infeasible():
    # x <= 1/2 cuts the diamond's right corner off
    diamond = np.array([(0.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
    got = set(sweep_points(diamond, A_ub=diamond[:, :1].T, b_ub=[0.5]))
    assert got >= {(0.5, 0.5), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.5, -0.5)}
    assert all(x <= 0.5 and abs(x) + abs(y) <= 1.0 for x, y in got)
    assert sweep_points(diamond, A_ub=-diamond[:, :1].T, b_ub=[-2.0]) is None


def test_sweep_raises_on_an_unbounded_set():
    # x1 = x2 >= 0 is a ray: bounded below for c1 = (1, 1), not for c2 = -c1
    ray = np.array([[1.0, -1.0]])
    with pytest.raises(NumericError, match="unbounded"):
        shadow_vertices([1.0, 1.0], [-1.0, -1.0], ray, [0.0])
    with pytest.raises(NumericError, match="unbounded"):
        shadow_vertices([-1.0, -1.0], [1.0, 1.0], ray, [0.0])


def test_a_ratio_test_that_finds_no_row_in_phase_1_raises():
    # x0 = 1/d, x1 = x2 in [0, 1/2] is feasible and bounded, but column 0's
    # entries lie below EPS, so phase 1's ratio test finds no row for it:
    # that is rounding, not an infeasible LP
    d = 0.9e-9
    with pytest.raises(NumericError, match="unbounded"):
        shadow_vertices([1, 0, 0], [0, 1, 0], [[d, 2, -2], [d, -2, 2]], [1, 1],
                        [[0, 1, 1]], [1])


# -- phase 1 from the slack basis ------------------------------------------------


def box_form(gens, lo, hi):
    """The sweep's LP over weights x >= 0: sum x = 1 and lo <= gens.T x <= hi
    (lo == hi an equality), as _standard_form's arguments."""
    A_eq, b_eq, A_ub, b_ub = [np.ones(gens.shape[0])], [1.0], [], []
    for row, l, h in zip(gens.T, lo, hi):
        if l == h:
            A_eq.append(row)
            b_eq.append(l)
            continue
        A_ub += [row, -row]
        b_ub += [h, -l]
    return np.array(A_eq), b_eq, (np.array(A_ub) if A_ub else None), (b_ub or None)


def phase1_run(monkeypatch, n, *lp):
    """_phase1 on the standard form of lp: its result, the number of
    artificial columns it added, and the pivots it took."""
    pivots, ncols = [], []
    pivot, run = simplex._pivot, simplex._run_simplex

    def counted(T, basis, row, col):
        pivots.append((row, col))
        pivot(T, basis, row, col)

    def recorded(T, basis, cols, max_iter):
        ncols.append(cols)
        return run(T, basis, cols, max_iter)

    monkeypatch.setattr(simplex, "_pivot", counted)
    monkeypatch.setattr(simplex, "_run_simplex", recorded)
    A, b = simplex._standard_form(n, *lp)
    start = simplex._phase1(A, b, [], 200 * sum(A.shape))
    return start, ncols[0] - A.shape[1], len(pivots)


def test_phase1_starts_a_box_lp_from_its_slacks(monkeypatch):
    # each box contains 0 and the first generator, so every inequality's slack
    # starts basic and only the mass row has an artificial: generator 0
    # enters, and its ratio on the mass row, 1, is the only smallest one
    rng = np.random.default_rng(5)
    for _ in range(40):
        gens = rng.uniform(-2, 2, (rng.integers(1, 40), rng.integers(1, 8)))
        pad = rng.uniform(0.1, 1, gens.shape[1])
        lo, hi = np.minimum(gens[0], 0) - pad, np.maximum(gens[0], 0) + pad
        start, artificials, pivots = phase1_run(monkeypatch, gens.shape[0],
                                                *box_form(gens, lo, hi))
        assert artificials == pivots == 1
        rows, basis = start
        assert rows.shape[0] == basis.size == 1 + 2 * gens.shape[1]
        assert np.all(rows[:, -1] >= 0) and 0 in basis.tolist()


def test_phase1_gives_artificials_only_to_rows_without_a_unit_column(monkeypatch):
    # x1 + x2 = 1 and x2 >= 1/2, flipped, get artificials; x1 <= 3 starts
    # from its slack
    start, artificials, pivots = phase1_run(
        monkeypatch, 2, np.array([[1.0, 1.0]]), [1.0],
        np.array([[1.0, 0.0], [0.0, -1.0]]), [3.0, -0.5])
    assert artificials == 2 and pivots <= 2
    rows, basis = start
    x = np.zeros(rows.shape[1] - 1)
    x[basis] = rows[:, -1]
    assert x[0] + x[1] == pytest.approx(1.0) and x[1] >= 0.5 - 1e-12


def test_phase1_reports_infeasible_boxes():
    gens = np.array([[1.0, 0.0], [2.0, 1.0], [1.5, -1.0]])
    for lo, hi in [([-1.0, -1.0], [0.5, 1.0]),   # every slack basic, mass row not met
                   ([2.5, -1.0], [3.0, 1.0]),    # lo above every generator: flipped
                   ([3.0, -1.0], [3.0, 1.0])]:   # an equality no generator meets
        lp = box_form(gens, lo, hi)
        A, b = simplex._standard_form(gens.shape[0], *lp)
        assert simplex._phase1(A, b, [], 200 * sum(A.shape)) is None
        assert shadow_vertices(-gens[:, 0], -gens[:, 1], *lp) is None
        assert solve_lp([1.0, 1.0, 1.0], *lp).status == INFEASIBLE


def test_sweep_reads_its_points_off_cost_rows_reduced_against_the_start(monkeypatch):
    # generator 0's column is e_0, so it starts basic in the mass row with the
    # nonzero cost -y = 2, and the equality s = 1 gets an artificial that
    # phase 1 pivots out.  The slice s = 1 of the hull is the triangle of
    # generators 1 and 2 and the midpoint (2, 1) of generators 0 and 3, where
    # the sweep starts with generator 0 still basic.  Its x-coordinate is 0,
    # so the simplex at theta = 0 never pivots it in again, which would repair
    # a cost row that missed the reduction
    gens = np.array([(0.0, -2.0, 0.0), (0.0, 0.0, 1.0), (1.0, 3.0, 1.0), (4.0, 4.0, 2.0)])
    lp = box_form(gens[:, 2:], [1.0], [1.0])
    _, artificials, pivots = phase1_run(monkeypatch, gens.shape[0], *lp)
    assert artificials == 1 and pivots >= 1
    visited = shadow_vertices(-gens[:, 0], -gens[:, 1], *lp)
    assert distinct_in_order([tuple(p) for p in visited]) == [
        (2.0, 1.0), (1.0, 3.0), (0.0, 0.0), (2.0, 1.0)]


def test_random_lps_with_mixed_signs_and_redundant_rows_against_vertex_enumeration():
    # solve_lp sees every row; the enumeration, which needs full row rank,
    # sees each equality once
    rng = random.Random(11)
    solved = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        m_ub, m_eq = rng.randint(0, 3), rng.randint(0, 2)
        c = [rng.uniform(-2, 2) for _ in range(n)]
        A_ub = [[rng.uniform(-1, 2) for _ in range(n)] for _ in range(m_ub)]
        b_ub = [rng.uniform(-1, 2) for _ in range(m_ub)]
        if A_ub and rng.random() < 0.5:  # a repeated inequality
            A_ub.append(A_ub[0])
            b_ub.append(b_ub[0])
        A_eq = [[rng.uniform(0.2, 2) for _ in range(n)] for _ in range(m_eq)]
        b_eq = [rng.uniform(0.2, 2) for _ in range(m_eq)]
        if not A_ub and not A_eq:
            continue
        A_ub, b_ub = (np.array(A_ub), b_ub) if A_ub else (None, None)
        extra_eq, extra_rhs = A_eq[:], b_eq[:]
        if A_eq:  # a scaled copy and a sum of the equalities
            extra_eq += [[2 * a for a in A_eq[0]], list(np.sum(A_eq, axis=0))]
            extra_rhs += [2 * b_eq[0], sum(b_eq)]
        res = solve_lp(c, np.array(extra_eq) if A_eq else None, extra_rhs or None,
                       A_ub, b_ub)
        if res.status == UNBOUNDED:
            continue
        oracle = brute_force_min(c, np.array(A_eq) if A_eq else None, b_eq or None,
                                 A_ub, b_ub)
        if oracle is None:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL
            assert res.value == pytest.approx(oracle, abs=1e-7)
            solved += 1
    assert solved > 50


# -- whole-array updates against the row-by-row code they replaced ---------------


def reference_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    piv = T[row]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * piv
    basis[row] = col


def reference_leaving_row(T, basis, col, bland):
    m = basis.size
    ratios = np.full(m, np.inf)
    pos = T[:m, col] > simplex.EPS
    ratios[pos] = T[:m, -1][pos] / T[:m, col][pos]
    best = np.min(ratios)
    if not np.isfinite(best):
        return None
    candidates = np.nonzero(ratios <= best + simplex.EPS)[0]
    if bland:
        return int(candidates[np.argmin(basis[candidates])])
    return int(candidates[np.argmax(T[candidates, col])])


def test_pivot_matches_row_by_row_elimination():
    # rows with a zero in the pivot column subtract zeros, which may flip the
    # sign of a zero entry, so the tableaux are compared by value
    rng = np.random.default_rng(17)
    for _ in range(300):
        m, n = int(rng.integers(1, 32)), int(rng.integers(2, 60))
        T = rng.uniform(-3.0, 3.0, (m, n))
        T[rng.random((m, n)) < 0.3] = 0.0
        row, col = int(rng.integers(m)), int(rng.integers(n - 1))
        T[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 4.0)
        basis = rng.integers(0, n - 1, m)
        got, want = T.copy(), T.copy()
        got_basis, want_basis = basis.copy(), basis.copy()
        simplex._pivot(got, got_basis, row, col)
        reference_pivot(want, want_basis, row, col)
        assert np.array_equal(got, want)
        assert got_basis.tolist() == want_basis.tolist()
        assert got[:, col].tolist() == np.eye(m)[row].tolist()


def test_ratio_test_matches_the_per_row_code():
    # small integer entries make equal ratios and equal pivots common; where
    # the per-row code finds no row, the ratio test raises
    rng = np.random.default_rng(23)
    for _ in range(300):
        m = int(rng.integers(1, 12))
        T = rng.integers(-3, 4, (m + 1, 7)).astype(float)
        T[:m, -1] = np.abs(T[:m, -1])
        basis = rng.permutation(20)[:m]
        for col in range(6):
            for bland in (False, True):
                want = reference_leaving_row(T, basis, col, bland)
                if want is None:
                    with pytest.raises(NumericError, match="unbounded"):
                        simplex._leaving_row(T, basis, col, bland)
                else:
                    assert simplex._leaving_row(T, basis, col, bland) == want


def family_sweeps():
    """The arguments of every sweep that relaxed_reach and universal_mp run
    on bench family members, under constant and under affine thrust.  The
    stand-in sweep visits the origin, so no set is empty: universal_mp raises
    on an empty set under curved constraint kernels."""
    lps = []
    rng = random.Random("family sweeps")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attainability, "shadow_vertices",
                   lambda *lp: lps.append(lp) or [np.zeros(2)])
        for thrust in ([[1], [-1]], [[1, -1], [-1, 1]]):
            for _ in range(8):
                c = PiecewiseFn.build([0, F(rng.randint(100, 900), 1000), 1], thrust)
                sys, _ = build_double_integrator(c, 1, 1, 1)
                kernels = []
                for t in sorted(F(k, 1000) for k in rng.sample(range(50, 951), 7)):
                    kernels += [position_kernel(c, t), velocity_kernel(c, t)]
                w = F(rng.randint(125, 500), 1000)
                cons = ConstraintSpec(tuple(kernels), (((-w, w),) * 14,))
                attainability.relaxed_reach(sys, cons, attainability.ReachConfig(64, F(1, 100)))
                attainability.universal_mp(sys, cons, 65)
    return lps


def test_sweep_visits_the_points_of_the_row_by_row_code(monkeypatch):
    for c1, c2, A_eq, b_eq, A_ub, b_ub in family_sweeps():
        got = shadow_vertices(c1, c2, A_eq, b_eq, A_ub, b_ub)
        with monkeypatch.context() as mp:
            mp.setattr(simplex, "_pivot", reference_pivot)
            mp.setattr(simplex, "_leaving_row", reference_leaving_row)
            want = shadow_vertices(c1, c2, A_eq, b_eq, A_ub, b_ub)
        assert len(got) == len(want) > 1
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
