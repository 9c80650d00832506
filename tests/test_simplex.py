import itertools
import random

import numpy as np
import pytest

from impulse_reach import simplex
from impulse_reach.errors import NumericError
from impulse_reach.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, shadow_vertices

from conftest import solve_lp


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
    assert simplex._run_simplex(T, basis, T.shape[1] - 1, 5) == OPTIMAL
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
    return None if visited is None else [tuple(g @ x) for x in visited]


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
