"""Dense two-phase simplex and the shadow-vertex sweep of the set projections.

Problems here are tiny (a few dozen rows, up to about a thousand columns),
so a plain dense tableau is plenty.  A pivot is one rank-1 update of the
whole tableau: a fixed number of numpy calls, and rows x columns
multiply-subtracts, so on the bench family's 31 x 50 tableaux its cost is
mostly call overhead.  The sweep takes x >= 0 subject to
A_eq x = b_eq, A_ub x <= b_ub.  Phase 1 starts from the slack basis (Bixby's
crash basis): every inequality whose right-hand side is >= 0 keeps its slack
basic, and only the other rows get an artificial.  Phase 1 and the start at
theta = 0 run one plain simplex: Dantzig pricing with a largest-pivot ratio
tie-break, and Bland's rule once the iteration count suggests cycling.
The simplex fails one way: a ratio test that finds no row, in phase 1 or
after it, and a pivot count over the cap raise NumericError.  Phase 1
returns None only when its optimum is positive: the LP is infeasible.

shadow_vertices is the parametric simplex of Gass and Saaty: it carries two
cost rows through every pivot and walks, as theta runs once around the
circle, the bases optimal for cos(theta) c1 + sin(theta) c2.  Their points
(-c1.x, -c2.x) run counterclockwise through every vertex of the feasible
set's image under that map, so the walk enumerates the polygon exactly.
One tableau serves a whole sweep: phase 1 seeds the cost rows against its
starting basis and carries them through its own pivots, and each visited
point is the pair of the cost rows' right-hand sides.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import NumericError

EPS = 1e-9

INFEASIBLE = "infeasible"  # not returned here; the bench tracer reads it


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Make col basic in row: one rank-1 update of the whole tableau.

    Every other row r loses T[r, col] times the scaled pivot row, so the
    entries the update changes get the same bits as a row-by-row
    elimination; a row with T[r, col] = 0 subtracts zeros, which can flip
    only the sign of a zero entry.
    """
    T[row] /= T[row, col]
    factor = T[:, col].copy()
    factor[row] = 0.0
    T -= np.multiply.outer(factor, T[row])
    basis[row] = col


def _leaving_row(T: np.ndarray, basis: np.ndarray, col: int, bland: bool) -> int:
    """The ratio test's row for entering col.

    Ties go to the largest pivot, or under Bland's rule to the smallest
    basic column.  No row with a pivot above EPS means col is unbounded and
    raises NumericError; phase 1 is bounded below, so there it is rounding.
    """
    m = basis.size
    pivots = T[:m, col]
    ratios = np.divide(T[:m, -1], pivots, out=np.full(m, np.inf), where=pivots > EPS)
    best = ratios.min()
    if best == np.inf:
        raise NumericError("simplex ratio test found no row: the LP is unbounded")
    candidates = (ratios <= best + EPS).nonzero()[0]
    if candidates.size == 1:
        return int(candidates[0])
    if bland:
        return int(candidates[np.argmin(basis[candidates])])
    return int(candidates[np.argmax(pivots[candidates])])


def _run_simplex(T: np.ndarray, basis: np.ndarray, ncols: int, max_iter: int) -> None:
    """Iterate on a tableau whose last row is the (negated-cost) objective.

    The first basis.size rows are the constraints; rows between them and
    the objective ride along every pivot.
    """
    bland_after = max_iter // 2
    for it in range(max_iter):
        obj = T[-1, :ncols]
        bland = it >= bland_after
        if bland:
            negs = np.nonzero(obj < -EPS)[0]
            if negs.size == 0:
                return
            col = int(negs[0])
        else:
            col = int(np.argmin(obj))
            if obj[col] >= -EPS:
                return
        _pivot(T, basis, _leaving_row(T, basis, col, bland), col)
    raise NumericError("simplex iteration limit reached")


def _standard_form(n: int, A_eq, b_eq, A_ub, b_ub) -> tuple[np.ndarray, np.ndarray]:
    """Rows [A_ub I; A_eq 0] and their right-hand side."""
    A_ub = np.empty((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float)
    A_eq = np.empty((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    m = A_ub.shape[0]
    A = np.vstack([np.hstack([A_ub, np.eye(m)]),
                   np.hstack([A_eq, np.zeros((A_eq.shape[0], m))])])
    return A, np.array([*(b_ub if m else ()), *(b_eq if A_eq.shape[0] else ())], dtype=float)


def _phase1(A: np.ndarray, b: np.ndarray, costs: Sequence[np.ndarray],
            max_iter: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """A feasible basis of A x = b, x >= 0, or None when its phase-1 optimum is positive.

    Rows are first flipped so that b >= 0.  Each row r that has a column
    equal to e_r (an unflipped inequality's slack) starts with the first
    such column basic, which is feasible as b_r >= 0.  Each other row (a
    flipped inequality, an equality) gets an artificial, and phase 1 drives
    the artificials' sum to zero.  Each cost c gets one reduced-cost row,
    c less c[basis[r]] times row r over the unit-column rows with
    c[basis[r]] != 0, subtracted in row order (artificials cost nothing);
    the rows ride along every phase-1 pivot.  Returns the tableau over the
    columns of A and the right-hand side, the constraint rows then one row
    per cost, and the basis.  Rows that turn out redundant are dropped.
    """
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    m, total = A.shape

    unit = np.flatnonzero(((A != 0.0).sum(axis=0) == 1) & (A.sum(axis=0) == 1.0))
    rows, first = np.unique(np.argmax(A[:, unit], axis=0), return_index=True)
    basis = np.full(m, -1)
    basis[rows] = unit[first]
    art = np.flatnonzero(basis < 0)
    T = np.zeros((m + len(costs) + 1, total + art.size + 1))
    T[:m, :total] = A
    T[:m, -1] = b
    for i, c in enumerate(costs):
        T[m + i, :c.size] = c
        coef = T[m + i, basis[rows]]
        used = coef != 0.0
        terms = np.vstack([T[m + i], coef[used, None] * T[rows[used]]])
        T[m + i] = np.subtract.accumulate(terms, axis=0)[-1]
    basis[art] = total + np.arange(art.size)
    T[art, basis[art]] = 1.0
    T[-1, :total] = -A[art].sum(axis=0)
    T[-1, -1] = -b[art].sum()
    _run_simplex(T, basis, total + art.size, max_iter)
    if T[-1, -1] < -1e-7:
        return None

    # pivot remaining artificials out of the basis (or drop redundant rows)
    keep = np.ones(T.shape[0], dtype=bool)
    keep[-1] = False  # the phase-1 objective
    for r in np.flatnonzero(basis >= total).tolist():
        piv_cols = np.flatnonzero(np.abs(T[r, :total]) > EPS)
        if piv_cols.size:
            _pivot(T, basis, r, int(piv_cols[0]))
        else:
            keep[r] = False
    return np.hstack([T[keep, :total], T[keep, -1:]]), basis[keep[:m]]


def shadow_vertices(c1: Sequence[float], c2: Sequence[float],
                    A_eq: np.ndarray, b_eq: Sequence[float],
                    A_ub: Optional[np.ndarray] = None,
                    b_ub: Optional[Sequence[float]] = None) -> Optional[list[np.ndarray]]:
    """The point (-c1.x, -c2.x) of every basis the sweep visits, in order;
    None when infeasible.

    Each basis is optimal for min (cos(theta) c1 + sin(theta) c2).x on an arc
    of theta.  The sweep optimizes for theta = 0, then repeatedly advances
    theta to where the first nonbasic column's reduced cost r1 cos + r2 sin
    turns negative and pivots that column in, until theta passes 2 pi.  A
    column's step lies in [0, pi]; one above 3 pi / 2 is a rounded-negative
    reduced cost and enters now.  Columns with |(r1, r2)| <= EPS, the basic
    ones among them, never enter, and equal steps go to the smallest column
    index.  The feasible set must be bounded: a ratio test that finds no
    row raises NumericError.  The two cost rows come from phase 1 and ride
    through every pivot, so a basis's point is their right-hand sides,
    -c1.x and -c2.x; x itself is never formed.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    A, b = _standard_form(c1.size, A_eq, b_eq, A_ub, b_ub)
    max_iter = 200 * sum(A.shape)
    start = _phase1(A, b, [c2, c1], max_iter)  # theta = 0 optimizes the last row
    if start is None:
        return None
    T, basis = start
    m, total = basis.size, T.shape[1] - 1
    _run_simplex(T, basis, total, max_iter)
    r2, r1 = T[m, :total], T[m + 1, :total]  # views that every pivot updates
    visited = [T[[m + 1, m], -1]]
    theta = 0.0
    for _ in range(max_iter):
        step = np.mod(np.arctan2(r2, r1) + math.pi / 2 - theta, 2 * math.pi)
        step[step > 1.5 * math.pi] = 0.0
        step[np.hypot(r1, r2) <= EPS] = np.inf  # basic columns' are exactly 0
        col = int(step.argmin())
        theta += step[col]
        if not theta < 2 * math.pi:
            return visited
        _pivot(T, basis, _leaving_row(T, basis, col, bland=False), col)
        visited.append(T[[m + 1, m], -1])
    raise NumericError("shadow-vertex sweep iteration limit reached")
