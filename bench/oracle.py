"""Correctness oracle that shares no code with the program.

Set outputs (`reach`, `mp`) are checked against support values from
`scipy.optimize.linprog(method="highs")` on the same discretized problem.
The oracle builds that problem itself from closed-form kernels of the
double integrator; it never calls the program's columns, curve samples or
LP solver.

The program's polygon is the hull of support-LP optimizers over a fan of
directions, so in a fan direction its support value is the LP optimum.
The oracle directions lie on every fan the benchmark uses, and a value may
differ from the oracle's by the fan gap diam * (1 - cos(pi / directions))
plus a relative 1e-9, which leaves room for solver tolerances.  Off the fan
that gap is not a bound: an inner approximation can fall short there by up
to (diam / 2) * tan(pi / directions).  At mesh 1024 with 24 directions a
seeded family member falls short by 0.01366 where the fan gap is 0.01328.

Exact outputs are compared byte for byte with files in `reference/`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"

# 15 + 45k degrees: on every fan the benchmark uses (steps of 15, 1 and 0.5
# degrees), and on no axis, where box constraints make support ties.
ORACLE_ANGLES = np.deg2rad(15.0 + 45.0 * np.arange(8))
ORACLE_DIRS = np.column_stack([np.cos(ORACLE_ANGLES), np.sin(ORACLE_ANGLES)])
REL_TOL = 1e-9
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}


@dataclass(frozen=True)
class Kernel:
    """k(t) = (alpha + beta * t) * c(t) on [0, until), zero after."""

    alpha: float
    beta: float
    until: Fraction


def position(t: Fraction) -> Kernel:
    return Kernel(float(t), -1.0, t)


def velocity(t: Fraction) -> Kernel:
    return Kernel(1.0, 0.0, t)


@dataclass(frozen=True)
class Problem:
    """A double integrator on [0, 1] with a step thrust orientation c."""

    switches: tuple[Fraction, ...]     # interior breakpoints of c
    values: tuple[float, ...]          # c on each gap, len(switches) + 1
    b: float
    constraints: tuple[Kernel, ...]
    box: tuple[tuple[float | None, float | None], ...]
    exact: frozenset[int] = frozenset()  # J: coordinates a partial relaxation keeps

    @property
    def terminal(self) -> tuple[Kernel, Kernel]:
        return position(Fraction(1)), velocity(Fraction(1))

    def columns(self, kernels, mesh: int) -> np.ndarray:
        """Cell integrals of each kernel over the uniform mesh, len(kernels) x mesh."""
        lo = np.arange(mesh) / mesh
        hi = np.arange(1, mesh + 1) / mesh
        cuts = [0.0] + [float(s) for s in self.switches] + [1.0]
        out = np.zeros((len(kernels), mesh))
        for row, k in enumerate(kernels):
            for value, u, v in zip(self.values, cuts, cuts[1:]):
                a = np.maximum(lo, u)
                z = np.minimum(np.minimum(hi, v), float(k.until))
                z = np.maximum(z, a)
                out[row] += value * (k.alpha * (z - a) + k.beta * (z * z - a * a) / 2.0)
        return out

    def _c_limit(self, t: Fraction, left: bool) -> float:
        i = sum(1 for s in self.switches if (s < t if left else s <= t))
        return self.values[i]

    def curve(self, t_grid: int) -> np.ndarray:
        """b times the two one-sided limits of every kernel on the curve times."""
        kernels = list(self.terminal) + list(self.constraints)
        times = {Fraction(k, t_grid - 1) for k in range(t_grid)}
        times |= set(self.switches) | {k.until for k in kernels}
        rows = []
        for t in sorted(times):
            for left in (True, False):
                if (left and t == 0) or (not left and t == 1):
                    continue
                c = self._c_limit(t, left)
                rows.append([self.b * (k.alpha + k.beta * float(t)) * c
                             * (1.0 if (t <= k.until if left else t < k.until) else 0.0)
                             for k in kernels])
        return np.asarray(rows)


def scenario_problem(path: Path) -> Problem:
    """Read a shipped scenario (step `c` plus position/velocity builders)."""
    raw = json.loads(path.read_text())
    c = raw["c"]
    if any(len(piece) != 1 for piece in c["pieces"]):
        raise ValueError("the oracle handles step thrust orientations only")
    kinds = {"position": position, "velocity": velocity}
    cons = raw.get("constraints", {})
    kernels = tuple(kinds[b["kind"]](Fraction(b["t"])) for b in cons.get("builders", []))
    boxes = cons.get("Y", [[[None, None]] * len(kernels)])
    if len(boxes) != 1:
        raise ValueError("the oracle handles one target box")
    box = tuple((None if lo is None else float(Fraction(lo)),
                 None if hi is None else float(Fraction(hi))) for lo, hi in boxes[0])
    return Problem(tuple(Fraction(x) for x in c["breakpoints"][1:-1]),
                   tuple(float(Fraction(p[0])) for p in c["pieces"]),
                   float(Fraction(raw.get("b", 1))), kernels, box,
                   frozenset(int(j) for j in cons.get("J", [])))


def _lp_support(objective: np.ndarray, mass: np.ndarray, total: float,
                rows: np.ndarray, bounds) -> np.ndarray | None:
    """max d . (objective x) over x >= 0, mass . x = total, bounds on rows x."""
    from scipy.optimize import linprog

    a_eq, b_eq, a_ub, b_ub = [mass], [total], [], []
    for row, (lo, hi) in zip(rows, bounds):
        if lo is not None and lo == hi:
            a_eq.append(row)
            b_eq.append(lo)
            continue
        if hi is not None:
            a_ub.append(row)
            b_ub.append(hi)
        if lo is not None:
            a_ub.append(-row)
            b_ub.append(-lo)
    values = []
    for d in ORACLE_DIRS:
        res = linprog(-(d @ objective), A_ub=np.array(a_ub) if a_ub else None,
                      b_ub=b_ub or None, A_eq=np.array(a_eq), b_eq=b_eq,
                      bounds=(0, None), method="highs", options=HIGHS_OPTIONS)
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"oracle LP failed: {res.message}")
        values.append(-res.fun)
    return np.array(values)


def reach_support(problem: Problem, mesh: int, epsilon: float,
                  exact: frozenset[int]) -> np.ndarray | None:
    """Support values of the relaxed reachable set; `exact` holds 1-based
    constraint coordinates that are not relaxed."""
    cols = problem.columns(list(problem.terminal) + list(problem.constraints), mesh)
    bounds = []
    for j, (lo, hi) in enumerate(problem.box, start=1):
        pad = 0.0 if j in exact else epsilon
        bounds.append((None if lo is None else lo - pad, None if hi is None else hi + pad))
    return _lp_support(cols[:2], np.full(mesh, 1.0 / mesh), problem.b, cols[2:], bounds)


def mp_support(problem: Problem, t_grid: int) -> np.ndarray | None:
    """Support values of the attraction set over generalized controls."""
    curve = problem.curve(t_grid)
    return _lp_support(curve[:, :2].T, np.ones(len(curve)), 1.0,
                       curve[:, 2:].T, problem.box)


def set_vertices(planar: dict) -> np.ndarray:
    """Every vertex of a JSON set without arcs, as floats."""
    if planar.get("arcs"):
        raise ValueError("support check needs a set without arcs")
    pts = list(planar.get("points", []))
    for seg in planar.get("segments", []):
        pts.extend(seg)
    for poly in planar.get("polygons", []):
        pts.extend(poly)
    return np.array([[float(Fraction(c)) if isinstance(c, str) else float(c) for c in p]
                     for p in pts]).reshape(-1, 2)


def tolerance(vertices: np.ndarray, expected: np.ndarray, directions: int) -> np.ndarray:
    """Fan gap of the set's diameter plus a relative 1e-9, per oracle direction."""
    diam = max(float(np.max(np.linalg.norm(vertices - v, axis=1))) for v in vertices)
    return (diam * (1.0 - math.cos(math.pi / directions))
            + REL_TOL * np.maximum(1.0, np.abs(expected)))


def support_error(vertices: np.ndarray, expected: np.ndarray | None,
                  directions: int) -> str | None:
    """None when the vertices' support values match `expected`; else why not."""
    if expected is None:
        return None if len(vertices) == 0 else "oracle says infeasible, set is not empty"
    if len(vertices) == 0:
        return "set is empty, oracle says feasible"
    got = (vertices @ ORACLE_DIRS.T).max(axis=0)
    tol = tolerance(vertices, expected, directions)
    bad = np.nonzero(np.abs(got - expected) > tol)[0]
    if bad.size:
        i = int(bad[0])
        return (f"support {got[i]!r} vs oracle {expected[i]!r} at angle "
                f"{ORACLE_ANGLES[i]:.4f} (tolerance {tol[i]:.3g})")
    return None


def exact_error(text: str, reference: str) -> str | None:
    if text == (REFERENCE / reference).read_text():
        return None
    return f"differs from reference/{reference}"


def battery_error(report: dict) -> str | None:
    """Rows must match reference/battery.json: names and order exactly,
    every row passed, details matching their reference pattern."""
    expected = json.loads((REFERENCE / "battery.json").read_text())
    rows = report.get("results", [])
    if [r["name"] for r in rows] != [e["name"] for e in expected]:
        return "battery row names differ from the reference"
    for row, ref in zip(rows, expected):
        if row["passed"] is not True:
            return f"battery row {row['name']} failed: {row['detail']}"
        if not re.fullmatch(ref["detail"], row["detail"]):
            return f"battery row {row['name']} detail {row['detail']!r} does not match"
    return None


def coincidence_error(report: dict) -> str | None:
    cc = report.get("coincidence")
    if cc is None:
        return "coincidence report missing"
    if cc["distances_decrease"] is not True:
        return "distances do not decrease along the schedule"
    if not cc["entries"] or not all(e["partial_inside_full"] is True for e in cc["entries"]):
        return "a partial reach set is not inside the full one"
    return None


def self_test(vertices: np.ndarray, expected: np.ndarray, directions: int,
              exact_text: str | None, exact_ref: str | None) -> list[str]:
    """Feed the oracle known-bad answers; return the ones it failed to reject.

    The bad answers are the good polygon shrunk about its centroid until
    some support value drops by twice the tolerance, the polygon with the
    vertex whose removal moves the support values most dropped, and (when
    an exact output is given) that output with one digit changed.
    """
    missed = []
    tol = tolerance(vertices, expected, directions)
    full = (vertices @ ORACLE_DIRS.T).max(axis=0)
    center = vertices.mean(axis=0)
    reach = full - center @ ORACLE_DIRS.T
    k = int(np.argmax(reach / tol))
    shrunk = center + (vertices - center) * (1.0 - 2.0 * tol[k] / reach[k])
    if support_error(shrunk, expected, directions) is None:
        missed.append("shrunk polygon")
    drops = [np.max(full - (np.delete(vertices, i, axis=0) @ ORACLE_DIRS.T).max(axis=0))
             for i in range(len(vertices))]
    if support_error(np.delete(vertices, int(np.argmax(drops)), axis=0),
                     expected, directions) is None:
        missed.append("dropped vertex")
    if exact_text is not None:
        i = next(i for i, ch in enumerate(exact_text) if ch.isdigit())
        flipped = exact_text[:i] + str((int(exact_text[i]) + 1) % 10) + exact_text[i + 1:]
        if exact_error(flipped, exact_ref) is None:
            missed.append("flipped digit")
    return missed
