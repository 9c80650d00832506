"""Reachable sets, attraction sets and set-distance utilities.

Both approximate sets are hulls of generator rows sliced by target boxes.
relaxed_reach takes the step controls on a uniform mesh: their joint
(terminal, constraint) moments form the convex hull of b times the cell
averages of the kernels, one row per cell, sliced by the relaxed target.
A row that the kernels' affine pieces place on the segment between its
neighbours is dropped first, which leaves the hull unchanged.
universal_mp takes the generalized controls: the mass-b measure cone is the
closed convex hull of the scaled one-sided Diracs, so its rows are b times
the one-sided kernel limits on a time grid, sliced by the exact target.
The rows are floats of the exact kernels: a cell inside one kernel piece is
averaged by Gauss-Legendre quadrature in float, a cell that a breakpoint
splits is integrated exactly and rounded, and each limit is evaluated in
float on the piece found exactly.
One projection engine maps either hull to the terminal plane: per box, one
shadow-vertex sweep of the simplex enumerates the vertices of the sliced
hull's image, so each piece is that polygon exactly, up to rounding.  The
directions argument is validated but shapes no set.  short_impulse_mp is the
exact union of one-sided-limit segments for the vanishing-support constraint
family.  Every set is planar: systems with other than two terminal kernels
are rejected.
Set distances are sup-norm support-function gaps: the sup over a piece a of
the distance to a convex piece b is max(0, max_u h_a(u) - h_b(u)) over the
L1 unit directions where the gap can peak, +-e1, +-e2 and the edge normals
of b.  They use no tolerance, so scaling both sets scales them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .dynamics import ConstraintSpec, ImpulseSystem
from .errors import DomainError, EmptySetError, NumericError, PreconditionError
from .intervals import Cell, Interval
from .piecewise import LEFT, MAX_DEGREE, RIGHT, PiecewiseFn, integrate_eta, poly_eval
from .rational import Number, fmt_rat, num_to_json
from .simplex import shadow_vertices

Vec = tuple[Number, ...]


@dataclass(frozen=True)
class Arc:
    """Parametric polynomial curve over an open rational parameter interval."""

    t_lo: Fraction
    t_hi: Fraction
    coeffs: tuple[tuple[Number, ...], ...]  # one coefficient list per coordinate

    def __post_init__(self) -> None:
        if self.t_lo >= self.t_hi:
            raise DomainError("arc parameter interval must have positive length")

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def at(self, t: Number) -> Vec:
        return tuple(poly_eval(cs, t) for cs in self.coeffs)

    def to_json(self) -> dict:
        if self.dim != 2:
            raise DomainError("arc JSON form is two-dimensional")
        return {"param": [fmt_rat(self.t_lo), fmt_rat(self.t_hi)],
                "coeffs_x": [num_to_json(c) for c in self.coeffs[0]],
                "coeffs_y": [num_to_json(c) for c in self.coeffs[1]]}


@dataclass(frozen=True)
class PlanarSet:
    points: tuple[Vec, ...] = ()
    segments: tuple[tuple[Vec, Vec], ...] = ()
    arcs: tuple[Arc, ...] = ()
    polygons: tuple[tuple[Vec, ...], ...] = ()

    def __post_init__(self) -> None:
        for poly in self.polygons:
            if len(poly) < 3:
                raise DomainError("polygons need at least three vertices")

    @property
    def is_empty(self) -> bool:
        return not (self.points or self.segments or self.arcs or self.polygons)

    def to_json(self) -> dict:
        return {
            "points": [[num_to_json(c) for c in p] for p in self.points],
            "segments": [[[num_to_json(c) for c in p] for p in seg]
                         for seg in self.segments],
            "arcs": [a.to_json() for a in self.arcs],
            "polygons": [[[num_to_json(c) for c in p] for p in poly]
                         for poly in self.polygons],
        }

    def merge(self, other: "PlanarSet") -> "PlanarSet":
        return PlanarSet(self.points + other.points,
                         self.segments + other.segments,
                         self.arcs + other.arcs,
                         self.polygons + other.polygons)


@dataclass(frozen=True)
class ReachConfig:
    mesh: int
    epsilon: Number
    directions: int = 360
    partial_j: Optional[frozenset[int]] = None  # None = relax every coordinate

    def __post_init__(self) -> None:
        if self.mesh < 1:
            raise DomainError("mesh must be >= 1")
        if not self.epsilon > 0:
            raise DomainError("epsilon must be positive")


# -- geometry helpers ----------------------------------------------------------


def convex_hull_2d(points: Sequence[Sequence[float]]) -> list[tuple[float, float]]:
    """Monotone chain; returns counterclockwise vertices, collinear dropped.

    The chain pops only straight steps and right turns.  One cyclic pass
    then drops each vertex that lies between its neighbours within the
    tolerance.  Inside the sorted chain, the tolerance could pop the true
    end of a near-vertical edge.
    """
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) <= 2:
        return pts
    scale = max(max(abs(x), abs(y)) for x, y in pts) + 1.0
    eps = 1e-12 * scale * scale

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    kept: list[tuple[float, float]] = []
    for i, p in enumerate(hull):
        o = kept[-1] if kept else hull[-1]
        b = hull[(i + 1) % len(hull)]
        between = (p[0] - o[0]) * (b[0] - p[0]) + (p[1] - o[1]) * (b[1] - p[1]) >= 0
        if not (between and cross(o, p, b) <= eps):
            kept.append(p)
    return kept


def hull_piece(points: Sequence[Sequence[float]]) -> PlanarSet:
    """Canonical PlanarSet piece for a finite planar point cloud: its convex hull.

    The hull is taken on the raw floats, its vertices are rounded to the
    printed digits, and the rounded vertices are hulled again, so a point on
    an edge never turns into a vertex by rounding.
    """
    hull = convex_hull_2d(points)
    hull = convex_hull_2d([tuple(num_to_json(c) for c in p) for p in hull])
    if len(hull) >= 3:
        return PlanarSet(polygons=(tuple(hull),))
    if len(hull) == 2:
        return PlanarSet(segments=(tuple(hull),))
    return PlanarSet(points=tuple(hull))


def _pieces(ps: PlanarSet) -> list[tuple[tuple[float, float], ...]]:
    """The vertex list of each piece: a point, a segment's ends, a polygon's vertices."""
    if ps.arcs:
        raise DomainError("set distances have no exact form on arcs")
    pieces = [(p,) for p in ps.points] + list(ps.segments) + list(ps.polygons)
    return [tuple((float(x), float(y)) for x, y in piece) for piece in pieces]


def _gap(a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]]) -> float:
    """sup_{x in hull(a)} of the sup-norm distance from x to hull(b).

    dist(x, hull(b)) = max over the L1 unit ball of u.x - h_b(u), so the sup
    is max(0, max_u h_a(u) - h_b(u)).  Along each edge of the L1 sphere both
    supports are convex and piecewise linear, so the gap peaks at a corner
    +-e1, +-e2 or where h_b bends: at an edge normal of b.  Both signs of each
    normal are taken, so the vertex order of b does not matter.
    """
    dirs = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    for (x0, y0), (x1, y1) in zip(b, b[1:] + b[:1]):
        norm = abs(y1 - y0) + abs(x1 - x0)
        if norm > 0:
            u = ((y1 - y0) / norm, (x0 - x1) / norm)
            dirs += [u, (-u[0], -u[1])]

    def support(piece, ux, uy):
        return max(ux * x + uy * y for x, y in piece)

    return max(0.0, max(support(a, *u) - support(b, *u) for u in dirs))


def _directed(a: PlanarSet, b: PlanarSet) -> float:
    """sup_{x in a} dist(x, b) in the sup-norm, as support-function gaps.

    Against one convex piece of b, each piece of a gives its _gap.  Against a
    union, the sup over a segment or polygon has no such form, so only a
    finite point set may be measured there: each point takes its least gap
    over the union's pieces.  Arcs are rejected on either side.
    """
    if a.is_empty or b.is_empty:
        raise EmptySetError("set distances need two nonempty sets")
    sources, targets = _pieces(a), _pieces(b)
    if len(targets) > 1 and any(len(piece) > 1 for piece in sources):
        raise DomainError("distance from a segment or polygon to a union of "
                          "pieces has no exact form as a support gap")
    return max(min(_gap(piece, target) for target in targets) for piece in sources)


def hausdorff_distance(a: PlanarSet, b: PlanarSet) -> float:
    """Exact symmetric Hausdorff distance in the sup-norm (see _directed)."""
    return max(_directed(a, b), _directed(b, a))


def directed_distance(a: PlanarSet, b: PlanarSet) -> float:
    """Exact one-sided distance sup_{x in a} dist(x, b) (see _directed)."""
    return _directed(a, b)


# -- reachable sets -------------------------------------------------------------


def _check_input(sys: ImpulseSystem, cons: Optional[ConstraintSpec] = None) -> None:
    """Reject the inputs no set function can represent."""
    if sys.dim != 2:
        raise DomainError(f"sets are planar; the system has {sys.dim} terminal kernels")
    if cons is not None and any(k.domain != sys.domain for k in cons.s):
        raise DomainError("constraint kernel domain mismatch")


def relax_box(box: Sequence[tuple[Optional[Number], Optional[Number]]],
              epsilon: Number,
              partial_j: Optional[frozenset[int]]) -> list[tuple[Optional[float], Optional[float]]]:
    """Coordinate-wise sup-norm inflation; Partial keeps J coordinates exact."""
    out = []
    for j, (lo, hi) in enumerate(box, start=1):
        exact = partial_j is not None and j in partial_j
        pad = 0.0 if exact else float(epsilon)
        out.append((None if lo is None else float(lo) - pad,
                    None if hi is None else float(hi) + pad))
    return out


def _project(gens: np.ndarray,
             boxes: Sequence[Sequence[tuple[Optional[Number], Optional[Number]]]],
             directions: int) -> PlanarSet:
    """Terminal-plane image of the hull of the generator rows, sliced by each box.

    gens holds one row per generator: the two terminal coordinates, then the
    constraint coordinates.  For each box the weights x >= 0 with sum x = 1
    are bounded by the box on gens' constraint part, and one shadow-vertex
    sweep of the two terminal costs visits every vertex of that box's piece.
    An infeasible box contributes nothing.  directions is only validated: no
    set depends on it.
    """
    if directions < 3:
        raise DomainError("need at least 3 fan directions")
    terminal = gens[:, :2].T
    result = PlanarSet()
    for box in boxes:
        eq_rows, eq_rhs = [np.ones(gens.shape[0])], [1.0]
        ub_rows: list[np.ndarray] = []
        ub_rhs: list[float] = []
        for row, (lo, hi) in zip(gens[:, 2:].T, box):
            lo = None if lo is None else float(lo)
            hi = None if hi is None else float(hi)
            if lo is not None and lo == hi:
                eq_rows.append(row)
                eq_rhs.append(lo)
                continue
            if hi is not None:
                ub_rows.append(row)
                ub_rhs.append(hi)
            if lo is not None:
                ub_rows.append(-row)
                ub_rhs.append(-lo)
        A_ub = np.vstack(ub_rows) if ub_rows else None
        visited = shadow_vertices(-terminal[0], -terminal[1], np.vstack(eq_rows), eq_rhs,
                                  A_ub, ub_rhs)
        if visited is not None:
            result = result.merge(hull_piece([terminal @ x for x in visited]))
    return result


# The 3-node Gauss-Legendre rule on [-1, 1] integrates every polynomial of
# degree 5 >= MAX_DEGREE exactly; its middle node is the midpoint.  It is
# written out because numpy's leggauss imports numpy.polynomial and starts
# LAPACK, about 1.7 MB of resident memory.
_GL_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL_WEIGHTS = np.array([5 / 9, 8 / 9, 5 / 9])


def _coefficient_table(kernel: PiecewiseFn) -> np.ndarray:
    """The kernel's pieces as float rows, low degree first, zero-padded to MAX_DEGREE."""
    table = np.zeros((len(kernel.pieces), MAX_DEGREE + 1))
    for i, coeffs in enumerate(kernel.pieces):
        table[i, :len(coeffs)] = [float(c) for c in coeffs]
    return table


def _horner(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The polynomials in the last axis of coeffs at t, broadcast elementwise."""
    acc = coeffs[..., MAX_DEGREE]
    for d in range(MAX_DEGREE - 1, -1, -1):
        acc = acc * t + coeffs[..., d]
    return acc


def _cell_pieces(kernel: PiecewiseFn, t0: Fraction, step: Fraction,
                 mesh: int) -> tuple[np.ndarray, np.ndarray]:
    """Per mesh cell, the kernel piece it starts in and whether a breakpoint splits it."""
    # cell k lies right of an inner breakpoint at u cells from t0 iff ceil(u) <= k
    starts = []
    split = np.zeros(mesh, dtype=bool)
    for t in kernel.breakpoints[1:-1]:
        u = (t - t0) / step
        starts.append(math.ceil(u))
        if u.denominator != 1:
            split[math.floor(u)] = True
    return np.searchsorted(starts, np.arange(mesh), side="right"), split


def _mesh_generators(sys: ImpulseSystem, cons: ConstraintSpec, mesh: int) -> np.ndarray:
    """One row per mesh cell: b times the cell averages of the pi and s kernels.

    A step control with mass m_j on cell j has the moments sum_j (m_j / b) row_j,
    and the weights m_j / b are nonnegative and sum to 1.  A cell inside one
    piece of a kernel is averaged in float by Gauss-Legendre quadrature, written
    as the midpoint value plus weighted differences so that a constant piece
    averages to itself.  A cell that a kernel breakpoint splits is integrated
    exactly and rounded once.
    """
    kernels = sys.pi + cons.s
    step = (sys.theta0 - sys.t0) / mesh
    # the midpoints t0 + (2k + 1) step / 2 as ratios of ints, which divide
    # to the correctly rounded float
    a, d = sys.t0.numerator, sys.t0.denominator
    p, q = step.numerator, step.denominator
    mids = np.array([(2 * a * q + (2 * k + 1) * p * d) / (2 * d * q) for k in range(mesh)])
    nodes = mids[:, None] + float(step) / 2 * _GL_NODES
    b = float(sys.b)
    length = float(step)
    rows = np.empty((mesh, len(kernels)))
    for j, kernel in enumerate(kernels):
        pieces, split = _cell_pieces(kernel, sys.t0, step, mesh)
        values = _horner(_coefficient_table(kernel)[pieces][:, None, :], nodes)
        centre = values[:, 1:2]
        rows[:, j] = b * (centre[:, 0] + ((values - centre) * (_GL_WEIGHTS / 2)).sum(axis=1))
        for k in np.flatnonzero(split).tolist():
            cell = Cell((Interval(sys.t0 + k * step, sys.t0 + (k + 1) * step),))
            rows[k, j] = b * float(integrate_eta(kernel, cell)) / length
    return rows


def _collinear_rows(sys: ImpulseSystem, cons: ConstraintSpec, mesh: int) -> np.ndarray:
    """Mask of the mesh rows that lie on the segment between their neighbours.

    That holds for cell k when cells k-1, k and k+1 lie in the same piece of
    every kernel, no breakpoint splits them, and each such piece has degree
    <= 1: the three rows are then one affine map's values at equally spaced
    midpoints.  Dropping these rows leaves the hull unchanged.
    """
    step = (sys.theta0 - sys.t0) / mesh
    inner = np.zeros(mesh, dtype=bool)
    inner[1:-1] = True
    for kernel in sys.pi + cons.s:
        pieces, split = _cell_pieces(kernel, sys.t0, step, mesh)
        affine = np.array([len(cs) <= 2 for cs in kernel.pieces])[pieces]
        inner[1:-1] &= ((pieces[:-2] == pieces[2:]) & affine[1:-1]
                        & ~(split[:-2] | split[1:-1] | split[2:]))
    return inner


def relaxed_reach(sys: ImpulseSystem, cons: ConstraintSpec,
                  cfg: ReachConfig) -> PlanarSet:
    """Terminal-moment image of mesh step controls under the relaxed target."""
    _check_input(sys, cons)
    if cfg.partial_j is not None:
        for j in cfg.partial_j:
            if not 1 <= j <= cons.n_constraints:
                raise PreconditionError(f"J index {j} out of range")
            if not cons.s[j - 1].is_step:
                raise PreconditionError(
                    "exact (Partial) coordinates need step constraint kernels")
    boxes = [relax_box(box, cfg.epsilon, cfg.partial_j) for box in cons.boxes]
    gens = _mesh_generators(sys, cons, cfg.mesh)
    return _project(gens[~_collinear_rows(sys, cons, cfg.mesh)], boxes, cfg.directions)


def _augmented_curve_samples(sys: ImpulseSystem, cons: ConstraintSpec,
                             t_grid_size: int) -> np.ndarray:
    """One row per sampled one-sided limit: b times the pi and s kernel limits.

    The samples are both limits at every grid time and kernel breakpoint,
    except those outside the domain; each limit's piece is found exactly.
    """
    kernels = sys.pi + cons.s
    times = {sys.t0 + Fraction(k, t_grid_size - 1) * (sys.theta0 - sys.t0)
             for k in range(t_grid_size)}
    for kernel in kernels:
        times.update(kernel.breakpoints)
    samples = [(t, side) for t in sorted(times) for side in (LEFT, RIGHT)][1:-1]
    at = np.array([float(t) for t, _ in samples])
    b = float(sys.b)
    rows = np.empty((len(samples), len(kernels)))
    for j, kernel in enumerate(kernels):
        pieces = [(bisect_left(kernel.breakpoints, t) if side == LEFT
                   else bisect_right(kernel.breakpoints, t)) - 1 for t, side in samples]
        rows[:, j] = b * _horner(_coefficient_table(kernel)[pieces], at)
    return rows


def universal_mp(sys: ImpulseSystem, cons: ConstraintSpec,
                 t_grid_size: int = 129, directions: int = 360) -> PlanarSet:
    """Attraction set over generalized controls with the exact target.

    The joint (terminal, constraint) moment image of the mass-b measure cone
    is the closed convex hull of the two-sided kernel-limit curve; each
    target box slices the hull in the constraint coordinates and the result
    is projected to the terminal coordinates by one shadow-vertex sweep per
    box.
    """
    _check_input(sys, cons)
    if t_grid_size < 2:
        raise DomainError("t_grid_size must be at least 2")
    return _project(_augmented_curve_samples(sys, cons, t_grid_size), cons.boxes,
                    directions)


def short_impulse_mp(sys: ImpulseSystem) -> PlanarSet:
    """Exact attraction set of the vanishing-support constraint family.

    Union over interior times of the segment between the left and right
    kernel limits, plus the one-sided limit points at the domain endpoints;
    on every open gap between kernel breakpoints the set is the arc traced
    by b * pi(t).
    """
    _check_input(sys)
    cuts = sorted(set().union(*[set(k.breakpoints) for k in sys.pi]))
    refined = [k.refine(cuts) for k in sys.pi]

    arcs = []
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        arcs.append(Arc(lo, hi, tuple(tuple(sys.b * c for c in k.pieces[i])
                                      for k in refined)))

    points: list[Vec] = []
    segments: list[tuple[Vec, Vec]] = []
    for t in cuts[1:-1]:
        up = tuple(sys.b * k.side_limit(t, LEFT) for k in refined)
        down = tuple(sys.b * k.side_limit(t, RIGHT) for k in refined)
        if up == down:
            points.append(up)
        else:
            segments.append((up, down))
    points.append(tuple(sys.b * k.side_limit(sys.t0, RIGHT) for k in refined))
    points.append(tuple(sys.b * k.side_limit(sys.theta0, LEFT) for k in refined))

    return PlanarSet(points=tuple(points), segments=tuple(segments),
                     arcs=tuple(arcs))


# -- coincidence report ----------------------------------------------------------


@dataclass(frozen=True)
class CoincidenceEntry:
    mesh: int
    epsilon: float
    d_full_partial: float
    d_full_universal: float
    d_partial_universal: float
    partial_inside_full: bool

    def to_json(self) -> dict:
        return {
            "mesh": self.mesh,
            "epsilon": num_to_json(float(self.epsilon)),
            "d_full_partial": num_to_json(self.d_full_partial),
            "d_full_universal": num_to_json(self.d_full_universal),
            "d_partial_universal": num_to_json(self.d_partial_universal),
            "partial_inside_full": self.partial_inside_full,
        }


@dataclass(frozen=True)
class CoincidenceReport:
    entries: tuple[CoincidenceEntry, ...]
    distances_decrease: bool
    final_d_full_partial: float
    final_d_to_universal: float

    def to_json(self) -> dict:
        return {
            "entries": [e.to_json() for e in self.entries],
            "distances_decrease": self.distances_decrease,
            "final_d_full_partial": num_to_json(self.final_d_full_partial),
            "final_d_to_universal": num_to_json(self.final_d_to_universal),
        }


def coincidence_check(sys: ImpulseSystem, cons: ConstraintSpec,
                      schedule: Sequence[tuple[int, Number]],
                      directions: int = 360, t_grid_size: int = 129) -> CoincidenceReport:
    """Compare the fully-relaxed and partially-relaxed reach sets along a
    mesh/epsilon schedule against the generalized attraction set."""
    if not schedule:
        raise DomainError("coincidence check needs a nonempty schedule")
    universal = universal_mp(sys, cons, t_grid_size, directions)
    entries = []
    for mesh, epsilon in schedule:
        full = relaxed_reach(sys, cons, ReachConfig(mesh, epsilon, directions))
        partial = relaxed_reach(sys, cons, ReachConfig(mesh, epsilon, directions, cons.J))
        if full.is_empty or partial.is_empty or universal.is_empty:
            raise NumericError("coincidence check needs nonempty reach sets")
        extent = max(abs(c) for piece in _pieces(full) for p in piece for c in p)
        entries.append(CoincidenceEntry(
            mesh=mesh,
            epsilon=float(epsilon),
            d_full_partial=hausdorff_distance(full, partial),
            d_full_universal=hausdorff_distance(full, universal),
            d_partial_universal=hausdorff_distance(partial, universal),
            partial_inside_full=directed_distance(partial, full) <= 1e-9 * max(1.0, extent),
        ))
    gaps = [max(e.d_full_universal, e.d_partial_universal) for e in entries]
    decreasing = all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    return CoincidenceReport(
        entries=tuple(entries),
        distances_decrease=decreasing,
        final_d_full_partial=entries[-1].d_full_partial,
        final_d_to_universal=gaps[-1],
    )
