"""Reachable sets, attraction sets and set-distance utilities.

Both approximate sets are hulls of generator rows sliced by target boxes.
relaxed_reach takes the step controls on a uniform mesh: their joint
(terminal, constraint) moments form the convex hull of b times the cell
averages of the kernels, one row per cell, sliced by the relaxed target.
universal_mp takes the generalized controls: the mass-b measure cone is the
closed convex hull of the scaled one-sided Diracs, so its rows are b times
the one-sided kernel limits at the breakpoints and on a time grid, sliced by
the exact target.  Both build a row only at a site (cell or limit) that one
pruning rule keeps: a site amid one affine piece of every kernel lies on the
segment between its neighbours' rows.  So on affine kernels mp's rows are the
breakpoint limits, and the grid samples only pieces of degree >= 2.
The rows are floats of the exact kernels: a cell inside one kernel piece is
averaged by Gauss-Legendre quadrature in float, a cell that a breakpoint
splits is integrated exactly and rounded, and each limit is evaluated in
float on the piece found exactly.
One projection engine maps either hull to the terminal plane: per box, one
shadow-vertex sweep of the simplex enumerates the vertices of the sliced
hull's image, so each piece is that polygon exactly, up to rounding.  It
first scales each coordinate by a power of two, so scaling b, the boxes and
epsilon by lambda scales every set by lambda.  Partial relaxation keeps the
problem's exact coordinates cons.J unrelaxed.  ReachConfig and universal_mp
validate their directions argument (>= 3), and no set depends on it.
short_impulse_mp is the exact union of one-sided-limit segments for the
vanishing-support constraint family.  Every set is planar: systems with
other than two terminal kernels are rejected.
Set distances are sup-norm support-function gaps: the sup over a piece a of
the distance to a convex piece b is max(0, max_u h_a(u) - h_b(u)) over the
L1 unit directions where the gap can peak, +-e1, +-e2 and the edge normals
of b.  They use no tolerance, so scaling both sets scales them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .dynamics import ConstraintSpec, ImpulseSystem
from .errors import DomainError, EmptySetError, NumericError
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
    directions: int = 360  # validated only: no set depends on it
    partial: bool = False  # keep the coordinates cons.J exact

    def __post_init__(self) -> None:
        if self.mesh < 1:
            raise DomainError("mesh must be >= 1")
        if self.directions < 3:
            raise DomainError("need at least 3 fan directions")
        if not self.epsilon > 0:
            raise DomainError("epsilon must be positive")


# -- geometry helpers ----------------------------------------------------------


def convex_hull_2d(points: Sequence[Sequence[float]]) -> list[tuple[float, float]]:
    """Monotone chain; returns counterclockwise vertices, collinear dropped.

    The chain pops only straight steps and right turns.  A second pass then
    drops each vertex that lies between its neighbours within a tolerance
    relative to the points' extent, judging every vertex against the
    neighbours that survive: a stack, then a recheck across the wrap-around.
    A true corner that the chain visits twice, 1 ulp apart, so keeps one of
    the pair.  Inside the sorted chain, the tolerance could pop the true end
    of a near-vertical edge.
    """
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) <= 2:
        return pts
    scale = max(max(abs(x), abs(y)) for x, y in pts)
    eps = 1e-12 * scale * scale

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def between(o, p, b):
        """p lies on the segment from o to b, within the tolerance."""
        return ((p[0] - o[0]) * (b[0] - p[0]) + (p[1] - o[1]) * (b[1] - p[1]) >= 0
                and cross(o, p, b) <= eps)

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
    kept: list[tuple[float, float]] = []
    for p in lower[:-1] + upper[:-1]:
        while len(kept) >= 2 and between(kept[-2], kept[-1], p):
            kept.pop()
        kept.append(p)
    while len(kept) >= 3:
        if between(kept[-2], kept[-1], kept[0]):
            kept.pop()
        elif between(kept[-1], kept[0], kept[1]):
            kept.pop(0)
        else:
            break
    return kept


def hull_piece(points: Sequence[Sequence[float]]) -> PlanarSet:
    """Canonical PlanarSet piece for a finite planar point cloud: its convex hull.

    The vertices keep their computed floats; they are rounded to the printed
    digits only where a set is written (to_json, the SVG figure).
    """
    hull = convex_hull_2d(points)
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
              exact: frozenset[int]) -> list[tuple[Optional[float], Optional[float]]]:
    """Coordinate-wise sup-norm inflation of every coordinate not in exact
    (1-based)."""
    out = []
    for j, (lo, hi) in enumerate(box, start=1):
        pad = 0.0 if j in exact else float(epsilon)
        out.append((None if lo is None else float(lo) - pad,
                    None if hi is None else float(hi) + pad))
    return out


def _project(gens: np.ndarray,
             boxes: Sequence[Sequence[tuple[Optional[Number], Optional[Number]]]]) -> PlanarSet:
    """Terminal-plane image of the hull of the generator rows, sliced by each box.

    gens holds one row per generator: the two terminal coordinates, then the
    constraint coordinates.  For each box the weights x >= 0 with sum x = 1
    are bounded by the box on gens' constraint part, and one shadow-vertex
    sweep of the two terminal costs visits every vertex of that box's piece.
    An infeasible box contributes nothing.

    Each coordinate is first scaled by the power of two 2^-e that brings its
    largest magnitude into [1/2, 1), its box bounds with it, and the visited
    terminal points are scaled back.  Powers of two scale exactly, so scaling
    b and the boxes by 2^k hands the sweep the same LP, bit for bit, and its
    absolute thresholds (simplex.EPS, phase 1's) act relative to each
    coordinate's size.
    """
    exponents = np.frexp(np.abs(gens).max(axis=0))[1]
    gens = np.ldexp(gens, -exponents)
    result = PlanarSet()
    for box in boxes:
        eq_rows, eq_rhs = [np.ones(gens.shape[0])], [1.0]
        ub_rows: list[np.ndarray] = []
        ub_rhs: list[float] = []
        for row, (lo, hi), e in zip(gens[:, 2:].T, box, exponents[2:].tolist()):
            lo = None if lo is None else math.ldexp(float(lo), -e)
            hi = None if hi is None else math.ldexp(float(hi), -e)
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
        visited = shadow_vertices(-gens[:, 0], -gens[:, 1], np.vstack(eq_rows), eq_rhs,
                                  A_ub, ub_rhs)
        if visited is not None:
            result = result.merge(hull_piece([np.ldexp(p, exponents[:2]) for p in visited]))
    return result


# The 3-node Gauss-Legendre rule on [-1, 1] integrates every polynomial of
# degree 5 >= MAX_DEGREE exactly; its middle node is the midpoint.  It is
# written out because numpy's leggauss imports numpy.polynomial and starts
# LAPACK, about 1.7 MB of resident memory.
_GL_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL_WEIGHTS = np.array([5 / 9, 8 / 9, 5 / 9])


def _stacked_coefficients(kernels: Sequence[PiecewiseFn]) -> np.ndarray:
    """One float table of every kernel's pieces, indexed [kernel, piece, degree]:
    low degree first, zero-padded to MAX_DEGREE and to the most pieces."""
    table = np.zeros((len(kernels), max(len(k.pieces) for k in kernels), MAX_DEGREE + 1))
    for j, kernel in enumerate(kernels):
        for i, coeffs in enumerate(kernel.pieces):
            table[j, i, :len(coeffs)] = [float(c) for c in coeffs]
    return table


def _horner(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The polynomials in the last axis of coeffs at t, broadcast elementwise."""
    acc = coeffs[..., MAX_DEGREE]
    for d in range(MAX_DEGREE - 1, -1, -1):
        acc = acc * t + coeffs[..., d]
    return acc


def _integer_grid(t0: Fraction, step: Fraction,
                  kernels: Sequence[PiecewiseFn]) -> tuple[int, int, int]:
    """A common denominator D of t0, step and every kernel breakpoint, and the
    numerators of t0 and step over D."""
    a, d = t0.as_integer_ratio()
    p, q = step.as_integer_ratio()
    den = math.lcm(d, q, *(t.denominator for kernel in kernels for t in kernel.breakpoints))
    return den, a * (den // d), p * (den // q)


def _kept_sites(kernels: Sequence[PiecewiseFn], pieces: np.ndarray,
                splits: np.ndarray) -> np.ndarray:
    """Mask of the time-ordered sites to keep; site k reads piece pieces[j, k]
    of kernels[j], and splits[j, k] says a breakpoint of it splits the site.

    Site k is dropped when sites k-1 and k+1 lie in one piece of every kernel,
    site k+1 is not split, and each such piece has degree <= 1: the three rows
    are then one affine map's values at increasing times.  Only site k+1's
    split is read: a breakpoint that splits site k-1 or k starts a new piece
    at site k or k+1, so the piece test already keeps site k.  Each run of
    dropped sites keeps its two ends, so the hull of the rows is unchanged.
    """
    pieces, splits = np.asarray(pieces), np.asarray(splits)
    width = max(len(k.pieces) for k in kernels)
    affine = np.array([[len(cs) <= 2 for cs in k.pieces] + [False] * (width - len(k.pieces))
                       for k in kernels])
    affine = affine[np.arange(len(kernels))[:, None], pieces[:, 1:-1]]
    drop = np.zeros(pieces.shape[1], dtype=bool)
    drop[1:-1] = ((pieces[:, :-2] == pieces[:, 2:]) & affine & ~splits[:, 2:]).all(axis=0)
    return ~drop


def _mesh_generators(sys: ImpulseSystem, cons: ConstraintSpec,
                     mesh: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the mesh cells _kept_sites keeps, and one row per kept
    cell: b times the cell averages of the pi and s kernels.

    A step control with mass m_j on cell j has the moments sum_j (m_j / b) row_j,
    and the weights m_j / b are nonnegative and sum to 1.  Every time is held as
    its integer numerator over one common denominator D, so cell k is
    [start + k step, start + (k + 1) step] / D, and an inner breakpoint at u
    cells from t0 starts the piece of cell ceil(u) and splits cell floor(u)
    unless u is whole: one integer divmod per breakpoint.  All kernels are
    evaluated at once on a (kernel, cell, node) grid.  A cell inside one piece
    of a kernel is averaged in float by Gauss-Legendre quadrature, written as
    the midpoint value plus weighted differences so that a constant piece
    averages to itself.  A cell that a kernel breakpoint splits is integrated
    exactly and rounded once.
    """
    kernels = sys.pi + cons.s
    den, start, step = _integer_grid(sys.t0, (sys.theta0 - sys.t0) / mesh, kernels)
    firsts = np.zeros((len(kernels), mesh + 1), dtype=np.intp)
    splits = np.zeros((len(kernels), mesh), dtype=bool)
    for j, kernel in enumerate(kernels):
        for t in kernel.breakpoints[1:-1]:
            cell, rest = divmod(t.numerator * (den // t.denominator) - start, step)
            firsts[j, cell + (rest != 0)] += 1
            splits[j, cell] |= rest != 0
    pieces = firsts.cumsum(axis=1)[:, :mesh]
    kept = _kept_sites(kernels, pieces, splits)
    cells = np.flatnonzero(kept)
    # the midpoints (2 start + (2k + 1) step) / 2D as ratios of ints, which
    # divide to the correctly rounded float
    mids = np.array([(2 * start + (2 * k + 1) * step) / (2 * den) for k in cells.tolist()])
    length = step / den
    nodes = mids[:, None] + length / 2 * _GL_NODES
    coeffs = _stacked_coefficients(kernels)[np.arange(len(kernels))[:, None], pieces[:, cells]]
    values = _horner(coeffs[:, :, None, :], nodes)
    centre = values[..., 1]
    b = float(sys.b)
    rows = np.ascontiguousarray(
        (b * (centre + ((values - centre[..., None]) * (_GL_WEIGHTS / 2)).sum(axis=-1))).T)
    bounds: dict[int, Cell] = {}
    for j, i in zip(*np.nonzero(splits[:, cells])):
        k = int(cells[i])
        if k not in bounds:
            bounds[k] = Cell((Interval(Fraction(start + k * step, den),
                                       Fraction(start + (k + 1) * step, den)),))
        rows[i, j] = b * float(integrate_eta(kernels[j], bounds[k])) / length
    return kept, rows


def relaxed_reach(sys: ImpulseSystem, cons: ConstraintSpec,
                  cfg: ReachConfig) -> PlanarSet:
    """Terminal-moment image of mesh step controls under the relaxed target;
    cfg.partial keeps the coordinates cons.J exact."""
    _check_input(sys, cons)
    exact = cons.J if cfg.partial else frozenset()
    boxes = [relax_box(box, cfg.epsilon, exact) for box in cons.boxes]
    return _project(_mesh_generators(sys, cons, cfg.mesh)[1], boxes)


def _augmented_curve_samples(sys: ImpulseSystem, cons: ConstraintSpec,
                             t_grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the samples _kept_sites keeps, and one row per kept
    sample: b times the pi and s kernel limits.

    The samples are both limits at every grid time and kernel breakpoint,
    except those outside the domain.  Every time is held as its integer
    numerator over one common denominator D, and the sorted distinct times
    are numbered 0, 1, ...  Sample 2i is the left limit at time i and sample
    2i + 1 the right one.  A breakpoint at time r is keyed 2r + 1, after the
    left limit at its time and with the right one, so a sample's piece is
    the number of a kernel's keys up to the sample, less one: one integer
    search per kernel.  A kept time's float is the quotient num / D, which
    Python rounds correctly, and one Horner pass evaluates every kernel there.
    """
    kernels = sys.pi + cons.s
    den, start, step = _integer_grid(sys.t0, (sys.theta0 - sys.t0) / (t_grid_size - 1),
                                     kernels)
    breaks = [[t.numerator * (den // t.denominator) for t in kernel.breakpoints]
              for kernel in kernels]
    times = sorted(set(range(start, start + t_grid_size * step, step)).union(*breaks))
    number = {t: i for i, t in enumerate(times)}
    samples = np.arange(1, 2 * len(times) - 1)
    pieces = np.array([np.searchsorted([2 * number[t] + 1 for t in keys], samples,
                                       side="right") - 1 for keys in breaks])
    kept = _kept_sites(kernels, pieces, np.zeros(pieces.shape, dtype=bool))
    at = np.array([times[s // 2] / den for s in samples[kept].tolist()])
    coeffs = _stacked_coefficients(kernels)[np.arange(len(kernels))[:, None], pieces[:, kept]]
    return kept, np.ascontiguousarray((float(sys.b) * _horner(coeffs, at)).T)


def universal_mp(sys: ImpulseSystem, cons: ConstraintSpec,
                 t_grid_size: int = 129, directions: int = 360) -> PlanarSet:
    """Attraction set over generalized controls with the exact target.

    The joint (terminal, constraint) moment image of the mass-b measure cone
    is the closed convex hull of the two-sided kernel-limit curve.  Where
    every kernel is affine the curve is a segment, so the breakpoint limits
    give the hull exactly; the t_grid_size grid samples are kept only inside
    pieces of degree >= 2, where they give an inner hull.  Each target box
    slices the hull in the constraint coordinates, and one shadow-vertex sweep
    per box projects it to the terminal coordinates.  Whether a slice is empty
    depends only on the constraint coordinates, which the breakpoint limits
    span exactly on affine constraint pieces.  On a constraint piece of degree
    >= 2 the target may hold only times off the grid, so an empty set there
    raises NumericError.  directions is only validated: no set depends on it.
    """
    _check_input(sys, cons)
    if t_grid_size < 2:
        raise DomainError("t_grid_size must be at least 2")
    if directions < 3:
        raise DomainError("need at least 3 fan directions")
    result = _project(_augmented_curve_samples(sys, cons, t_grid_size)[1], cons.boxes)
    if result.is_empty and any(len(cs) > 2 for k in cons.s for cs in k.pieces):
        raise NumericError("the target slices no sampled point of a constraint kernel "
                           "of degree >= 2, and the sampled hull cannot decide "
                           "feasibility there")
    return result


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
                      t_grid_size: int = 129) -> CoincidenceReport:
    """Compare the fully-relaxed and partially-relaxed reach sets along a
    mesh/epsilon schedule against the generalized attraction set; the partial
    sets keep the coordinates cons.J exact."""
    if not schedule:
        raise DomainError("coincidence check needs a nonempty schedule")
    universal = universal_mp(sys, cons, t_grid_size)
    entries = []
    for mesh, epsilon in schedule:
        full = relaxed_reach(sys, cons, ReachConfig(mesh, epsilon))
        partial = relaxed_reach(sys, cons, ReachConfig(mesh, epsilon, partial=True))
        if full.is_empty or partial.is_empty or universal.is_empty:
            raise NumericError("coincidence check needs nonempty reach sets")
        extent = max(abs(c) for piece in _pieces(full) for p in piece for c in p)
        entries.append(CoincidenceEntry(
            mesh=mesh,
            epsilon=float(epsilon),
            d_full_partial=hausdorff_distance(full, partial),
            d_full_universal=hausdorff_distance(full, universal),
            d_partial_universal=hausdorff_distance(partial, universal),
            partial_inside_full=directed_distance(partial, full) <= 1e-9 * extent,
        ))
    gaps = [max(e.d_full_universal, e.d_partial_universal) for e in entries]
    decreasing = all(a >= b - 1e-12 * max(a, b) for a, b in zip(gaps, gaps[1:]))
    return CoincidenceReport(
        entries=tuple(entries),
        distances_decrease=decreasing,
        final_d_full_partial=entries[-1].d_full_partial,
        final_d_to_universal=gaps[-1],
    )
