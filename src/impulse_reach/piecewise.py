"""Piecewise-polynomial functions with exact breakpoints and one-sided limits.

A PiecewiseFn stores strictly increasing rational breakpoints spanning the
time domain, one polynomial per open gap (coefficients low degree first,
rational or float) and an explicit value at every breakpoint.  Degree-0
pieces give the step functions; higher degrees (capped at MAX_DEGREE) stand
in for the uniformly-approximable functions the moment kernels live in.

Breakpoint values are kept exact as function values but carry no weight in
eta-integration, matching the usual piecewise-constant convention.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BoundaryError, CapacityError, DomainError
from .intervals import Cell, Interval
from .rational import Number, is_exact, num_from_json, rat

MAX_DEGREE = 4

LEFT = "left"
RIGHT = "right"

Coeffs = tuple[Number, ...]


def _trim(coeffs: Sequence[Number]) -> Coeffs:
    cs = list(coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    if not cs:
        cs = [0]
    return tuple(cs)


def poly_eval(coeffs: Sequence[Number], t: Number):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_mul(a: Sequence[Number], b: Sequence[Number]) -> Coeffs:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def poly_add(a: Sequence[Number], b: Sequence[Number], alpha=1, beta=1) -> Coeffs:
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        ca = a[k] if k < len(a) else 0
        cb = b[k] if k < len(b) else 0
        out.append(alpha * ca + beta * cb)
    return _trim(out)


def poly_antiderivative(coeffs: Sequence[Number]) -> Coeffs:
    """The antiderivative vanishing at 0, over the exact value of every coefficient."""
    return (Fraction(0),) + tuple((c if isinstance(c, Fraction) else Fraction(c)) / (k + 1)
                                  for k, c in enumerate(coeffs))


@dataclass(frozen=True)
class PiecewiseFn:
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Coeffs, ...]
    point_values: tuple[Number, ...]

    def __post_init__(self) -> None:
        bps = self.breakpoints
        if len(bps) < 2:
            raise DomainError("need at least the two domain endpoints")
        if any(not isinstance(b, Fraction) for b in bps):
            raise TypeError("breakpoints must be Fractions")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        if len(self.pieces) != len(bps) - 1:
            raise DomainError("need one piece per breakpoint gap")
        if len(self.point_values) != len(bps):
            raise DomainError("need one point value per breakpoint")
        for coeffs in self.pieces:
            if len(coeffs) - 1 > MAX_DEGREE:
                raise CapacityError(f"piece degree exceeds cap {MAX_DEGREE}")

    # -- construction ---------------------------------------------------------

    @staticmethod
    def build(breakpoints: Iterable[Number | str], pieces: Iterable[Sequence[Number]],
              point_values: Iterable[Number] | None = None) -> "PiecewiseFn":
        bps = tuple(rat(b) for b in breakpoints)
        ps = tuple(_trim(c) for c in pieces)
        if point_values is None:
            vals = []
            for i, b in enumerate(bps):
                coeffs = ps[min(i, len(ps) - 1)]
                vals.append(poly_eval(coeffs, b))
            point_values = vals
        return PiecewiseFn(bps, ps, tuple(point_values))

    @staticmethod
    def constant(domain: Interval, value: Number) -> "PiecewiseFn":
        return PiecewiseFn((domain.lo, domain.hi), (_trim([value]),), (value, value))

    @property
    def domain(self) -> Interval:
        return Interval(self.breakpoints[0], self.breakpoints[-1])

    @property
    def is_step(self) -> bool:
        return all(len(c) == 1 for c in self.pieces)

    @property
    def is_exact(self) -> bool:
        return (all(is_exact(c) for cs in self.pieces for c in cs)
                and all(is_exact(v) for v in self.point_values))

    # -- evaluation -----------------------------------------------------------

    def eval(self, t: Number | str):
        t = rat(t)
        if not (self.breakpoints[0] <= t <= self.breakpoints[-1]):
            raise DomainError(f"{t} outside domain")
        i = bisect_left(self.breakpoints, t)
        if i < len(self.breakpoints) and self.breakpoints[i] == t:
            return self.point_values[i]
        return poly_eval(self.pieces[i - 1], t)

    def __call__(self, t: Number | str):
        return self.eval(t)

    def side_limit(self, t: Number | str, side: str):
        """One-sided limit at t: the adjacent piece's polynomial value."""
        t = rat(t)
        if side not in (LEFT, RIGHT):
            raise ValueError("side must be 'left' or 'right'")
        if not (self.breakpoints[0] <= t <= self.breakpoints[-1]):
            raise DomainError(f"{t} outside domain")
        if side == LEFT:
            if t <= self.breakpoints[0]:
                raise BoundaryError("no left limit at the lower domain endpoint")
            i = bisect_left(self.breakpoints, t) - 1
        else:
            if t >= self.breakpoints[-1]:
                raise BoundaryError("no right limit at the upper domain endpoint")
            i = bisect_right(self.breakpoints, t) - 1
        return poly_eval(self.pieces[i], t)

    # -- representation -------------------------------------------------------

    def refine(self, extra: Iterable[Number | str]) -> "PiecewiseFn":
        """Equal function over a breakpoint superset.

        Old breakpoints keep their stored values; only the new points are
        evaluated, on the piece whose open gap holds them.
        """
        bps = self.breakpoints
        new = sorted({rat(t) for t in extra}.difference(bps))
        if not new:
            return self
        if new[0] < bps[0] or new[-1] > bps[-1]:
            raise DomainError("refinement points must lie inside the domain")
        points: list[Fraction] = []
        pieces: list[Coeffs] = []
        values: list[Number] = []
        j = 0
        for i, coeffs in enumerate(self.pieces):
            points.append(bps[i])
            pieces.append(coeffs)
            values.append(self.point_values[i])
            hi = bps[i + 1]
            while j < len(new) and new[j] < hi:
                points.append(new[j])
                pieces.append(coeffs)
                values.append(poly_eval(coeffs, new[j]))
                j += 1
        points.append(bps[-1])
        values.append(self.point_values[-1])
        return PiecewiseFn(tuple(points), tuple(pieces), tuple(values))

    @staticmethod
    def from_json(obj: dict) -> "PiecewiseFn":
        return PiecewiseFn.build(
            obj["breakpoints"],
            [[num_from_json(c) for c in coeffs] for coeffs in obj["pieces"]],
            [num_from_json(v) for v in obj["point_values"]],
        )


def _common(f: PiecewiseFn, g: PiecewiseFn) -> tuple[PiecewiseFn, PiecewiseFn]:
    if f.domain != g.domain:
        raise DomainError("functions live on different domains")
    if f.breakpoints == g.breakpoints:
        return f, g
    return f.refine(g.breakpoints), g.refine(f.breakpoints)


def lin_comb(alpha: Number, f: PiecewiseFn, beta: Number, g: PiecewiseFn) -> PiecewiseFn:
    rf, rg = _common(f, g)
    pieces = tuple(poly_add(a, b, alpha, beta) for a, b in zip(rf.pieces, rg.pieces))
    values = tuple(alpha * a + beta * b
                   for a, b in zip(rf.point_values, rg.point_values))
    return PiecewiseFn(rf.breakpoints, pieces, values)


def multiply(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    rf, rg = _common(f, g)
    pieces = []
    for a, b in zip(rf.pieces, rg.pieces):
        if (len(a) - 1) + (len(b) - 1) > MAX_DEGREE:
            raise CapacityError("product degree exceeds cap")
        pieces.append(poly_mul(a, b))
    values = tuple(a * b for a, b in zip(rf.point_values, rg.point_values))
    return PiecewiseFn(rf.breakpoints, tuple(pieces), values)


def scale(alpha: Number, f: PiecewiseFn) -> PiecewiseFn:
    pieces = tuple(_trim([alpha * c for c in coeffs]) for coeffs in f.pieces)
    values = tuple(alpha * v for v in f.point_values)
    return PiecewiseFn(f.breakpoints, pieces, values)


def indicator(a: Cell, domain: Interval) -> PiecewiseFn:
    return step_function(domain, [(a, 1)])


def step_function(domain: Interval, cell_values: Sequence[tuple[Cell, Number]],
                  default: Number = 0) -> PiecewiseFn:
    """Step function equal to `value` on each cell and `default` elsewhere.

    Cells must be pairwise disjoint and lie inside the domain; breakpoints
    are the cells' endpoints.  Disjoint parts never hold another part's
    endpoint strictly inside, so one walk over the parts in order gives each
    gap its part's value and each breakpoint the value of the part closed
    there.
    """
    parts = sorted(((part, v) for cell, v in cell_values for part in cell.parts),
                   key=lambda pv: pv[0].start_cut)
    for (prev, _), (cur, _) in zip(parts, parts[1:]):
        if cur.start_cut < prev.end_cut:
            raise DomainError("step function cells must be pairwise disjoint")
    if parts and (parts[0][0].start_cut < domain.start_cut
                  or parts[-1][0].end_cut > domain.end_cut):
        raise DomainError("step function cells must lie in the domain")
    bps = [domain.lo]
    values = [default]
    pieces: list[Coeffs] = []
    for part, v in parts:
        if part.lo != bps[-1]:
            pieces.append((default,))
            bps.append(part.lo)
            values.append(default)
        if part.lo_closed:
            values[-1] = v
        if part.hi != part.lo:
            pieces.append((v,))
            bps.append(part.hi)
            values.append(v if part.hi_closed else default)
    if bps[-1] != domain.hi:
        pieces.append((default,))
        bps.append(domain.hi)
        values.append(default)
    return PiecewiseFn(tuple(bps), tuple(pieces), tuple(values))


def fn_equal(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """Exact pointwise equality after breakpoint refinement."""
    rf, rg = _common(f, g)
    return (rf.point_values == rg.point_values
            and all(poly_add(a, b, 1, -1) == (0,) for a, b in zip(rf.pieces, rg.pieces)))


def sup_norm(f: PiecewiseFn) -> Number:
    """Exact max of |f| over the domain, breakpoint values included.

    Per piece the closure max is taken over the gap endpoints plus the real
    critical points of the polynomial (derivative roots; numeric for
    degree >= 3 derivatives).
    """
    best: Number = 0
    for v in f.point_values:
        best = max(best, abs(v))
    for (a, b), coeffs in zip(zip(f.breakpoints, f.breakpoints[1:]), f.pieces):
        for t in (a, b):
            best = max(best, abs(poly_eval(coeffs, t)))
        deriv = [k * c for k, c in enumerate(coeffs)][1:]
        deriv = list(_trim(deriv))
        if len(deriv) == 2 and deriv[1] != 0:
            root = -deriv[0] / deriv[1]
            if a < root < b:
                best = max(best, abs(poly_eval(coeffs, root)))
        elif len(deriv) >= 3:
            roots = np.roots([float(c) for c in reversed(deriv)])
            for r in roots:
                if abs(r.imag) < 1e-12 and float(a) < r.real < float(b):
                    best = max(best, abs(poly_eval([float(c) for c in coeffs], r.real)))
    return best


def _integrate_gaps(bps: Sequence[Fraction], piece: Callable[[int], Coeffs],
                    a: Cell) -> Number:
    """Integral over the cell of the function whose k-th gap carries piece(k).

    Each coefficient is integrated at its exact value; the total is rounded
    to float once iff a piece the cell meets has a float coefficient.
    """
    if not a.within(Interval(bps[0], bps[-1])):
        raise DomainError("integration cell must lie in the domain")
    total = Fraction(0)
    rounded = False
    for part in a.parts:
        lo, hi = part.lo, part.hi
        if lo == hi:
            continue
        i = bisect_right(bps, lo) - 1
        cursor = lo
        while cursor < hi:
            seg_hi = min(hi, bps[i + 1])
            coeffs = piece(i)
            rounded = rounded or any(isinstance(c, float) for c in coeffs)
            if len(coeffs) == 1:
                c = coeffs[0]
                total += (c if isinstance(c, Fraction) else Fraction(c)) * (seg_hi - cursor)
            else:
                anti = poly_antiderivative(coeffs)
                total += poly_eval(anti, seg_hi) - poly_eval(anti, cursor)
            cursor = seg_hi
            i += 1
    return float(total) if rounded else total


def integrate_eta(f: PiecewiseFn, a: Cell) -> Number:
    """Antiderivative-based integral of f over the cell; point values ignored.

    Float coefficients are integrated at their exact values and the total is
    rounded to float once, so the result is the correctly rounded integral.
    """
    return _integrate_gaps(f.breakpoints, f.pieces.__getitem__, a)


def integrate_product(f: PiecewiseFn, g: PiecewiseFn, a: Cell) -> Number:
    """integrate_eta(multiply(f, g), a) without building the product.

    One merge walk over both breakpoint lists pairs the pieces of each common
    gap; the gaps the cell meets are multiplied with poly_mul in the same
    order and the total is rounded once, so float results are bit-equal to
    the product path.  A degree overflow anywhere on the domain raises
    CapacityError, as multiply does.
    """
    if f.domain != g.domain:
        raise DomainError("functions live on different domains")
    fb, gb = f.breakpoints, g.breakpoints
    bps = [fb[0]]
    pairs: list[tuple[Coeffs, Coeffs]] = []
    i = j = 0
    while i < len(f.pieces):
        fp, gp = f.pieces[i], g.pieces[j]
        if len(fp) + len(gp) - 2 > MAX_DEGREE:
            raise CapacityError("product degree exceeds cap")
        pairs.append((fp, gp))
        f_hi, g_hi = fb[i + 1], gb[j + 1]
        if f_hi < g_hi:
            bps.append(f_hi)
            i += 1
        elif g_hi < f_hi:
            bps.append(g_hi)
            j += 1
        else:
            bps.append(f_hi)
            i += 1
            j += 1
    return _integrate_gaps(bps, lambda k: poly_mul(*pairs[k]), a)


def step_values(f: PiecewiseFn) -> list[tuple[Fraction, Fraction, Number]]:
    """(gap lo, gap hi, constant value) triples for a step function."""
    if not f.is_step:
        raise CapacityError("not a step function")
    return [(a, b, coeffs[0])
            for (a, b), coeffs in zip(zip(f.breakpoints, f.breakpoints[1:]), f.pieces)]
