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
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

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
        ratios = [b.as_integer_ratio() for b in bps]
        if any(an * bd >= bn * ad for (an, ad), (bn, bd) in zip(ratios, ratios[1:])):
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

    Per piece the closure max is taken over the gap endpoints and, on a
    quadratic piece, its vertex.  A piece of degree >= 3 raises CapacityError:
    its critical points are irrational in general (t^3 - t peaks at
    1/sqrt(3)).  The first largest candidate, in the order point values, then
    each piece's ends and vertex, is returned; an exact step function finds it
    by comparing integers over one denominator.
    """
    if f.is_step and f.is_exact:
        values = [*f.point_values, *(cs[0] for cs in f.pieces)]
        ratios = [v.as_integer_ratio() for v in values]
        den = lcm(*[d for _, d in ratios])
        keys = [abs(n) * (den // d) for n, d in ratios]
        top = max(keys)
        if top == 0:
            return 0
        i = keys.index(top)
        k = i - len(f.point_values)
        return abs(values[i]) if k < 0 else abs(poly_eval(f.pieces[k], f.breakpoints[k]))
    best: Number = 0
    for v in f.point_values:
        best = max(best, abs(v))
    for (a, b), coeffs in zip(zip(f.breakpoints, f.breakpoints[1:]), f.pieces):
        deriv = _trim([k * c for k, c in enumerate(coeffs)][1:])
        if len(deriv) > 2:
            raise CapacityError("sup_norm is exact up to degree 2; a piece of degree "
                                f"{len(deriv)} has no exact critical points in general")
        for t in (a, b):
            best = max(best, abs(poly_eval(coeffs, t)))
        if len(deriv) == 2:
            root = Fraction(-deriv[0]) / deriv[1]  # int / int would be a float
            if a < root < b:
                best = max(best, abs(poly_eval(coeffs, root)))
    return best


def _ratio_piece(coeffs: Sequence[Number]) -> tuple[list[int], int, bool]:
    """(A, q, has_float): the coefficients' exact values as A[k] / q, over one
    denominator, and whether any of them is a float."""
    if len(coeffs) == 1:
        c = coeffs[0]
        n, q = c.as_integer_ratio()
        return [n], q, isinstance(c, float)
    ratios = [c.as_integer_ratio() for c in coeffs]
    q = lcm(*[d for _, d in ratios])
    return ([n * (q // d) for n, d in ratios], q,
            any(isinstance(c, float) for c in coeffs))


def _product_piece(a: Coeffs, b: Coeffs) -> tuple[list[int], int, bool]:
    """_ratio_piece(poly_mul(a, b)); exact pieces multiply as integers."""
    if any(isinstance(c, float) for c in a) or any(isinstance(c, float) for c in b):
        return _ratio_piece(poly_mul(a, b))
    xs, p, _ = _ratio_piece(a)
    ys, q, _ = _ratio_piece(b)
    if len(xs) == 1 and len(ys) == 1:
        return [xs[0] * ys[0]], p * q, False
    out = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += x * y
    return out, p * q, False


# _ANTI[n] = (m, (m // 1, ..., m // n)) with m = lcm(1, ..., n): the
# antiderivative of sum_k A[k] t^k over q is sum_k A[k] (m // (k+1)) t^(k+1)
# over q m.
_ANTI = [(lcm(*range(1, n + 1)), tuple(lcm(*range(1, n + 1)) // (k + 1) for k in range(n)))
         for n in range(MAX_DEGREE + 2)]


def _bisect_ratio(bps: Sequence[tuple[int, int]], n: int, d: int) -> int:
    """bisect_right for the value n/d on breakpoints given as (numerator, denominator)."""
    lo, hi = 0, len(bps)
    while lo < hi:
        mid = (lo + hi) // 2
        bn, bd = bps[mid]
        if n * bd < bn * d:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _integrate_gaps(bps: Sequence[tuple[int, int]],
                    piece: Callable[[int], tuple[list[int], int, bool]], a: Cell) -> Number:
    """Integral over the cell of the function whose k-th gap carries piece(k).

    Breakpoints come as (numerator, denominator) pairs and pieces as
    _ratio_piece gives them.  Each gap [c, s] the cell meets adds
    sum_k A[k] / (q (k+1)) (s^(k+1) - c^(k+1)) to one running integer
    numerator and denominator; the total is rounded to float once iff one of
    those pieces has a float coefficient.
    """
    parts = a.parts
    if parts:
        (an, ad), (bn, bd) = parts[0].lo.as_integer_ratio(), parts[-1].hi.as_integer_ratio()
        (un, ud), (vn, vd) = bps[0], bps[-1]
        if an * ud < un * ad or vn * bd < bn * vd:
            raise DomainError("integration cell must lie in the domain")
    num, den = 0, 1
    rounded = False
    for part in parts:
        lo, hi = part.lo.as_integer_ratio(), part.hi.as_integer_ratio()
        if lo == hi:
            continue
        hn, hd = hi
        cn, cd = lo
        i = _bisect_ratio(bps, cn, cd) - 1
        while True:
            sn, sd = bps[i + 1]
            last = hn * sd <= sn * hd
            if last:
                sn, sd = hn, hd
            coeffs, q, has_float = piece(i)
            rounded = rounded or has_float
            if len(coeffs) == 1:
                seg_num, seg_den = coeffs[0] * (sn * cd - cn * sd), sd * cd * q
            else:
                m, scale = _ANTI[len(coeffs)]
                # Horner on the antiderivative at s = sn/sd and c = cn/cd, each
                # scaled by its denominator to the power len(coeffs)
                hs = hc = 0
                ps = pc = 1
                for k in range(len(coeffs) - 1, -1, -1):
                    e = coeffs[k] * scale[k]
                    hs = hs * sn + e * ps
                    hc = hc * cn + e * pc
                    ps *= sd
                    pc *= cd
                seg_num, seg_den = hs * sn * pc - hc * cn * ps, ps * pc * q * m
            if seg_den == den:
                num += seg_num
            else:
                g = gcd(den, seg_den)
                num = num * (seg_den // g) + seg_num * (den // g)
                den = den // g * seg_den
            if last:
                break
            cn, cd = sn, sd
            i += 1
    return num / den if rounded else Fraction(num, den)


def integrate_eta(f: PiecewiseFn, a: Cell) -> Number:
    """Antiderivative-based integral of f over the cell; point values ignored.

    Float coefficients are integrated at their exact values and the total is
    rounded to float once, so the result is the correctly rounded integral.
    """
    pieces = f.pieces
    return _integrate_gaps([t.as_integer_ratio() for t in f.breakpoints],
                           lambda k: _ratio_piece(pieces[k]), a)


def integrate_product(f: PiecewiseFn, g: PiecewiseFn, a: Cell) -> Number:
    """integrate_eta(multiply(f, g), a) without building the product.

    One merge walk over both breakpoint lists, compared as cross-multiplied
    integers, pairs the pieces of each common gap.  A gap with a float
    coefficient is multiplied with poly_mul, so float results are bit-equal to
    the product path; exact gaps multiply as integers.  A degree overflow
    anywhere on the domain raises CapacityError, as multiply does.
    """
    fb = [t.as_integer_ratio() for t in f.breakpoints]
    gb = [t.as_integer_ratio() for t in g.breakpoints]
    if fb[0] != gb[0] or fb[-1] != gb[-1]:
        raise DomainError("functions live on different domains")
    bps = [fb[0]]
    pairs: list[tuple[Coeffs, Coeffs]] = []
    i = j = 0
    while i < len(f.pieces):
        fp, gp = f.pieces[i], g.pieces[j]
        if len(fp) + len(gp) - 2 > MAX_DEGREE:
            raise CapacityError("product degree exceeds cap")
        pairs.append((fp, gp))
        (fn, fd), (gn, gd) = f_hi, g_hi = fb[i + 1], gb[j + 1]
        x, y = fn * gd, gn * fd
        if x < y:
            bps.append(f_hi)
            i += 1
        elif y < x:
            bps.append(g_hi)
            j += 1
        else:
            bps.append(f_hi)
            i += 1
            j += 1
    return _integrate_gaps(bps, lambda k: _product_piece(*pairs[k]), a)


def step_values(f: PiecewiseFn) -> list[tuple[Fraction, Fraction, Number]]:
    """(gap lo, gap hi, constant value) triples for a step function."""
    if not f.is_step:
        raise CapacityError("not a step function")
    return [(a, b, coeffs[0])
            for (a, b), coeffs in zip(zip(f.breakpoints, f.breakpoints[1:]), f.pieces)]
