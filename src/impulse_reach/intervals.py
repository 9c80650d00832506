"""Exact interval set algebra, cells and partitions of the time domain.

An Interval is one of the four endpoint-kind intervals in [t0, theta0]; a
Cell is a normalized finite disjoint union of intervals; a Partition is a
finite disjoint cover of the domain by cells.  All endpoints are exact
rationals, so intersection, the length measure eta and the refinement
direction are computed without tolerances.

Internally every interval is handled as a half-open range of "cuts": a cut
(t, 0) sits immediately at/below the point t and (t, 1) immediately above
it.  [lo, hi) becomes [(lo, 0), (hi, 0)); {t} becomes [(t, 0), (t, 1)).
Set operations then reduce to merge scans over sorted cut ranges.  The scans
compare cuts as integers: over the common denominator D of the endpoints
involved, the cut (t, s) has the key 2·t·D + s, and keys order as cuts do.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DomainError
from .rational import Number, rat

Cut = tuple[Fraction, int]


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.lo, Fraction) or not isinstance(self.hi, Fraction):
            raise TypeError("interval endpoints must be Fractions; use Interval.make")
        (ln, ld), (hn, hd) = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
        lo, hi = ln * hd, hn * ld
        if not lo < hi:
            if lo > hi:
                raise DomainError(f"empty interval: lo={self.lo} > hi={self.hi}")
            if not (self.lo_closed and self.hi_closed):
                raise DomainError("a singleton interval must be closed on both sides")

    @staticmethod
    def make(lo: Number | str, hi: Number | str,
             lo_closed: bool = True, hi_closed: bool = True) -> "Interval":
        return Interval(rat(lo), rat(hi), lo_closed, hi_closed)

    @staticmethod
    def point(t: Number | str) -> "Interval":
        t = rat(t)
        return Interval(t, t, True, True)

    @property
    def start_cut(self) -> Cut:
        return (self.lo, 0 if self.lo_closed else 1)

    @property
    def end_cut(self) -> Cut:
        return (self.hi, 1 if self.hi_closed else 0)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, t: Number | str) -> bool:
        t = rat(t)
        return self.start_cut <= (t, 0) < self.end_cut


def _interval_from_cuts(start: Cut, end: Cut) -> Interval:
    return Interval(start[0], end[0], start[1] == 0, end[1] == 1)


def _range_keys(parts: Sequence[Interval]) -> list[tuple[int, int]]:
    """The integer keys 2·t·D + s of each part's start and end cuts (t, s),
    D the least common denominator of all the parts' endpoints."""
    ratios = [(p.lo.as_integer_ratio(), p.hi.as_integer_ratio()) for p in parts]
    den = lcm(*[d for (_, ld), (_, hd) in ratios for d in (ld, hd)])
    return [(2 * ln * (den // ld) + (not p.lo_closed), 2 * hn * (den // hd) + p.hi_closed)
            for p, ((ln, ld), (hn, hd)) in zip(parts, ratios)]


def _cut_le(a: Cut, b: Cut) -> bool:
    """a <= b, with the times compared as cross-multiplied integers."""
    (an, ad), (bn, bd) = a[0].as_integer_ratio(), b[0].as_integer_ratio()
    x, y = an * bd, bn * ad
    return x < y or (x == y and a[1] <= b[1])


def _merge_parts(parts: Iterable[Interval]) -> list[Interval]:
    """The union of the intervals as sorted, disjoint, non-adjacent intervals."""
    parts = list(parts)
    merged: list[list] = []  # [start key, end key, first part, part of the end]
    for start, end, _, part in sorted((*keys, i, p) for i, (keys, p)
                                      in enumerate(zip(_range_keys(parts), parts))):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1], merged[-1][3] = end, part
        else:
            merged.append([start, end, part, part])
    return [first if first is last else
            Interval(first.lo, last.hi, first.lo_closed, last.hi_closed)
            for _, _, first, last in merged]


@dataclass(frozen=True)
class Cell:
    """Normalized finite disjoint union of intervals; Cell() is the empty set."""

    parts: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        for prev, cur in zip(self.parts, self.parts[1:]):
            if _cut_le(cur.start_cut, prev.end_cut):
                raise DomainError("cell parts must be disjoint, sorted, non-adjacent")

    @staticmethod
    def from_intervals(intervals: Iterable[Interval]) -> "Cell":
        return Cell(tuple(_merge_parts(intervals)))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    @property
    def cut_ranges(self) -> list[tuple[Cut, Cut]]:
        return [(p.start_cut, p.end_cut) for p in self.parts]

    def contains(self, t: Number | str) -> bool:
        t = rat(t)
        return any(p.start_cut <= (t, 0) < p.end_cut for p in self.parts)

    def within(self, domain: Interval) -> bool:
        """True iff the cell is a subset of the interval (parts are sorted)."""
        return self.is_empty or (domain.start_cut <= self.parts[0].start_cut
                                 and self.parts[-1].end_cut <= domain.end_cut)

    def endpoints(self) -> list[Fraction]:
        out: list[Fraction] = []
        for p in self.parts:
            out.append(p.lo)
            out.append(p.hi)
        return out


def cell_intersect(a: Cell, b: Cell) -> Cell:
    """Set intersection of two cells (merge scan over cut ranges)."""
    out: list[tuple[Cut, Cut]] = []
    ra, rb = a.cut_ranges, b.cut_ranges
    i = j = 0
    while i < len(ra) and j < len(rb):
        start = max(ra[i][0], rb[j][0])
        end = min(ra[i][1], rb[j][1])
        if start < end:
            out.append((start, end))
        if ra[i][1] <= rb[j][1]:
            i += 1
        else:
            j += 1
    return Cell(tuple(_interval_from_cuts(s, e) for s, e in out))


def eta(a: Cell | Interval) -> Fraction:
    """Trace of Lebesgue measure: the total length of the cell."""
    if isinstance(a, Interval):
        return a.length
    return sum((p.length for p in a.parts), Fraction(0))


@dataclass(frozen=True)
class Partition:
    cells: tuple[Cell, ...]
    domain: Interval

    def __post_init__(self) -> None:
        if not self.cells:
            raise DomainError("partition needs at least one cell")
        if any(cell.is_empty for cell in self.cells):
            raise DomainError("partition cells must be nonempty")
        ranges = _range_keys([self.domain, *(p for cell in self.cells for p in cell.parts)])
        start, end = ranges.pop(0)
        ranges.sort()
        for (_, prev_end), (cur_start, _) in zip(ranges, ranges[1:]):
            if cur_start < prev_end:
                raise DomainError("partition cells overlap")
            if cur_start > prev_end:
                raise DomainError("partition cells leave a gap in the domain")
        if ranges[0][0] != start or ranges[-1][1] != end:
            raise DomainError("partition cells do not cover the domain exactly")


def _indexed_ranges(*partitions: Partition) -> list[list[tuple[int, int, int, Interval]]]:
    """Per partition, (start key, end key, cell index, part) for each of its
    parts, sorted by start; the keys of all the partitions share one
    denominator, so they order cuts across partitions."""
    owned = [[(k, part) for k, cell in enumerate(p.cells) for part in cell.parts]
             for p in partitions]
    keys = iter(_range_keys([part for parts in owned for _, part in parts]))
    return [sorted((*next(keys), k, part) for k, part in parts) for parts in owned]


def is_finer(fine: Partition, coarse: Partition) -> bool:
    """True iff every cell of `fine` lies inside some cell of `coarse`.

    The coarse ranges tile the domain and a cell's own ranges never touch,
    so a fine part lies in a coarse cell iff it lies in the one range that
    holds its start.
    """
    if fine.domain != coarse.domain:
        raise DomainError("partitions must share a domain")
    small, ranges = _indexed_ranges(fine, coarse)
    starts = [start for start, _, _, _ in ranges]
    owner: dict[int, int] = {}
    for start, end, cell, _ in small:
        _, big_end, k, _ = ranges[bisect_right(starts, start) - 1]
        if end > big_end or owner.setdefault(cell, k) != k:
            return False
    return True


def common_refinement(a: Partition, b: Partition) -> Partition:
    """Pairwise intersections with empty cells dropped.

    One sweep over both partitions' ranges meets every overlapping pair;
    cells come out in (cell of a, cell of b) order.
    """
    if a.domain != b.domain:
        raise DomainError("partitions must share a domain")
    ra, rb = _indexed_ranges(a, b)
    meets: dict[tuple[int, int], list[Interval]] = {}
    i = j = 0
    while i < len(ra) and j < len(rb):
        a_start, a_end, ka, pa = ra[i]
        b_start, b_end, kb, pb = rb[j]
        if max(a_start, b_start) < min(a_end, b_end):
            first = pa if a_start >= b_start else pb
            last = pa if a_end <= b_end else pb
            meets.setdefault((ka, kb), []).append(
                first if first is last else
                Interval(first.lo, last.hi, first.lo_closed, last.hi_closed))
        if a_end <= b_end:
            i += 1
        else:
            j += 1
    return Partition(tuple(Cell(tuple(meets[key])) for key in sorted(meets)), a.domain)


def partition_from_cuts(domain: Interval, cuts: Iterable[Number | str]) -> Partition:
    """Split the domain at interior cut times into interval cells.

    Cells are half-open [t_i, t_{i+1}) except that the first/last inherit the
    domain's own endpoint kinds; a Left atom at a cut is captured by the cell
    to its left and a Right atom by the cell to its right.
    """
    times = [rat(t) for t in cuts]
    den = lcm(domain.lo.denominator, domain.hi.denominator, *[t.denominator for t in times])
    lo, hi = (t.numerator * (den // t.denominator) for t in (domain.lo, domain.hi))
    inner = {t.numerator * (den // t.denominator): t for t in times}
    bounds: list[Cut] = [domain.start_cut]
    bounds += [(inner[key], 0) for key in sorted(inner) if lo < key < hi]
    bounds.append(domain.end_cut)
    cells = [Cell((_interval_from_cuts(s, e),)) for s, e in zip(bounds, bounds[1:])]
    return Partition(tuple(cells), domain)
