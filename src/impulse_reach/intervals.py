"""Exact interval set algebra, cells and partitions of the time domain.

An Interval is one of the four endpoint-kind intervals in [t0, theta0]; a
Cell is a normalized finite disjoint union of intervals; a Partition is a
finite disjoint cover of the domain by cells.  All endpoints are exact
rationals, so intersection, the length measure eta and the refinement
direction are computed without tolerances.

Internally every interval is handled as a half-open range of "cuts": a cut
(t, 0) sits immediately at/below the point t and (t, 1) immediately above
it.  [lo, hi) becomes [(lo, 0), (hi, 0)); {t} becomes [(t, 0), (t, 1)).
Set operations then reduce to merge scans over sorted cut ranges.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

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
        if not self.lo < self.hi:
            if self.lo > self.hi:
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


def _merge_ranges(ranges: list[tuple[Cut, Cut]]) -> list[tuple[Cut, Cut]]:
    """Sort, drop empties, and merge overlapping/adjacent cut ranges."""
    ranges = sorted(r for r in ranges if r[0] < r[1])
    merged: list[tuple[Cut, Cut]] = []
    for start, end in ranges:
        if merged and start <= merged[-1][1]:
            prev_start, prev_end = merged[-1]
            merged[-1] = (prev_start, max(prev_end, end))
        else:
            merged.append((start, end))
    return merged


@dataclass(frozen=True)
class Cell:
    """Normalized finite disjoint union of intervals; Cell() is the empty set."""

    parts: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        for prev, cur in zip(self.parts, self.parts[1:]):
            if cur.start_cut <= prev.end_cut:
                raise DomainError("cell parts must be disjoint, sorted, non-adjacent")

    @staticmethod
    def from_intervals(intervals: Iterable[Interval]) -> "Cell":
        ranges = _merge_ranges([(iv.start_cut, iv.end_cut) for iv in intervals])
        return Cell(tuple(_interval_from_cuts(s, e) for s, e in ranges))

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
        ranges: list[tuple[Cut, Cut]] = []
        for cell in self.cells:
            if cell.is_empty:
                raise DomainError("partition cells must be nonempty")
            ranges.extend(cell.cut_ranges)
        ranges.sort()
        for (_, prev_end), (cur_start, _) in zip(ranges, ranges[1:]):
            if cur_start < prev_end:
                raise DomainError("partition cells overlap")
            if cur_start > prev_end:
                raise DomainError("partition cells leave a gap in the domain")
        if ranges[0][0] != self.domain.start_cut or ranges[-1][1] != self.domain.end_cut:
            raise DomainError("partition cells do not cover the domain exactly")


def _indexed_ranges(p: Partition) -> list[tuple[Cut, Cut, int]]:
    """Every cut range of the partition with its cell index, sorted by start."""
    return sorted(((start, end, k) for k, cell in enumerate(p.cells)
                   for start, end in cell.cut_ranges), key=lambda r: r[0])


def is_finer(fine: Partition, coarse: Partition) -> bool:
    """True iff every cell of `fine` lies inside some cell of `coarse`.

    The coarse ranges tile the domain and a cell's own ranges never touch,
    so a fine part lies in a coarse cell iff it lies in the one range that
    holds its start.
    """
    if fine.domain != coarse.domain:
        raise DomainError("partitions must share a domain")
    ranges = _indexed_ranges(coarse)
    starts = [start for start, _, _ in ranges]
    for small in fine.cells:
        owner = None
        for start, end in small.cut_ranges:
            _, big_end, k = ranges[bisect_right(starts, start) - 1]
            if end > big_end or owner not in (None, k):
                return False
            owner = k
    return True


def common_refinement(a: Partition, b: Partition) -> Partition:
    """Pairwise intersections with empty cells dropped.

    One sweep over both partitions' ranges meets every overlapping pair;
    cells come out in (cell of a, cell of b) order.
    """
    if a.domain != b.domain:
        raise DomainError("partitions must share a domain")
    ra, rb = _indexed_ranges(a), _indexed_ranges(b)
    meets: dict[tuple[int, int], list[Interval]] = {}
    i = j = 0
    while i < len(ra) and j < len(rb):
        start = max(ra[i][0], rb[j][0])
        end = min(ra[i][1], rb[j][1])
        if start < end:
            meets.setdefault((ra[i][2], rb[j][2]), []).append(
                _interval_from_cuts(start, end))
        if ra[i][1] <= rb[j][1]:
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
    inner = sorted({t for t in map(rat, cuts) if domain.lo < t < domain.hi})
    bounds: list[Cut] = [domain.start_cut]
    bounds += [(t, 0) for t in inner]
    bounds.append(domain.end_cut)
    cells = [Cell((_interval_from_cuts(s, e),)) for s, e in zip(bounds, bounds[1:])]
    return Partition(tuple(cells), domain)
