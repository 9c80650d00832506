"""Finitely additive measures of bounded variation on the interval algebra.

A measure is a step density integrated against the length measure eta plus
finitely many one-sided Dirac atoms.  A Left atom at t assigns its mass to
exactly the cells containing some interval (t - d, t); a Right atom to the
cells containing some (t, t + d).  Both vanish on every eta-null cell, so
the whole class is weakly absolutely continuous; point Diracs (which are
not) are deliberately unrepresentable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import CapacityError, DomainError
from .intervals import Cell, Interval, eta, Partition
from .piecewise import (
    LEFT,
    RIGHT,
    PiecewiseFn,
    integrate_eta,
    integrate_product,
    lin_comb,
    step_function,
    step_values,
)
from .rational import Number, is_exact, num_from_json, rat


class Side(enum.Enum):
    LEFT = "L"
    RIGHT = "R"

    @property
    def limit_side(self) -> str:
        return LEFT if self is Side.LEFT else RIGHT


@dataclass(frozen=True)
class SideAtom:
    loc: Fraction
    side: Side
    mass: Number

    @staticmethod
    def make(loc: Number | str, side: Side | str, mass: Number) -> "SideAtom":
        """side is a Side or, in any case, one of L, R, left and right."""
        if isinstance(side, str):
            names = {"l": Side.LEFT, "left": Side.LEFT, "r": Side.RIGHT, "right": Side.RIGHT}
            if side.lower() not in names:
                raise ValueError(f"atom side must be L, R, left or right, not {side!r}")
            side = names[side.lower()]
        if not isinstance(side, Side):
            raise TypeError(f"atom side must be L, R, left or right, not {side!r}")
        return SideAtom(rat(loc), side, mass)

    def captured_by(self, cell: Cell) -> bool:
        """True iff the cell contains a one-sided neighborhood of loc: a part
        with lo < loc <= hi for a Left atom, lo <= loc < hi for a Right one.
        The times are compared as cross-multiplied integers."""
        n, d = self.loc.as_integer_ratio()
        left = self.side is Side.LEFT
        for part in cell.parts:
            (ln, ld), (hn, hd) = part.lo.as_integer_ratio(), part.hi.as_integer_ratio()
            lo, t_lo, t_hi, hi = ln * d, n * ld, n * hd, hn * d
            if (lo < t_lo and t_hi <= hi) if left else (lo <= t_lo and t_hi < hi):
                return True
        return False

    @staticmethod
    def from_json(obj: dict) -> "SideAtom":
        return SideAtom.make(obj["loc"], obj["side"], num_from_json(obj["mass"]))


@dataclass(frozen=True)
class FAMeasure:
    density: PiecewiseFn
    atoms: tuple[SideAtom, ...] = ()

    def __post_init__(self) -> None:
        if not self.density.is_step:
            raise CapacityError("measure densities must be step functions")
        bps = self.density.breakpoints
        (an, ad), (bn, bd) = bps[0].as_integer_ratio(), bps[-1].as_integer_ratio()
        keys = set()
        prev = None
        for atom in self.atoms:
            n, d = atom.loc.as_integer_ratio()  # normalized, so equal locs give equal keys
            key = (n, d, atom.side.value)
            if key in keys:
                raise DomainError("duplicate atom key")
            keys.add(key)
            if prev is not None:
                x, y = prev[0] * d, n * prev[1]
                if y < x or (y == x and key[2] < prev[2]):
                    raise DomainError("atoms must be sorted by (loc, side)")
            prev = key
            above_t0, below_theta0 = an * d < n * ad, n * bd < bn * d
            if atom.side is Side.LEFT and not above_t0:
                raise DomainError("Left atom needs loc > t0")
            if atom.side is Side.RIGHT and not below_theta0:
                raise DomainError("Right atom needs loc < theta0")
            if n * ad < an * d or bn * d < n * bd:
                raise DomainError("atom outside domain")

    @staticmethod
    def sort_atoms(atoms: Iterable[SideAtom]) -> tuple[SideAtom, ...]:
        return tuple(sorted(atoms, key=lambda a: (a.loc, a.side.value)))

    @staticmethod
    def zero(domain: Interval) -> "FAMeasure":
        return FAMeasure(PiecewiseFn.constant(domain, 0))

    @staticmethod
    def dirac(loc: Number | str, side: Side | str, domain: Interval,
              mass: Number = 1) -> "FAMeasure":
        atom = SideAtom.make(loc, side, mass)
        return FAMeasure(PiecewiseFn.constant(domain, 0), (atom,))

    @property
    def domain(self) -> Interval:
        return self.density.domain

    @property
    def is_nonneg(self) -> bool:
        vals = [v for _, _, v in step_values(self.density)]
        vals += list(self.density.point_values)
        return all(v >= 0 for v in vals) and all(a.mass >= 0 for a in self.atoms)

    @property
    def is_exact(self) -> bool:
        return self.density.is_exact and all(is_exact(a.mass) for a in self.atoms)

    @staticmethod
    def from_json(obj: dict) -> "FAMeasure":
        atoms = FAMeasure.sort_atoms(SideAtom.from_json(a)
                                     for a in obj.get("atoms", []))
        return FAMeasure(PiecewiseFn.from_json(obj["density"]), atoms)


def measure_lin_comb(alpha: Number, mu: FAMeasure, beta: Number,
                     nu: FAMeasure) -> FAMeasure:
    """alpha*mu + beta*nu; atoms with equal (loc, side) merge by mass."""
    density = lin_comb(alpha, mu.density, beta, nu.density)
    masses: dict[tuple[Fraction, str], Number] = {}
    for factor, measure in ((alpha, mu), (beta, nu)):
        for atom in measure.atoms:
            key = (atom.loc, atom.side.value)
            masses[key] = masses.get(key, 0) + factor * atom.mass
    atoms = [SideAtom(loc, Side(side), m)
             for (loc, side), m in masses.items() if m != 0]
    return FAMeasure(density, FAMeasure.sort_atoms(atoms))


def eval_cell(mu: FAMeasure, a: Cell) -> Number:
    """mu(a): density integral plus the masses of captured atoms."""
    total = integrate_eta(mu.density, a)
    for atom in mu.atoms:
        if atom.captured_by(a):
            total += atom.mass
    return total


def variation(mu: FAMeasure) -> Number:
    """Total variation: integral of |density| plus the atoms' |mass| sum.

    An exact measure sums integer numerators over one common denominator.
    """
    steps = step_values(mu.density)
    if not mu.is_exact:
        total: Number = 0
        for lo, hi, value in steps:
            total += abs(value) * (hi - lo)
        for atom in mu.atoms:
            total += abs(atom.mass)
        return total
    terms = []
    for lo, hi, value in steps:
        (a, b), (c, d), (p, q) = (lo.as_integer_ratio(), hi.as_integer_ratio(),
                                  value.as_integer_ratio())
        terms.append((abs(p) * (c * b - a * d), q * b * d))
    terms += [(abs(n), d) for n, d in (atom.mass.as_integer_ratio() for atom in mu.atoms)]
    den = lcm(*[d for _, d in terms])
    return Fraction(sum(n * (den // d) for n, d in terms), den)


def membership_xi(mu: FAMeasure, b: Number) -> bool:
    """Is mu a nonnegative measure of total mass exactly b?"""
    if not mu.is_nonneg:
        return False
    return eval_cell(mu, Cell((mu.domain,))) == b


def integral(u: PiecewiseFn, mu: FAMeasure) -> Number:
    """Integral of a piecewise function against the measure."""
    if u.domain != mu.domain:
        raise DomainError("function and measure domains differ")
    return integral_over(u, mu, Cell((mu.domain,)))


def integral_over(u: PiecewiseFn, mu: FAMeasure, a: Cell) -> Number:
    """Integral restricted to a cell; atoms count iff the cell captures them."""
    total = integrate_product(u, mu.density, a)
    for atom in mu.atoms:
        if atom.captured_by(a):
            total += atom.mass * u.side_limit(atom.loc, atom.side.limit_side)
    return total


def indefinite(f: PiecewiseFn) -> FAMeasure:
    """The measure L -> integral of f over L, for a step density f."""
    return FAMeasure(f, ())


def averaging(mu: FAMeasure, partition: Partition) -> PiecewiseFn:
    """Cellwise-average step function: mu(L)/eta(L) on L, 0 on eta-null cells."""
    if not mu.is_nonneg:
        raise DomainError("averaging is defined on the nonnegative cone")
    if partition.domain != mu.domain:
        raise DomainError("partition and measure domains differ")
    cell_vals = []
    for cell in partition.cells:
        length = eta(cell)
        if length == 0:
            cell_vals.append((cell, 0))
        else:
            cell_vals.append((cell, eval_cell(mu, cell) / length))
    return step_function(partition.domain, cell_vals)
