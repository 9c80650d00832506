"""The impulse-controlled linear system and its moment maps.

Ordinary controls are nonnegative step functions of total impulse b; their
terminal and constraint moments are exact integrals against the pi / s
kernels.  Generalized controls are FAMeasures; the generalized moment maps
integrate the same kernels against the measure, and the double-integrator
trajectory is recovered by restricting the kernels to [t0, t].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import DomainError, PreconditionError
from .intervals import Cell, Interval
from .measures import FAMeasure, eval_cell, indefinite, integral, integral_over, membership_xi
from .piecewise import PiecewiseFn, indicator, integrate_product, multiply
from .rational import Number, is_exact, rat

MASS_TOL = 1e-9


@dataclass(frozen=True)
class ImpulseSystem:
    t0: Fraction
    theta0: Fraction
    b: Number
    pi: tuple[PiecewiseFn, ...]
    c: Optional[PiecewiseFn] = None

    def __post_init__(self) -> None:
        if self.t0 >= self.theta0:
            raise DomainError("need t0 < theta0")
        if not self.b > 0:
            raise DomainError("total impulse b must be positive")
        dom = Interval(self.t0, self.theta0)
        for kernel in self.pi:
            if kernel.domain != dom:
                raise DomainError("terminal kernels must share the time domain")
        if self.c is not None and self.c.domain != dom:
            raise DomainError("thrust orientation must share the time domain")

    @property
    def domain(self) -> Interval:
        return Interval(self.t0, self.theta0)

    @property
    def dim(self) -> int:
        return len(self.pi)


@dataclass(frozen=True)
class ConstraintSpec:
    s: tuple[PiecewiseFn, ...] = ()
    boxes: tuple[tuple[tuple[Optional[Number], Optional[Number]], ...], ...] = ()
    J: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.boxes:
            raise DomainError("need at least one target box")
        for box in self.boxes:
            if len(box) != len(self.s):
                raise DomainError("box coordinate count must match kernel count")
            for lo, hi in box:
                if lo is not None and hi is not None and lo > hi:
                    raise DomainError("empty box coordinate")
        for j in self.J:
            if not 1 <= j <= len(self.s):
                raise DomainError(f"J index {j} out of range")
            if not self.s[j - 1].is_step:
                raise DomainError(f"kernel {j} indexed by J must be a step function")

    @property
    def n_constraints(self) -> int:
        return len(self.s)

    @staticmethod
    def unconstrained() -> "ConstraintSpec":
        return ConstraintSpec((), ((),), frozenset())


def build_double_integrator(c: PiecewiseFn, t1: Number | str, t2: Number | str,
                            b: Number) -> tuple[ImpulseSystem, tuple[PiecewiseFn, PiecewiseFn]]:
    """Point-mass system on [0,1]: terminal kernels and the two intermediate
    condition kernels (position at t1, velocity at t2)."""
    dom = c.domain
    if dom != Interval(Fraction(0), Fraction(1)):
        raise DomainError("the built-in double integrator lives on [0,1]")
    t1, t2 = rat(t1), rat(t2)
    if not (dom.lo <= t1 <= dom.hi) or not (dom.lo <= t2 <= dom.hi):
        raise DomainError("t1 and t2 must lie in [0,1]")
    one_minus_t = PiecewiseFn.build([dom.lo, dom.hi], [[1, -1]])
    pi1 = multiply(one_minus_t, c)
    pi2 = c
    s1 = position_kernel(c, t1)
    s2 = velocity_kernel(c, t2)
    sys = ImpulseSystem(dom.lo, dom.hi, b, (pi1, pi2), c)
    return sys, (s1, s2)


def position_kernel(c: PiecewiseFn, t1: Number | str) -> PiecewiseFn:
    """(t1 - t) c(t) on [0, t1], zero after."""
    dom = c.domain
    t1 = rat(t1)
    linear = PiecewiseFn.build([dom.lo, dom.hi], [[t1, -1]])
    mask = _prefix_indicator(dom, t1)
    return multiply(multiply(linear, c), mask)


def velocity_kernel(c: PiecewiseFn, t2: Number | str) -> PiecewiseFn:
    """c(t) on [0, t2], zero after."""
    dom = c.domain
    t2 = rat(t2)
    return multiply(c, _prefix_indicator(dom, t2))


def _prefix_indicator(dom: Interval, t: Fraction) -> PiecewiseFn:
    return indicator(Cell((Interval(dom.lo, t),)), dom)


def _check_admissible(f: PiecewiseFn, sys: ImpulseSystem) -> None:
    if not f.is_step:
        raise PreconditionError("controls must be step functions")
    if f.domain != sys.domain:
        raise PreconditionError("control domain mismatch")
    if not _in_cone(indefinite(f), sys.b):
        raise PreconditionError("control is not nonnegative with total impulse b")


def moments(f: PiecewiseFn, sys: ImpulseSystem,
            cons: ConstraintSpec) -> tuple[tuple[Number, ...], tuple[Number, ...]]:
    """Terminal and constraint moment vectors of an ordinary control."""
    _check_admissible(f, sys)
    for kernel in cons.s:
        if kernel.domain != sys.domain:
            raise DomainError("constraint kernel domain mismatch")
    full = Cell((sys.domain,))
    term = tuple(integrate_product(k, f, full) for k in sys.pi)
    constr = tuple(integrate_product(k, f, full) for k in cons.s)
    return term, constr


def _in_cone(mu: FAMeasure, b: Number) -> bool:
    if mu.is_exact and is_exact(b):
        return membership_xi(mu, b)
    if not mu.is_nonneg:
        return False
    total = eval_cell(mu, Cell((mu.domain,)))
    return abs(total - b) <= MASS_TOL * b


def gen_moments(mu: FAMeasure, sys: ImpulseSystem,
                cons: ConstraintSpec) -> tuple[tuple[Number, ...], tuple[Number, ...]]:
    """Generalized moment vectors of a measure in the mass-b cone."""
    if not _in_cone(mu, sys.b):
        raise PreconditionError("measure is not a nonnegative mass-b control")
    term = tuple(integral(k, mu) for k in sys.pi)
    constr = tuple(integral(k, mu) for k in cons.s)
    return term, constr


def trajectory_eval(mu: FAMeasure, t: Number | str,
                    sys: ImpulseSystem) -> tuple[Number, Number]:
    """Double-integrator state (position, velocity) at time t from rest."""
    if sys.c is None:
        raise DomainError("trajectory evaluation needs the thrust orientation c")
    t = rat(t)
    if not (sys.t0 <= t <= sys.theta0):
        raise DomainError(f"{t} outside the time domain")
    window = Cell((Interval(sys.t0, t),))
    kernel = multiply(PiecewiseFn.build([sys.t0, sys.theta0], [[t, -1]]), sys.c)
    x1 = integral_over(kernel, mu, window)
    x2 = integral_over(sys.c, mu, window)
    return x1, x2
