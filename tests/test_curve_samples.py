"""The integer-keyed mp sampler against the Fraction sampler it replaced.

reference_samples is the earlier _augmented_curve_samples: it merges the
grid times and the kernel breakpoints as Fractions, finds each one-sided
limit's piece by bisect, rounds each kept time by float(t), and evaluates
one kernel at a time from that kernel's own float table.  It is slow
but plainly right.  The rewrite must hand _kept_sites the same pieces and
return the same kept mask and the same row bits.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from impulse_reach import attainability
from impulse_reach.attainability import (
    _augmented_curve_samples,
    _horner,
    _kept_sites,
)
from impulse_reach.cli import load_scenario
from impulse_reach.dynamics import (
    ConstraintSpec,
    ImpulseSystem,
    build_double_integrator,
    position_kernel,
    velocity_kernel,
)
from impulse_reach.intervals import Interval
from impulse_reach.piecewise import LEFT, MAX_DEGREE, RIGHT, PiecewiseFn

F = Fraction
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
T_GRIDS = [2, 3, 65, 129]
DOMAINS = [Interval(F(0), F(1)), Interval(F(1, 3), F(7, 5))]
DOMAIN_IDS = ["unit", "offset"]
# fractions of the domain where kernels break: three off every grid, and two
# on the grids of 65 and 129 times (1/2 also on the grid of 3)
CUTS = (F(1, 7), F(3, 11), F(5, 13), F(1, 4), F(1, 2))


def reference_coefficient_table(kernel):
    """The kernel's pieces as float rows, low degree first, zero-padded to MAX_DEGREE."""
    table = np.zeros((len(kernel.pieces), MAX_DEGREE + 1))
    for i, coeffs in enumerate(kernel.pieces):
        table[i, :len(coeffs)] = [float(c) for c in coeffs]
    return table


def reference_samples(sys, cons, t_grid_size):
    kernels = sys.pi + cons.s
    times = {sys.t0 + Fraction(k, t_grid_size - 1) * (sys.theta0 - sys.t0)
             for k in range(t_grid_size)}
    for kernel in kernels:
        times.update(kernel.breakpoints)
    samples = [(t, side) for t in sorted(times) for side in (LEFT, RIGHT)][1:-1]
    pieces = [np.array([(bisect_left(kernel.breakpoints, t) if side == LEFT
                         else bisect_right(kernel.breakpoints, t)) - 1 for t, side in samples])
              for kernel in kernels]
    kept = attainability._kept_sites(kernels, pieces,
                                     [np.zeros(len(samples), dtype=bool)] * len(kernels))
    at = np.array([float(t) for (t, _), keep in zip(samples, kept.tolist()) if keep])
    b = float(sys.b)
    rows = np.empty((at.size, len(kernels)))
    for j, (kernel, piece) in enumerate(zip(kernels, pieces)):
        rows[:, j] = b * _horner(reference_coefficient_table(kernel)[piece[kept]], at)
    return kept, rows


def sampled(sampler, sys, cons, t_grid_size):
    """The pieces the sampler hands _kept_sites, its kept mask, and its rows' bits."""
    seen = []

    def record(kernels, pieces, splits):
        seen.append([piece.tolist() for piece in pieces])
        return _kept_sites(kernels, pieces, splits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attainability, "_kept_sites", record)
        kept, rows = sampler(sys, cons, t_grid_size)
    return seen, kept.tolist(), rows.shape, rows.tobytes()


def assert_same_samples(sys, cons, t_grid_size):
    got = sampled(_augmented_curve_samples, sys, cons, t_grid_size)
    assert got == sampled(reference_samples, sys, cons, t_grid_size)
    return got


@pytest.mark.parametrize("t_grid_size", T_GRIDS)
@pytest.mark.parametrize("name", ["zigzag", "velocity_pin"])
def test_samples_match_the_fraction_sampler_on_the_scenarios(name, t_grid_size):
    sys, cons, _ = load_scenario(SCENARIOS / f"{name}.json")
    assert_same_samples(sys, cons, t_grid_size)


@pytest.mark.parametrize("t_grid_size", T_GRIDS)
def test_samples_match_the_fraction_sampler_on_family_members(t_grid_size):
    # the bench family: thrust +1 then -1 from a switch time, and position
    # and velocity kernels at 7 times, all in thousandths; the multiples of
    # 1/8 among them lie on the grids of 65 and 129 times
    rng = random.Random(f"family {t_grid_size}")
    for _ in range(16):
        switch = F(rng.randint(100, 900), 1000)
        c = PiecewiseFn.build([0, switch, 1], [[1], [-1]])
        sys, _ = build_double_integrator(c, 1, 1, 1)
        kernels = []
        for t in sorted(F(k, 1000) for k in rng.sample(range(50, 951), 7)):
            kernels += [position_kernel(c, t), velocity_kernel(c, t)]
        w = F(rng.randint(125, 500), 1000)
        assert_same_samples(sys, ConstraintSpec(tuple(kernels), (((-w, w),) * 14,)),
                            t_grid_size)


def cut_kernel(rng, domain, exact):
    """A kernel cut at some of CUTS, each piece of degree 0, 1 or MAX_DEGREE."""
    cuts = [domain.lo + f * (domain.hi - domain.lo)
            for f in rng.sample(CUTS, rng.randint(0, len(CUTS)))]
    bps = sorted({domain.lo, domain.hi, *cuts})
    pieces = [[F(rng.randint(-30, 30), rng.choice((3, 7, 10))) if exact
               else rng.uniform(-3.0, 3.0) for _ in range(rng.choice((1, 2, 2, MAX_DEGREE + 1)))]
              for _ in bps[1:]]
    return PiecewiseFn.build(bps, pieces)


@pytest.mark.parametrize("t_grid_size", T_GRIDS)
@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_samples_match_the_fraction_sampler_on_cut_kernels(domain, exact, t_grid_size):
    rng = random.Random(f"cuts {domain} {exact} {t_grid_size}")
    dropped = 0
    for _ in range(20):
        kernels = [cut_kernel(rng, domain, exact) for _ in range(4)]
        sys = ImpulseSystem(domain.lo, domain.hi, F(3, 2), tuple(kernels[:2]))
        cons = ConstraintSpec(tuple(kernels[2:]), (((None, None),) * 2,))
        _, kept, _, _ = assert_same_samples(sys, cons, t_grid_size)
        dropped += kept.count(False)
    assert dropped > 0 or t_grid_size <= 3
