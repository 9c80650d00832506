"""The one-pass mesh rows against the per-kernel builder they replaced.

reference_mesh_generators is the earlier _mesh_generators: it finds each
breakpoint's cell by Fraction arithmetic (reference_cell_pieces), prunes with
the per-kernel reference_kept_sites, converts each kernel's coefficients to
its own float table, and evaluates one kernel at a time, integrating split
cells exactly with bounds t0 + k step.  It is slow but plainly right.  The
rewrite must keep the same cells and return the same row bits.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from impulse_reach.attainability import _GL_NODES, _GL_WEIGHTS, _horner, _mesh_generators
from impulse_reach.cli import load_scenario
from impulse_reach.dynamics import (
    ConstraintSpec,
    ImpulseSystem,
    build_double_integrator,
    position_kernel,
    velocity_kernel,
)
from impulse_reach.intervals import Cell, Interval
from impulse_reach.piecewise import MAX_DEGREE, PiecewiseFn, integrate_eta

F = Fraction
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
MESHES = [1, 3, 64, 1024]


def reference_coefficient_table(kernel):
    """The kernel's pieces as float rows, low degree first, zero-padded to MAX_DEGREE."""
    table = np.zeros((len(kernel.pieces), MAX_DEGREE + 1))
    for i, coeffs in enumerate(kernel.pieces):
        table[i, :len(coeffs)] = [float(c) for c in coeffs]
    return table


def reference_cell_pieces(kernel, t0, step, mesh):
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


def reference_kept_sites(kernels, pieces, splits):
    drop = np.zeros(len(pieces[0]), dtype=bool)
    drop[1:-1] = True
    for kernel, piece, split in zip(kernels, pieces, splits):
        affine = np.array([len(cs) <= 2 for cs in kernel.pieces])[piece]
        drop[1:-1] &= ((piece[:-2] == piece[2:]) & affine[1:-1]
                       & ~(split[:-2] | split[1:-1] | split[2:]))
    return ~drop


def reference_mesh_generators(sys, cons, mesh):
    kernels = sys.pi + cons.s
    step = (sys.theta0 - sys.t0) / mesh
    pieces, splits = zip(*(reference_cell_pieces(kernel, sys.t0, step, mesh)
                           for kernel in kernels))
    kept = reference_kept_sites(kernels, pieces, splits)
    cells = np.flatnonzero(kept)
    a, d = sys.t0.numerator, sys.t0.denominator
    p, q = step.numerator, step.denominator
    mids = np.array([(2 * a * q + (2 * k + 1) * p * d) / (2 * d * q) for k in cells.tolist()])
    nodes = mids[:, None] + float(step) / 2 * _GL_NODES
    b = float(sys.b)
    length = float(step)
    rows = np.empty((cells.size, len(kernels)))
    for j, (kernel, piece, split) in enumerate(zip(kernels, pieces, splits)):
        values = _horner(reference_coefficient_table(kernel)[piece[cells]][:, None, :], nodes)
        centre = values[:, 1:2]
        rows[:, j] = b * (centre[:, 0] + ((values - centre) * (_GL_WEIGHTS / 2)).sum(axis=1))
        for i in np.flatnonzero(split[cells]).tolist():
            k = int(cells[i])
            cell = Cell((Interval(sys.t0 + k * step, sys.t0 + (k + 1) * step),))
            rows[i, j] = b * float(integrate_eta(kernel, cell)) / length
    return kept, rows


def assert_same_rows(sys, cons, mesh):
    kept, rows = _mesh_generators(sys, cons, mesh)
    ref_kept, ref_rows = reference_mesh_generators(sys, cons, mesh)
    assert kept.tolist() == ref_kept.tolist()
    assert rows.shape == ref_rows.shape
    assert rows.tobytes() == ref_rows.tobytes()
    return kept


@pytest.mark.parametrize("mesh", MESHES)
@pytest.mark.parametrize("name", ["zigzag", "velocity_pin"])
def test_rows_match_the_per_kernel_builder_on_the_scenarios(name, mesh):
    sys, cons, _ = load_scenario(SCENARIOS / f"{name}.json")
    assert_same_rows(sys, cons, mesh)


def family_member(rng, thrust):
    """A bench family member: thrust pieces before and after a switch time,
    and position and velocity kernels at 7 times, all in thousandths."""
    switch = F(rng.randint(100, 900), 1000)
    c = PiecewiseFn.build([0, switch, 1], thrust)
    sys, _ = build_double_integrator(c, 1, 1, 1)
    kernels = []
    for t in sorted(F(k, 1000) for k in rng.sample(range(50, 951), 7)):
        kernels += [position_kernel(c, t), velocity_kernel(c, t)]
    w = F(rng.randint(125, 500), 1000)
    return sys, ConstraintSpec(tuple(kernels), (((-w, w),) * 14,))


@pytest.mark.parametrize("workload,mesh", [("fine-mesh", 1024), ("wide-fan", 64)])
def test_rows_match_the_per_kernel_builder_on_family_members(workload, mesh):
    rng = random.Random(f"family {workload}")
    for _ in range(16):
        assert_same_rows(*family_member(rng, [[1], [-1]]), mesh)


@pytest.mark.parametrize("mesh", MESHES)
def test_rows_match_the_per_kernel_builder_under_affine_thrust(mesh):
    # c = +-(1 - t): degree-2 position kernels, so no cell is pruned
    rng = random.Random(f"affine thrust {mesh}")
    for _ in range(3):
        kept = assert_same_rows(*family_member(rng, [[1, -1], [-1, 1]]), mesh)
        assert kept.all()


def cut_kernel(rng, domain, mesh, exact):
    """A kernel cut on mesh points, off them, and at the start of the last
    cell or inside it; each piece of degree 0, 1 or MAX_DEGREE."""
    step = (domain.hi - domain.lo) / mesh
    on = [domain.lo + rng.randrange(1, mesh) * step for _ in range(2)] if mesh > 1 else []
    off = [domain.lo + f * (domain.hi - domain.lo) for f in (F(1, 7), F(3, 11), F(5, 13))]
    last = [domain.hi - step / 3] + ([domain.hi - step] if mesh > 1 else [])
    cuts = rng.sample(on + off, rng.randint(0, len(on + off))) + [rng.choice(last)]
    bps = sorted({domain.lo, domain.hi, *cuts})
    pieces = [[F(rng.randint(-30, 30), rng.choice((3, 7, 10))) if exact
               else rng.uniform(-3.0, 3.0) for _ in range(rng.choice((1, 2, 2, MAX_DEGREE + 1)))]
              for _ in bps[1:]]
    return PiecewiseFn.build(bps, pieces)


@pytest.mark.parametrize("mesh", MESHES)
@pytest.mark.parametrize("exact", [True, False])
def test_rows_match_the_per_kernel_builder_on_cut_kernels(exact, mesh):
    domain = Interval(F(1, 3), F(7, 5))
    rng = random.Random(f"cuts {exact} {mesh}")
    dropped = 0
    for _ in range(20):
        kernels = [cut_kernel(rng, domain, mesh, exact) for _ in range(4)]
        sys = ImpulseSystem(domain.lo, domain.hi, F(3, 2), tuple(kernels[:2]))
        cons = ConstraintSpec(tuple(kernels[2:]), (((None, None),) * 2,))
        dropped += assert_same_rows(sys, cons, mesh).tolist().count(False)
    assert dropped > 0 or mesh <= 3
