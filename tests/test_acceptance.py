"""Acceptance suite: one test per release criterion, each printing a
PASS line with its elapsed time (run with `pytest -s` to see them live).
"""

import json
import time
from fractions import Fraction

from impulse_reach.attainability import (
    PlanarSet,
    ReachConfig,
    coincidence_check,
    hausdorff_distance,
    relaxed_reach,
    universal_mp,
)
from impulse_reach.cli import dump_json, main
from impulse_reach.dynamics import ConstraintSpec, build_double_integrator, gen_moments, moments
from impulse_reach.intervals import Cell, Interval, partition_from_cuts
from impulse_reach.measures import (
    averaging,
    eval_cell,
    indefinite,
    integral,
    measure_lin_comb,
    variation,
)
from impulse_reach.piecewise import (
    PiecewiseFn,
    integrate_eta,
    lin_comb,
    multiply,
    scale,
    sup_norm,
)
from impulse_reach.rational import num_from_json

from conftest import UNIT, rand_cell, rand_cuts, rand_measure, rand_partition, rand_step

import random

F = Fraction

ZIGZAG_C = {"breakpoints": ["0", "1/2", "1"], "pieces": [[1], [-1]],
            "point_values": [1, -1, -1]}
CONST_C = {"breakpoints": ["0", "1"], "pieces": [[1]], "point_values": [1, 1]}


class timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"{self.label} took {self.elapsed:.2f}s, budget {self.budget}s")
            print(f"ACCEPTANCE {self.label}: PASS ({self.elapsed:.2f}s)")


def frac(v):
    return Fraction(num_from_json(v))


def test_criterion_1_zigzag_exact(tmp_path):
    with timer("1 zigzag-reproduction", 1.0):
        scenario = tmp_path / "zigzag.json"
        scenario.write_text(dump_json(
            {"domain": {"t0": "0", "theta0": "1"}, "b": 1, "c": ZIGZAG_C}))
        out = tmp_path / "out.json"
        assert main(["short-impulse", "--scenario", str(scenario),
                     "--out", str(out)]) == 0
        got = json.loads(out.read_text())["set"]

        points = sorted(tuple(frac(c) for c in p) for p in got["points"])
        assert points == [(0, -1), (1, 1)]

        assert len(got["segments"]) == 1
        seg = sorted(tuple(frac(c) for c in p) for p in got["segments"][0])
        assert seg == [(-F(1, 2), -1), (F(1, 2), 1)]
        # alpha-parametrized check of the jump segment {(a-1/2, 2a-1)}
        lo, hi = seg
        for alpha in (F(0), F(1, 3), F(1, 2), F(1)):
            pt = tuple(l + alpha * (h - l) for l, h in zip(lo, hi))
            assert pt == (alpha - F(1, 2), 2 * alpha - 1)

        arcs = got["arcs"]
        assert len(arcs) == 2
        assert [frac(v) for v in arcs[0]["param"]] == [0, F(1, 2)]
        assert [frac(v) for v in arcs[0]["coeffs_x"]] == [1, -1]   # 1 - t
        assert [frac(v) for v in arcs[0]["coeffs_y"]] == [1]
        assert [frac(v) for v in arcs[1]["param"]] == [F(1, 2), 1]
        assert [frac(v) for v in arcs[1]["coeffs_x"]] == [-1, 1]   # t - 1
        assert [frac(v) for v in arcs[1]["coeffs_y"]] == [-1]


def test_criterion_2_averaging_exactness():
    with timer("2 averaging-exactness", 5.0):
        rng = random.Random(2)
        full = Cell((UNIT,))
        for case in range(100):
            exact = case % 2 == 0
            mu = rand_measure(rng, exact=exact, nonneg=True)
            h = rand_step(rng, exact=exact)
            cuts = set(h.breakpoints[1:-1]) | {a.loc for a in mu.atoms}
            cuts |= set(rand_cuts(rng, UNIT, 3))
            partition = partition_from_cuts(UNIT, cuts)
            theta = averaging(mu, partition)
            lhs = integrate_eta(multiply(h, theta), full)
            rhs = integral(h, mu)
            if exact:
                assert lhs == rhs
            else:
                assert abs(lhs - rhs) <= 1e-12


def test_criterion_3_finite_additivity():
    with timer("3 finite-additivity", 5.0):
        rng = random.Random(3)
        for _ in range(1000):
            mu = rand_measure(rng)
            cell = rand_cell(rng)
            # random split of the cell into a disjoint covering family
            pieces = []
            for part in cell.parts:
                if part.lo == part.hi:
                    pieces.append(part)
                    continue
                sub = partition_from_cuts(part, rand_cuts(rng, part, 2))
                pieces.extend(p for c in sub.cells for p in c.parts)
            if not pieces:
                assert eval_cell(mu, cell) == 0
                continue
            k = rng.randint(1, len(pieces))
            buckets = [[] for _ in range(k)]
            for i, part in enumerate(pieces):
                buckets[i % k].append(part)
            subs = [Cell.from_intervals(b) for b in buckets if b]
            assert sum((eval_cell(mu, s) for s in subs), F(0)) == eval_cell(mu, cell)


def test_criterion_4_integral_bound_and_bilinearity():
    with timer("4 integral-bound-bilinearity", 30.0):
        rng = random.Random(4)
        for case in range(1000):
            exact = case % 2 == 0
            u = rand_step(rng, exact=exact)
            mu = rand_measure(rng, exact=exact)
            assert abs(integral(u, mu)) <= sup_norm(u) * variation(mu) + (
                0 if exact else 1e-12)
            v = rand_step(rng, exact=exact)
            nu = rand_measure(rng, exact=exact)
            a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3), 2)
            lhs_u = integral(lin_comb(a, u, b, v), mu)
            rhs_u = a * integral(u, mu) + b * integral(v, mu)
            lhs_m = integral(u, measure_lin_comb(a, mu, b, nu))
            rhs_m = a * integral(u, mu) + b * integral(u, nu)
            if exact:
                assert lhs_u == rhs_u and lhs_m == rhs_m
            else:
                assert abs(lhs_u - rhs_u) <= 1e-12
                assert abs(lhs_m - rhs_m) <= 1e-12


def test_criterion_5_refinement_direction():
    with timer("5 refinement-direction", 30.0):
        from impulse_reach.intervals import common_refinement, is_finer
        rng = random.Random(5)
        for _ in range(500):
            a = rand_partition(rng)
            b = rand_partition(rng)
            r = common_refinement(a, b)
            assert is_finer(r, a) and is_finer(r, b)
        for _ in range(150):
            p1 = rand_partition(rng, max_cuts=3)
            p2 = common_refinement(p1, rand_partition(rng, max_cuts=3))
            p3 = common_refinement(p2, rand_partition(rng, max_cuts=3))
            assert is_finer(p2, p1) and is_finer(p3, p2) and is_finer(p3, p1)


def test_criterion_6_reach_convergence():
    with timer("6 reach-convergence", 30.0):
        c = PiecewiseFn.from_json(CONST_C)
        sys, _ = build_double_integrator(c, 1, 1, 1)
        cons = ConstraintSpec.unconstrained()

        ps4 = relaxed_reach(sys, cons, ReachConfig(4, 0.01, 360))
        assert len(ps4.segments) == 1
        seg = sorted(ps4.segments[0])
        assert [Fraction(coord) for coord in seg[0]] == [F(1, 8), 1]
        assert [Fraction(coord) for coord in seg[1]] == [F(7, 8), 1]

        limit = PlanarSet(segments=(((0.0, 1.0), (1.0, 1.0)),))
        prev = float("inf")
        for mesh in (4, 16, 64, 256):
            ps = relaxed_reach(sys, cons, ReachConfig(mesh, 0.01, 360))
            d = hausdorff_distance(ps, limit)
            assert d <= 1.0 / mesh + 1e-9
            assert d <= prev + 1e-12
            prev = d


def test_criterion_7_theorem_coincidence():
    with timer("7 universal-coincidence", 60.0):
        c = PiecewiseFn.from_json(CONST_C)
        sys, (_, s2) = build_double_integrator(c, 1, "1/2", 1)
        cons = ConstraintSpec((s2,), (((0, 0),),), frozenset({1}))
        report = coincidence_check(
            sys, cons, [(64, 0.05), (128, 0.01), (256, 0.002)], t_grid_size=129)
        gaps = [max(e["d_full_universal"], e["d_partial_universal"])
                for e in report["entries"]]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert all(e["partial_inside_full"] for e in report["entries"])
        final = report["entries"][-1]
        assert final["d_full_partial"] <= 0.01
        assert final["d_full_universal"] <= 0.01
        assert final["d_partial_universal"] <= 0.01
        # both relaxations converge to the limit segment (0,1)-(1/2,1)
        limit = PlanarSet(segments=(((0.0, 1.0), (0.5, 1.0)),))
        mp = universal_mp(sys, cons, 129, 360)
        assert hausdorff_distance(mp, limit) <= 1e-9


def test_criterion_8_null_set_vanishing():
    with timer("8 null-set-vanishing", 30.0):
        rng = random.Random(8)
        for case in range(500):
            mu = rand_measure(rng, exact=case % 2 == 0)
            pts = {F(rng.randint(0, 64), 64) for _ in range(rng.randint(1, 4))}
            null = Cell.from_intervals([Interval(t, t) for t in pts])
            assert eval_cell(mu, null) == 0


def test_criterion_9_factorization():
    with timer("9 factorization", 30.0):
        rng = random.Random(9)
        c = PiecewiseFn.build(["0", "1/2", "1"], [[1], [-1]], [1, -1, -1])
        sys, (s1, s2) = build_double_integrator(c, "3/4", "1/2", 1)
        cons = ConstraintSpec((s1, s2), (((None, None), (None, None)),),
                              frozenset())
        done = 0
        while done < 200:
            f = rand_step(rng, nonneg=True)
            total = integrate_eta(f, Cell((UNIT,)))
            if total == 0:
                continue
            f = scale(F(1) / total, f)
            assert gen_moments(indefinite(f), sys, cons) == moments(f, sys, cons)
            done += 1


def test_criterion_10_determinism(tmp_path):
    import subprocess
    import sys as _sys
    from pathlib import Path

    import impulse_reach

    # the children import the package from where this process found it
    # (``src`` under ``PYTHONPATH=src``, or the install location)
    import_root = str(Path(impulse_reach.__file__).parents[1])

    with timer("10 determinism", 30.0):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(dump_json({
            "domain": {"t0": "0", "theta0": "1"}, "b": 1, "c": CONST_C,
            "constraints": {"builders": [{"kind": "velocity", "t": "1/2"}],
                            "Y": [[["0", "0"]]], "J": [1]},
            "task": {"mesh": 32, "epsilon": "1/100", "directions": 90,
                     "t_grid": 33},
        }))
        for command in ("reach", "mp", "short-impulse"):
            outs = []
            svgs = []
            for run in (1, 2):
                out = tmp_path / f"{command}-{run}.json"
                svg = tmp_path / f"{command}-{run}.svg"
                # separate processes with different hash seeds
                proc = subprocess.run(
                    [_sys.executable, "-m", "impulse_reach.cli", command,
                     "--scenario", str(scenario), "--out", str(out),
                     "--svg", str(svg), "--seed", "42"],
                    env={"PYTHONHASHSEED": str(run), "PATH": "/usr/bin:/bin",
                         "PYTHONPATH": import_root},
                    capture_output=True)
                assert proc.returncode == 0, proc.stderr
                outs.append(out.read_bytes())
                svgs.append(svg.read_bytes())
            assert outs[0] == outs[1]
            assert svgs[0] == svgs[1]
