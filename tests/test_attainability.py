import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from impulse_reach import attainability
from impulse_reach.attainability import (
    Arc,
    PlanarSet,
    ReachConfig,
    _GL_NODES,
    _GL_WEIGHTS,
    _augmented_curve_samples,
    _mesh_generators,
    _project,
    coincidence_check,
    convex_hull_2d,
    directed_distance,
    hausdorff_distance,
    hull_piece,
    relax_box,
    relaxed_reach,
    short_impulse_mp,
    universal_mp,
)
from impulse_reach.cli import load_scenario
from impulse_reach.dynamics import (
    ConstraintSpec,
    ImpulseSystem,
    build_double_integrator,
    position_kernel,
    velocity_kernel,
)
from impulse_reach.errors import DomainError, EmptySetError, NumericError
from impulse_reach.intervals import Interval, eta, partition_from_cuts
from impulse_reach.piecewise import LEFT, MAX_DEGREE, RIGHT, PiecewiseFn, integrate_eta
from impulse_reach.rational import fmt_rat, num_from_json

from conftest import INFEASIBLE, OPTIMAL, solve_lp

F = Fraction
UNIT = Interval.make(0, 1)
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def const_one() -> PiecewiseFn:
    return PiecewiseFn.constant(UNIT, 1)


def zigzag() -> PiecewiseFn:
    return PiecewiseFn.build(["0", "1/2", "1"], [[1], [-1]], [1, -1, -1])


def unconstrained_sys(c=None, b=1):
    sys, _ = build_double_integrator(c or const_one(), 1, 1, b)
    return sys, ConstraintSpec.unconstrained()


def velocity_constrained_sys():
    """c == 1, one step constraint chi_[0,1/2], target {0}, exact index 1."""
    sys, (_, s2) = build_double_integrator(const_one(), 1, "1/2", 1)
    cons = ConstraintSpec((s2,), (((0, 0),),), frozenset({1}))
    return sys, cons


def seg_endpoints(ps: PlanarSet):
    assert len(ps.segments) == 1 and not ps.polygons
    return sorted(ps.segments[0])


# -- geometry helpers -----------------------------------------------------------

def test_convex_hull_ccw_square():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.5, 0.0)]
    hull = convex_hull_2d(pts)
    assert hull == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def test_hull_keeps_both_ends_of_a_near_vertical_edge():
    # rounding to 12 digits would send the middle point 1e-10 right of the
    # edge from (10, 0) to (10, 1); the hull is taken before any rounding, so
    # the printed set keeps (10, 1), the true vertex
    ps = hull_piece([(10.000000000049998, 0), (10.000000000050002, 0.5),
                     (10.000000000049998, 1), (0, 0.5)])
    assert ps.to_json()["polygons"] == [[[0.0, 0.5], [10.0, 0.0], [10.0, 1.0]]]


def test_hull_keeps_a_corner_visited_twice_one_ulp_apart():
    # the sweep can visit one corner twice with coordinates 1 ulp apart;
    # each of the pair lies between the other and its next neighbour, but
    # one of them must stay
    corner = -0.3235292968750001
    hull = convex_hull_2d([(corner, -0.9999999999999999), (corner, -0.9999999999999998),
                           (-0.00048828125, -1.0), (0.4217348632812501, 0.391),
                           (-0.25046154502744944, -0.3910000000000002)])
    assert len(hull) == 4 and [x for x, _ in hull].count(corner) == 1


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 3e-7, 1.0, 1e6, 1e9])
def test_hull_scales_with_the_points(scale):
    cloud = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.25, 0.75), (0.5, 0.0),
             (0.75, 0.125)]
    hull = convex_hull_2d([(scale * x, scale * y) for x, y in cloud])
    assert hull == [(scale * x, scale * y) for x, y in convex_hull_2d(cloud)]
    assert len(hull) == 4


def test_hull_piece_degenerate_to_segment():
    ps = hull_piece([(0.125, 1.0), (0.375, 1.0), (0.875, 1.0)])
    assert seg_endpoints(ps) == [(0.125, 1.0), (0.875, 1.0)]


def test_point_to_segment_distance_sup_norm():
    def dist(p, a, b):
        return directed_distance(PlanarSet(points=(p,)), PlanarSet(segments=((a, b),)))

    assert dist((0, 0), (0, 0), (1, 0)) == 0
    assert dist((2, 0), (0, 0), (1, 0)) == 1
    assert dist((0.5, 0.3), (0, 0), (1, 0)) == pytest.approx(0.3)
    # diagonal segment, sup-norm projection
    assert dist((1, 0), (0, 0), (1, 1)) == pytest.approx(0.5)


# -- hausdorff ----------------------------------------------------------------

def test_hausdorff_identity():
    ps = PlanarSet(segments=(((0.0, 1.0), (1.0, 1.0)),))
    assert hausdorff_distance(ps, ps) == 0


def test_hausdorff_segment_to_point_sup_norm():
    seg = PlanarSet(segments=(((0.0, 0.0), (1.0, 0.0)),))
    pt = PlanarSet(points=((0.0, 0.0),))
    assert hausdorff_distance(seg, pt) == pytest.approx(1.0)


def test_hausdorff_empty_rejected():
    with pytest.raises(EmptySetError):
        hausdorff_distance(PlanarSet(), PlanarSet(points=((0.0, 0.0),)))


def square(lo, hi):
    return PlanarSet(polygons=(((lo, lo), (hi, lo), (hi, hi), (lo, hi)),))


def test_hausdorff_nested_squares_exact():
    # the far corner (2, 2) is at sup-distance 1 from the unit square
    assert hausdorff_distance(square(0.0, 1.0), square(0.0, 2.0)) == 1.0
    assert directed_distance(square(0.0, 1.0), square(0.0, 2.0)) == 0.0


def test_directed_triangle_to_segment_exact():
    tri = PlanarSet(polygons=(((0.0, 0.0), (4.0, 0.0), (1.0, 3.0)),))
    seg = PlanarSet(segments=(((0.0, 0.0), (2.0, 0.0)),))
    # corners: (0,0) -> 0, (4,0) -> 2, (1,3) -> 3 (straight down to (1,0))
    assert directed_distance(tri, seg) == 3.0
    # seg lies in the triangle
    assert directed_distance(seg, tri) == 0.0
    assert hausdorff_distance(tri, seg) == 3.0


def test_distance_rejects_arcs():
    arc = Arc(F(0), F(1), ((0, 1), (1,)))  # (t, 1) for t in (0, 1)
    pt = PlanarSet(points=((0.0, 0.0),))
    with pytest.raises(DomainError):
        hausdorff_distance(PlanarSet(arcs=(arc,)), pt)
    with pytest.raises(DomainError):
        directed_distance(pt, PlanarSet(arcs=(arc,)))


def test_distance_rejects_segment_against_union():
    seg = PlanarSet(segments=(((0.0, 0.0), (1.0, 0.0)),))
    two = PlanarSet(points=((0.0, 0.0),), segments=(((1.0, 0.0), (2.0, 0.0)),))
    with pytest.raises(DomainError):
        directed_distance(seg, two)
    with pytest.raises(DomainError):
        hausdorff_distance(two, seg)


def test_points_against_union_exact_min_max():
    pts = PlanarSet(points=((0.0, 3.0), (5.0, 0.5)))
    two = PlanarSet(points=((0.0, 0.0),), segments=(((4.0, 0.0), (6.0, 0.0)),))
    # (0, 3): min(3, 4) = 3; (5, 0.5): min(5, 0.5) = 0.5
    assert directed_distance(pts, two) == 3.0


@pytest.mark.parametrize("scale", [1.0, 1e-7, 1e-9])
def test_distances_scale_with_the_sets(scale):
    def diamond(r):
        return PlanarSet(polygons=(((r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)),))

    def point(x, y):
        return PlanarSet(points=((x, y),))

    def distances(lam):
        return [hausdorff_distance(square(0.0, 3 * lam), square(0.0, lam)),
                directed_distance(square(0.0, lam), square(0.0, 3 * lam)),
                directed_distance(point(2 * lam, lam / 2), square(0.0, lam)),
                directed_distance(point(lam / 2, lam / 4), square(0.0, lam)),
                directed_distance(point(lam, lam), diamond(lam))]

    unit = distances(1.0)
    assert unit == [2.0, 0.0, 1.0, 0.0, 0.5]
    for got, want in zip(distances(scale), unit):
        assert abs(got - scale * want) <= 1e-12 * scale * max(1.0, want)


# The corner rule that set distances used before the support-gap rule: the
# sup over each corner of a of the distance to b, found per point by an
# inside test with an absolute tolerance or the nearest edge's kinks.

def ref_point_segment_distance(p, a, b):
    d = [float(pi) - float(ai) for pi, ai in zip(p, a)]
    e = [float(bi) - float(ai) for bi, ai in zip(b, a)]
    candidates = {0.0, 1.0}
    for i in range(len(d)):
        if e[i] != 0.0:
            candidates.add(min(1.0, max(0.0, d[i] / e[i])))
        for j in range(i + 1, len(d)):
            for sj in (1.0, -1.0):
                denom = e[i] - sj * e[j]
                if denom != 0.0:
                    candidates.add(min(1.0, max(0.0, (d[i] - sj * d[j]) / denom)))
    return min(max(abs(di - s * ei) for di, ei in zip(d, e)) for s in candidates)


def ref_point_in_convex_polygon(p, poly, eps=1e-12):
    for a, b in zip(poly, list(poly[1:]) + [poly[0]]):
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -eps:
            return False
    return True


def ref_distance_to_set(p, ps):
    best = math.inf
    for q in ps.points:
        best = min(best, max(abs(qc - pc) for qc, pc in zip(q, p)))
    for a, b in ps.segments:
        best = min(best, ref_point_segment_distance(p, a, b))
    for poly in ps.polygons:
        if ref_point_in_convex_polygon(p, poly):
            return 0.0
        for a, b in zip(poly, list(poly[1:]) + [poly[0]]):
            best = min(best, ref_point_segment_distance(p, a, b))
    return best


def ref_directed_distance(a, b):
    return max(ref_distance_to_set(p, b) for p in set_corners(a).tolist())


def random_piece(rng, kind):
    def pt():
        return (rng.uniform(-3, 3), rng.uniform(-3, 3))

    if kind == "point":
        return PlanarSet(points=(pt(),))
    if kind == "segment":
        return PlanarSet(segments=((pt(), pt()),))
    hull = convex_hull_2d([pt() for _ in range(rng.randint(3, 8))])
    if len(hull) < 3:
        return random_piece(rng, kind)
    return PlanarSet(polygons=(tuple(hull),))


def test_support_gaps_match_the_corner_rule_on_random_pairs():
    rng = random.Random("support gaps")
    kinds = ("point", "segment", "polygon")
    pairs = []
    for a_kind, b_kind in itertools.product(kinds, kinds):
        pairs += [(random_piece(rng, a_kind), random_piece(rng, b_kind)) for _ in range(25)]
    for _ in range(40):
        points = PlanarSet(points=tuple(random_piece(rng, "point").points[0]
                                        for _ in range(rng.randint(1, 4))))
        union = PlanarSet()
        for _ in range(rng.randint(2, 4)):
            union = union.merge(random_piece(rng, rng.choice(kinds)))
        pairs.append((points, union))
    assert len(pairs) >= 200
    for a, b in pairs:
        extent = max(1.0, float(np.max(np.abs(set_corners(a.merge(b))))))
        assert abs(directed_distance(a, b) - ref_directed_distance(a, b)) <= 1e-12 * extent
        # the corner rule's inside test needs counterclockwise polygons; the
        # support gaps do not
        clockwise = PlanarSet(b.points, b.segments, b.arcs, tuple(p[::-1] for p in b.polygons))
        assert directed_distance(a, clockwise) == directed_distance(a, b)


# -- relaxed_reach --------------------------------------------------------------

def test_reach_unconstrained_mesh4_exact_segment():
    sys, cons = unconstrained_sys()
    ps = relaxed_reach(sys, cons, ReachConfig(4, 0.01, 64))
    # hand LP: all mass on the first/last mesh cell
    assert seg_endpoints(ps) == [(0.125, 1.0), (0.875, 1.0)]


def test_reach_inactive_constraints_match_unconstrained():
    sys, (s1, s2) = build_double_integrator(const_one(), 1, 1, 1)
    wide = ConstraintSpec((s1, s2), (((None, None), (None, None)),), frozenset())
    free = relaxed_reach(sys, ConstraintSpec.unconstrained(),
                         ReachConfig(8, 0.01, 64))
    constrained = relaxed_reach(sys, wide, ReachConfig(8, 0.01, 64))
    assert free == constrained


def test_reach_partial_forces_mass_off_prefix():
    sys, cons = velocity_constrained_sys()
    ps = relaxed_reach(sys, cons, ReachConfig(256, 0.002, 64, partial=True))
    limit = PlanarSet(segments=(((0.0, 1.0), (0.5, 1.0)),))
    assert hausdorff_distance(ps, limit) <= 0.01


def test_reach_infeasible_box_gives_empty_set():
    sys, (_, s2) = build_double_integrator(const_one(), 1, 1, 1)
    cons = ConstraintSpec((s2,), (((10, 11),),), frozenset())  # velocity is 1
    ps = relaxed_reach(sys, cons, ReachConfig(8, 0.01, 16))
    assert ps.is_empty


def test_reach_monotone_in_epsilon():
    sys, cons = velocity_constrained_sys()
    small = relaxed_reach(sys, cons, ReachConfig(64, 0.001, 90))
    large = relaxed_reach(sys, cons, ReachConfig(64, 0.01, 90))
    assert directed_distance(small, large) <= 1e-9


def test_reach_partial_inside_full():
    sys, cons = velocity_constrained_sys()
    full = relaxed_reach(sys, cons, ReachConfig(64, 0.01, 90))
    partial = relaxed_reach(sys, cons, ReachConfig(64, 0.01, 90, partial=True))
    assert directed_distance(partial, full) <= 1e-9


# -- universal_mp ----------------------------------------------------------------

def test_universal_unconstrained_full_segment():
    sys, cons = unconstrained_sys()
    ps = universal_mp(sys, cons, t_grid_size=65, directions=64)
    assert seg_endpoints(ps) == [(0.0, 1.0), (1.0, 1.0)]


def brute_force_two_atom_hull(sys, cons, grid=33):
    """Oracle: measures m1*delta_{t1,side} + m2*delta_{t2,side} on a grid."""
    pts = []
    times = [F(k, grid - 1) for k in range(grid)]
    atoms = []
    for t in times:
        if t > 0:
            atoms.append((t, LEFT))
        if t < 1:
            atoms.append((t, RIGHT))
    kernels = list(sys.pi) + list(cons.s)
    vals = {a: [float(k.side_limit(a[0], a[1])) for k in kernels] for a in atoms}
    n = sys.dim
    box = cons.boxes[0]
    masses = [F(k, 8) for k in range(9)]
    for a1, a2 in itertools.combinations_with_replacement(atoms, 2):
        for m1 in masses:
            m2 = 1 - m1
            joint = [float(m1) * v1 + float(m2) * v2
                     for v1, v2 in zip(vals[a1], vals[a2])]
            ok = True
            for (lo, hi), s in zip(box, joint[n:]):
                if lo is not None and s < float(lo) - 1e-9:
                    ok = False
                if hi is not None and s > float(hi) + 1e-9:
                    ok = False
            if ok:
                pts.append(tuple(joint[:n]))
    return pts


def test_universal_constrained_matches_two_atom_oracle():
    sys, cons = velocity_constrained_sys()
    ps = universal_mp(sys, cons, t_grid_size=65, directions=64)
    assert seg_endpoints(ps) == [(0.0, 1.0), (0.5, 1.0)]
    oracle_pts = brute_force_two_atom_hull(sys, cons)
    oracle = hull_piece(oracle_pts)
    assert hausdorff_distance(ps, oracle) <= 0.02


def test_universal_unreachable_target_empty():
    sys, (_, s2) = build_double_integrator(const_one(), 1, 1, 1)
    # |S2| <= b * sup|s2| = 1; a target at 10 is unattainable
    cons = ConstraintSpec((s2,), (((10, 10),),), frozenset())
    assert universal_mp(sys, cons, 33, 16).is_empty


def test_universal_raises_when_no_sample_meets_a_curved_constraint():
    # s(t) = (t - 1/3)^2 meets the target 0 only at t = 1/3, which no grid
    # samples; the sampled hull is empty although the target is feasible
    sys, _ = build_double_integrator(zigzag(), 1, 1, 1)
    s = PiecewiseFn.build([0, 1], [[F(1, 9), F(-2, 3), 1]])
    cons = ConstraintSpec((s,), (((0, 0),),), frozenset())
    for t_grid_size in (129, 1025):
        with pytest.raises(NumericError, match="cannot decide feasibility"):
            universal_mp(sys, cons, t_grid_size)
    # a target the samples meet keeps its set
    cons = ConstraintSpec((s,), (((0, 0.01),),), frozenset())
    assert not universal_mp(sys, cons, 129).is_empty


def test_universal_monotone_in_grid():
    sys, cons = velocity_constrained_sys()
    coarse = universal_mp(sys, cons, t_grid_size=17, directions=64)
    fine = universal_mp(sys, cons, t_grid_size=33, directions=64)  # nested grid
    assert directed_distance(coarse, fine) <= 1e-9


def test_universal_rejects_constraint_kernel_on_other_domain():
    sys, _ = unconstrained_sys()
    half = PiecewiseFn.constant(Interval.make(0, "1/2"), 1)
    cons = ConstraintSpec((half,), (((None, None),),), frozenset())
    with pytest.raises(DomainError, match="constraint kernel domain mismatch"):
        universal_mp(sys, cons, 17, 16)
    with pytest.raises(DomainError, match="constraint kernel domain mismatch"):
        relaxed_reach(sys, cons, ReachConfig(8, 0.01, 16))


def test_set_functions_reject_non_planar_systems():
    sys = ImpulseSystem(F(0), F(1), 1, (const_one(),) * 3)
    cons = ConstraintSpec.unconstrained()
    with pytest.raises(DomainError, match="planar"):
        relaxed_reach(sys, cons, ReachConfig(8, 0.01, 16))
    with pytest.raises(DomainError, match="planar"):
        universal_mp(sys, cons, 17, 16)
    with pytest.raises(DomainError, match="planar"):
        short_impulse_mp(sys)


# -- short_impulse_mp -------------------------------------------------------------

def test_zigzag_set_exact():
    sys, _ = build_double_integrator(zigzag(), 1, 1, 1)
    ps = short_impulse_mp(sys)
    assert sorted(ps.points) == [(0, -1), (1, 1)]
    assert len(ps.segments) == 1
    assert sorted(ps.segments[0]) == [(-F(1, 2), -1), (F(1, 2), 1)]
    assert len(ps.arcs) == 2
    first, second = ps.arcs
    assert (first.t_lo, first.t_hi) == (0, F(1, 2))
    assert first.coeffs == ((1, -1), (1,))
    assert (second.t_lo, second.t_hi) == (F(1, 2), 1)
    assert second.coeffs == ((-1, 1), (-1,))


def test_zigzag_segment_alpha_parametrization():
    sys, _ = build_double_integrator(zigzag(), 1, 1, 1)
    ps = short_impulse_mp(sys)
    a, b = ps.segments[0]
    ends = {a, b}
    # alpha = 0 and alpha = 1 states of the jump segment
    assert (-F(1, 2), -1) in ends and (F(1, 2), 1) in ends
    for alpha in (F(1, 4), F(1, 2), F(3, 4)):
        x = (alpha - F(1, 2), 2 * alpha - 1)
        hi = max(ends)
        lo = min(ends)
        interp = tuple(lo[i] + alpha * (hi[i] - lo[i]) for i in range(2))
        assert interp == x


def test_mass_drop_thrust_jump_segment():
    # thrust scale steps up from 1 to 2 at t = 1/2 (no sign reversal)
    c = PiecewiseFn.build(["0", "1/2", "1"], [[1], [2]], [1, 2, 2])
    sys, _ = build_double_integrator(c, 1, 1, 1)
    ps = short_impulse_mp(sys)
    assert sorted(ps.points) == [(0, 2), (1, 1)]
    assert sorted(ps.segments[0]) == [(F(1, 2), 1), (1, 2)]
    assert ps.arcs[0].coeffs == ((1, -1), (1,))
    assert ps.arcs[1].coeffs == ((2, -2), (2,))


def test_short_impulse_numeric_mode_floats():
    c = PiecewiseFn.build(["0", "1/2", "1"], [[1.0], [-1.0]], [1.0, -1.0, -1.0])
    sys, _ = build_double_integrator(c, 1, 1, 1)
    ps = short_impulse_mp(sys)
    assert sorted(ps.points) == [(0.0, -1.0), (1.0, 1.0)]
    assert sorted(ps.segments[0]) == [(-0.5, -1.0), (0.5, 1.0)]
    reach = relaxed_reach(sys, ConstraintSpec.unconstrained(),
                          ReachConfig(16, 0.01, 64))
    assert len(reach.polygons) == 1


def test_continuous_thrust_has_no_jump_segments():
    sys, _ = build_double_integrator(const_one(), 1, 1, 1)
    ps = short_impulse_mp(sys)
    assert not ps.segments
    assert len(ps.arcs) == 1
    assert sorted(ps.points) == [(0, 1), (1, 1)]


def test_short_impulse_scales_with_b():
    sys1, _ = build_double_integrator(zigzag(), 1, 1, 1)
    sys3, _ = build_double_integrator(zigzag(), 1, 1, 3)
    one = short_impulse_mp(sys1)
    three = short_impulse_mp(sys3)
    assert sorted(three.points) == [tuple(3 * c for c in p)
                                    for p in sorted(one.points)]
    assert sorted(three.segments[0]) == [tuple(3 * c for c in p)
                                         for p in sorted(one.segments[0])]
    for a1, a3 in zip(one.arcs, three.arcs):
        assert a3.coeffs == tuple(tuple(3 * c for c in cs) for cs in a1.coeffs)


def test_short_impulse_json_roundtrip():
    # the written set reads back exactly: rationals stay "p/q" strings
    sys, _ = build_double_integrator(zigzag(), 1, 1, 1)
    ps = short_impulse_mp(sys)
    obj = json.loads(json.dumps(ps.to_json()))

    def vec(p):
        return tuple(num_from_json(c) for c in p)

    back = PlanarSet(
        tuple(vec(p) for p in obj["points"]),
        tuple(tuple(vec(p) for p in seg) for seg in obj["segments"]),
        tuple(Arc(F(a["param"][0]), F(a["param"][1]),
                  (vec(a["coeffs_x"]), vec(a["coeffs_y"]))) for a in obj["arcs"]),
        tuple(tuple(vec(p) for p in poly) for poly in obj["polygons"]))
    assert back == ps


def test_arc_at_is_exact_on_rational_coefficients():
    sys, _ = build_double_integrator(zigzag(), 1, 1, 1)
    first, second = short_impulse_mp(sys).arcs
    # x = 1 - t, y = 1 on [0, 1/2]; x = -1 + t, y = -1 on [1/2, 1]
    assert first.at(F(1, 3)) == (F(2, 3), 1)
    assert second.at(F(5, 7)) == (-F(2, 7), -1)
    assert all(type(c) is not float for c in first.at(F(1, 3)) + second.at(F(5, 7)))


def assert_convex_ccw(poly):
    n = len(poly)
    assert n >= 3
    for i in range(n):
        o, a, b = poly[i], poly[(i + 1) % n], poly[(i + 2) % n]
        cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        assert cross >= -1e-9


def test_zigzag_universal_polygon():
    sys, _ = build_double_integrator(zigzag(), 1, 1, 1)
    cons = ConstraintSpec.unconstrained()
    mp = universal_mp(sys, cons, t_grid_size=65, directions=90)
    assert len(mp.polygons) == 1
    assert_convex_ccw(mp.polygons[0])
    assert set(mp.polygons[0]) == {(-0.5, -1.0), (0.0, -1.0), (1.0, 1.0), (0.5, 1.0)}


def test_reach_zigzag_polygon_converges_to_universal():
    sys, _ = build_double_integrator(zigzag(), 1, 1, 1)
    cons = ConstraintSpec.unconstrained()
    mp = universal_mp(sys, cons, t_grid_size=65, directions=90)
    prev = math.inf
    for mesh in (8, 32, 128):
        ps = relaxed_reach(sys, cons, ReachConfig(mesh, 0.01, 90))
        assert len(ps.polygons) == 1
        assert_convex_ccw(ps.polygons[0])
        d = hausdorff_distance(ps, mp)
        assert d <= 1.0 / mesh + 1e-9
        assert d <= prev + 1e-12
        prev = d


# -- reach convergence / coincidence ----------------------------------------------

def test_reach_converges_to_universal_segment():
    sys, cons = unconstrained_sys()
    limit = PlanarSet(segments=(((0.0, 1.0), (1.0, 1.0)),))
    last = math.inf
    for mesh in (4, 16, 64):
        ps = relaxed_reach(sys, cons, ReachConfig(mesh, 0.01, 90))
        d = hausdorff_distance(ps, limit)
        assert d <= 1.0 / mesh + 1e-9
        assert d <= last + 1e-12
        last = d


def test_coincidence_identical_for_empty_J():
    sys, (s1, s2) = build_double_integrator(const_one(), 1, "1/2", 1)
    cons = ConstraintSpec((s2,), (((0, 1),),), frozenset())
    full = relaxed_reach(sys, cons, ReachConfig(32, 0.01, 45))
    partial = relaxed_reach(sys, cons, ReachConfig(32, 0.01, 45, partial=True))
    assert full == partial


def test_coincidence_all_step_J_is_exact_constraint():
    sys, cons = velocity_constrained_sys()
    a = relaxed_reach(sys, cons, ReachConfig(64, 0.05, 45, partial=True))
    b = relaxed_reach(sys, cons, ReachConfig(64, 0.0001, 45, partial=True))
    assert a == b  # epsilon never touches the J coordinate


def test_universal_matches_relaxation_limit_on_box_target():
    # two constraint coordinates, box target, signed thrust: the curve-hull
    # route must be the limit of the mesh-LP route as epsilon shrinks
    zig = zigzag()
    sys, (s1, s2) = build_double_integrator(zig, "3/4", "1/2", 1)
    cons = ConstraintSpec((s1, s2),
                          (((F(-1, 8), F(1, 8)), (F(0), F(1, 4))),),
                          frozenset())
    mp = universal_mp(sys, cons, t_grid_size=129, directions=180)
    assert len(mp.polygons) == 1
    prev = math.inf
    for mesh, eps in [(32, 0.05), (128, 0.01), (512, 0.002)]:
        ps = relaxed_reach(sys, cons, ReachConfig(mesh, eps, 180))
        d = hausdorff_distance(ps, mp)
        assert d <= 3 * eps
        assert d <= prev + 1e-12
        prev = d


def test_coincidence_report_converges():
    sys, cons = velocity_constrained_sys()
    report = coincidence_check(sys, cons, [(64, 0.05), (128, 0.01)], t_grid_size=65)
    assert report.entries[0].partial_inside_full
    assert report.entries[1].partial_inside_full
    assert report.distances_decrease
    assert report.final_d_to_universal <= 0.02


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e6])
def test_coincidence_flags_scale_with_the_sets(monkeypatch, scale):
    # stand-in sets: universal is the square [0, 1]^2 and full grows it by
    # the gap of its mesh; at mesh 4 partial sticks out of full by 1e-6, and
    # the gap rises by 1e-4 from mesh 4 to 8.  Scaling every set must scale
    # every distance and keep both flags.
    gaps = {4: 0.1, 8: 0.1 * (1 + 1e-4)}

    def reach(sys, cons, cfg):
        shift = 1e-6 if cfg.partial and cfg.mesh == 4 else 0.0
        return square(scale * shift, scale * (1 + gaps[cfg.mesh] + shift))

    monkeypatch.setattr(attainability, "relaxed_reach", reach)
    monkeypatch.setattr(attainability, "universal_mp", lambda *args: square(0.0, scale))
    sys, cons = velocity_constrained_sys()
    report = coincidence_check(sys, cons, [(4, F(1, 100)), (8, F(1, 100))])
    assert [e.partial_inside_full for e in report.entries] == [False, True]
    assert not report.distances_decrease
    assert report.final_d_to_universal == pytest.approx(scale * gaps[8], rel=1e-12)


# -- generator rows ------------------------------------------------------------


def reference_mesh_rows(sys, cons, mesh):
    """The per-cell loop the vectorized rows replaced: exact integral, then float."""
    b = float(sys.b)
    step = (sys.theta0 - sys.t0) / mesh
    rows = []
    for cell in partition_from_cuts(sys.domain, [sys.t0 + k * step for k in range(1, mesh)]).cells:
        length = float(eta(cell))
        rows.append([b * float(integrate_eta(k, cell)) / length for k in sys.pi + cons.s])
    return np.asarray(rows)


def reference_curve_rows(sys, cons, t_grid_size):
    """The per-sample loop the vectorized rows replaced: exact limits, then float."""
    kernels = sys.pi + cons.s
    times = {sys.t0 + F(k, t_grid_size - 1) * (sys.theta0 - sys.t0)
             for k in range(t_grid_size)}
    for kernel in kernels:
        times.update(kernel.breakpoints)
    b = float(sys.b)
    rows = []
    for t in sorted(times):
        sides = ([LEFT] if t > sys.t0 else []) + ([RIGHT] if t < sys.theta0 else [])
        for side in sides:
            rows.append([b * float(k.side_limit(t, side)) for k in kernels])
    return np.asarray(rows)


def random_kernel(rng, domain, mesh, exact, max_degree=MAX_DEGREE):
    """Pieces of degree 0 to max_degree, cut on grid points, strictly inside a
    cell, or twice inside one cell of the uniform mesh; rational or float
    coefficients."""
    step = (domain.hi - domain.lo) / mesh
    cuts = {domain.lo, domain.hi}
    for kind in rng.sample(("grid", "inside", "twice inside"), rng.randint(0, 3)):
        k = rng.randrange(mesh)
        if kind == "grid":
            cuts.add(domain.lo + k * step)
        elif kind == "inside":
            cuts.add(domain.lo + (k + F(rng.randint(1, 9), 10)) * step)
        else:
            cuts.update(domain.lo + (k + f) * step for f in (F(1, 3), F(3, 4)))
    bps = sorted(cuts)
    pieces = [[F(rng.randint(-30, 30), rng.choice((3, 7, 10))) if exact
               else rng.uniform(-3.0, 3.0) for _ in range(rng.randint(1, max_degree + 1))]
              for _ in bps[1:]]
    return PiecewiseFn.build(bps, pieces)


def random_rows_problem(rng, domain, mesh, exact):
    """Two terminal and one constraint kernel, and the same system with every
    float coefficient replaced by its exact value."""
    kernels = [random_kernel(rng, domain, mesh, exact) for _ in range(3)]
    exact_kernels = [PiecewiseFn(k.breakpoints,
                                 tuple(tuple(F(c) for c in cs) for cs in k.pieces),
                                 k.point_values) for k in kernels]
    b = F(3, 2)
    cons = ConstraintSpec(tuple(kernels[2:]), (((None, None),),))
    exact_cons = ConstraintSpec(tuple(exact_kernels[2:]), (((None, None),),))
    return ((ImpulseSystem(domain.lo, domain.hi, b, tuple(kernels[:2])), cons),
            (ImpulseSystem(domain.lo, domain.hi, b, tuple(exact_kernels[:2])), exact_cons))


def assert_rows_close(rows, ref, sys, cons):
    """|rows - ref| <= 4u max(1, |ref|, size), u = 2^-52.

    size is b times the largest sum of |c_i| R^i over a kernel's pieces, with
    R the largest |t| on the domain: the terms that float evaluation at a
    rounded time sums, whose rounding errors are not bounded by the value.
    """
    radius = max(abs(float(sys.t0)), abs(float(sys.theta0)))
    size = np.array([float(sys.b) * max(sum(abs(float(c)) * radius ** i
                                            for i, c in enumerate(cs)) for cs in k.pieces)
                     for k in sys.pi + cons.s])
    assert rows.shape == ref.shape
    tol = 4 * 2.0 ** -52 * np.maximum(np.maximum(1.0, np.abs(ref)), size)
    assert np.all(np.abs(rows - ref) <= tol), np.max(np.abs(rows - ref) / tol)


DOMAINS = [UNIT, Interval.make("1/3", "7/5")]


def domain_id(domain: Interval) -> str:
    return f"[{fmt_rat(domain.lo)},{fmt_rat(domain.hi)}]"


def test_quadrature_rule_is_exact_for_every_allowed_degree():
    nodes, weights = np.polynomial.legendre.leggauss(MAX_DEGREE // 2 + 1)
    assert np.allclose(_GL_NODES, nodes, rtol=0, atol=1e-15)
    assert np.allclose(_GL_WEIGHTS, weights, rtol=0, atol=1e-15)


@pytest.mark.parametrize("mesh,trials", [(1, 30), (7, 30), (1024, 1)])
@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("domain", DOMAINS, ids=domain_id)
def test_mesh_rows_match_exact_cell_averages(domain, exact, mesh, trials):
    rng = random.Random(f"{domain} {exact} {mesh}")
    for _ in range(trials):
        (sys, cons), (exact_sys, exact_cons) = random_rows_problem(rng, domain, mesh, exact)
        kept, rows = _mesh_generators(sys, cons, mesh)
        assert_rows_close(rows, reference_mesh_rows(exact_sys, exact_cons, mesh)[kept],
                          sys, cons)


@pytest.mark.parametrize("t_grid_size", [2, 9, 65])
@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("domain", DOMAINS, ids=domain_id)
def test_curve_rows_match_exact_side_limits(domain, exact, t_grid_size):
    rng = random.Random(f"{domain} {exact} {t_grid_size}")
    for _ in range(20):
        (sys, cons), (exact_sys, exact_cons) = random_rows_problem(rng, domain, 8, exact)
        kept, rows = _augmented_curve_samples(sys, cons, t_grid_size)
        assert_rows_close(rows, reference_curve_rows(exact_sys, exact_cons, t_grid_size)[kept],
                          sys, cons)


@pytest.mark.parametrize("name", ["zigzag", "velocity_pin"])
def test_affine_kernels_sample_only_the_breakpoint_limits(name):
    # every kernel of both scenarios is affine, so grid samples never add a row
    sys, cons, _ = load_scenario(SCENARIOS / f"{name}.json")
    rows = [_augmented_curve_samples(sys, cons, t_grid)[1] for t_grid in (2, 65, 129)]
    assert rows[0].shape == (4, len(sys.pi + cons.s))
    assert all(np.array_equal(r, rows[0]) for r in rows[1:])


@pytest.mark.parametrize("name", ["zigzag", "velocity_pin"])
def test_sets_equal_projection_of_exact_reference_rows(name):
    sys, cons, task = load_scenario(SCENARIOS / f"{name}.json")
    partial = task.get("relaxation") == "partial"
    cfg = ReachConfig(int(task["mesh"]), num_from_json(task["epsilon"]), partial=partial)
    boxes = [relax_box(box, cfg.epsilon, cons.J if partial else frozenset())
             for box in cons.boxes]
    expected = _project(reference_mesh_rows(sys, cons, cfg.mesh), boxes)
    assert relaxed_reach(sys, cons, cfg).to_json() == expected.to_json()
    t_grid = int(task["t_grid"])
    expected = _project(reference_curve_rows(sys, cons, t_grid), cons.boxes)
    assert universal_mp(sys, cons, t_grid).to_json() == expected.to_json()


# -- projection by the shadow-vertex sweep ------------------------------------------


def box_lp(gens, box):
    """The constraints of the weights x: sum x = 1 and the box on gens'
    constraint part, as solve_lp and linprog take them."""
    A_ub, b_ub = [], []
    A_eq, b_eq = [np.ones(gens.shape[0])], [1.0]
    for row, (lo, hi) in zip(gens[:, 2:].T, box):
        if lo is not None and lo == hi:
            A_eq.append(row)
            b_eq.append(lo)
            continue
        if hi is not None:
            A_ub.append(row)
            b_ub.append(hi)
        if lo is not None:
            A_ub.append(-row)
            b_ub.append(-lo)
    return dict(A_eq=np.vstack(A_eq), b_eq=b_eq,
                A_ub=np.vstack(A_ub) if A_ub else None, b_ub=b_ub or None)


def support_lp(gens, box, d):
    """max d . terminal over the box's slice of the generator hull, by one
    cold LP: the value and the optimal point, or None when infeasible."""
    res = solve_lp(-(gens[:, :2] @ d), **box_lp(gens, box))
    if res.status == INFEASIBLE:
        return None
    assert res.status == OPTIMAL
    return -res.value, gens[:, :2].T @ res.x


CLOUD_KINDS = ("free", "box", "equality", "infeasible", "point", "segment")


def random_cloud(rng, kind):
    """Generator rows (two terminal coordinates, then constraint ones) with
    duplicate and collinear rows, and a box of the given kind: no box, a
    two-sided box, an equality slice, an empty slice, or an equality on the
    first terminal coordinate that pins a single point or a segment."""
    pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(1, 12))]
    for _ in range(rng.randint(0, 5)):
        a, b = rng.choice(pts), rng.choice(pts)
        s = rng.choice((0.0, 0.25, 0.5, 1.0))
        pts.append((a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1])))
    if kind == "point":
        pts.append((3.0, rng.uniform(-2, 2)))
    if kind == "segment":
        pts += [(3.0, -1.5), (3.0, 0.5), (3.0, rng.uniform(-1.5, 0.5))]
    rng.shuffle(pts)
    terminal = np.array(pts)
    if kind == "free":
        return terminal, ()
    if kind in ("point", "segment"):
        return np.column_stack([terminal, terminal[:, 0]]), ((3.0, 3.0),)
    w = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)])
    cons = terminal @ w
    lo, hi = cons.min(axis=0), cons.max(axis=0)
    if kind == "infeasible":
        box = ((hi[0] + 1.0, hi[0] + 2.0), (None, None))
    elif kind == "equality":
        box = ((float(rng.uniform(lo[0], hi[0])),) * 2, (None, float(rng.uniform(lo[1], hi[1]))))
    else:
        cuts = sorted(rng.uniform(lo[0], hi[0]) for _ in range(2))
        box = ((cuts[0], cuts[1]), (float(rng.uniform(lo[1], hi[1])), None))
    return np.column_stack([terminal, cons]), box


def fan(directions):
    angles = 2.0 * math.pi * np.arange(directions) / directions
    return np.column_stack([np.cos(angles), np.sin(angles)])


def set_corners(ps):
    return np.array([p for poly in ps.polygons for p in poly]
                    + [p for seg in ps.segments for p in seg] + list(ps.points), float)


@pytest.mark.parametrize("kind", CLOUD_KINDS)
def test_projection_is_the_exact_polygon_of_random_clouds(kind):
    rng = random.Random(f"cloud {kind}")
    for _ in range(12):
        gens, box = random_cloud(rng, kind)
        ps = _project(gens, [box])
        lps = [support_lp(gens, box, d) for d in fan(64)]
        if lps[0] is None:
            assert ps.is_empty and all(lp is None for lp in lps)
            continue
        assert kind != "infeasible"
        corners = set_corners(ps)
        for d, (value, _) in zip(fan(64), lps):
            assert abs(np.max(corners @ d) - value) <= 1e-9 * max(1.0, abs(value))
        # every vertex of the old 64-direction fan lies in the sweep's set
        fan_points = PlanarSet(points=tuple(tuple(p) for _, p in lps))
        assert directed_distance(fan_points, ps) <= 1e-9
        if kind == "point":
            assert len(ps.points) == 1 and not (ps.segments or ps.polygons)
        if kind == "segment":
            assert seg_endpoints(ps) == [(3.0, -1.5), (3.0, 0.5)]


def test_projection_supports_match_highs_on_random_clouds():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random("cloud highs")
    angles = np.array([rng.uniform(0, 2 * math.pi) for _ in range(64)])
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    for kind in CLOUD_KINDS:
        for _ in range(3):
            gens, box = random_cloud(rng, kind)
            ps = _project(gens, [box])
            for d in dirs:
                res = linprog(-(gens[:, :2] @ d), **box_lp(gens, box), method="highs")
                if res.status == 2:
                    assert ps.is_empty
                    continue
                assert res.status == 0
                got = np.max(set_corners(ps) @ d)
                assert abs(got + res.fun) <= 1e-9 * max(1.0, abs(res.fun))


SCALES = [1e-9, 1e-6, 3e-7, 1.0, 1e6, 1e9]


def velocity_box_sets(lam):
    """zigzag with b = lam and its velocity at t = 3/4 boxed to [0, lam/4]:
    relaxed_reach at mesh 64 and epsilon lam/100, universal_mp on 129 grid
    times, and short_impulse_mp."""
    sys, _ = build_double_integrator(zigzag(), 1, 1, lam)
    cons = ConstraintSpec((velocity_kernel(zigzag(), F(3, 4)),), (((0.0, lam / 4),),),
                          frozenset({1}))
    return (relaxed_reach(sys, cons, ReachConfig(64, lam / 100)), universal_mp(sys, cons, 129),
            short_impulse_mp(sys)), (sys, cons)


def scaled_set(ps, s):
    def scale(p):
        return tuple(s * float(c) for c in p)
    return PlanarSet(points=tuple(map(scale, ps.points)),
                     segments=tuple(tuple(map(scale, seg)) for seg in ps.segments),
                     polygons=tuple(tuple(map(scale, poly)) for poly in ps.polygons))


def set_numbers(ps):
    """Every coordinate and arc coefficient of ps, in order."""
    corners = set_corners(ps).ravel().tolist()
    return corners + [float(c) for arc in ps.arcs for cs in arc.coeffs for c in cs]


@pytest.mark.parametrize("lam", SCALES)
def test_sets_scale_with_b_the_target_and_epsilon(lam):
    # the sweep's thresholds act on rows scaled to [1/2, 1) per coordinate, so
    # scaling b, the target box and epsilon by lam scales every set by lam
    (reach, mp, short), (sys, cons) = velocity_box_sets(lam)
    (reach1, mp1, short1), (sys1, cons1) = velocity_box_sets(1.0)
    for got, want in [(reach, reach1), (mp, mp1)]:
        extent = float(np.max(np.abs(set_corners(want))))
        assert hausdorff_distance(scaled_set(got, 1 / lam), want) <= 1e-12 * extent
    got, want = np.array(set_numbers(short)), np.array(set_numbers(short1))
    assert got.shape == want.shape
    assert np.max(np.abs(got / lam - want)) <= 1e-12 * np.max(np.abs(want))
    # and so every coincidence distance
    schedule = [(16, lam / 10), (32, lam / 20)]
    report = coincidence_check(sys, cons, schedule, t_grid_size=65).to_json()
    report1 = coincidence_check(sys1, cons1, [(16, 0.1), (32, 0.05)], t_grid_size=65).to_json()
    extent = float(np.max(np.abs(set_corners(mp1))))
    for entry, entry1 in zip(report["entries"], report1["entries"]):
        for key in ("d_full_partial", "d_full_universal", "d_partial_universal"):
            assert abs(entry[key] / lam - entry1[key]) <= 1e-12 * extent, key
        assert entry["partial_inside_full"] == entry1["partial_inside_full"]
    assert report["distances_decrease"] == report1["distances_decrease"]


def family_members(seed, count):
    """The first count members that the bench's draw_family draws from seed:
    (thrust switch, 7 constraint times, half-width)."""
    rng = random.Random(seed)
    return [(F(rng.randint(100, 900), 1000),
             sorted(F(k, 1000) for k in rng.sample(range(50, 951), 7)),
             F(rng.randint(125, 500), 1000)) for _ in range(count)]


@pytest.mark.parametrize("lam", SCALES)
def test_sweep_hulls_scale_with_family_members(lam):
    # the library sets scale by lam on bench family members too; seed 2's
    # first member is off by 1.3e-12 of the extent at lam = 3e-7 when the
    # vertices are rounded to the printed digits before the set is returned
    def family_set(member, lam, mp):
        switch, times, w = member
        c = PiecewiseFn.build([0, switch, 1], [[1], [-1]])
        sys, _ = build_double_integrator(c, 1, 1, lam)
        kernels = []
        for t in times:
            kernels += [position_kernel(c, t), velocity_kernel(c, t)]
        cons = ConstraintSpec(tuple(kernels), (((-lam * float(w), lam * float(w)),) * 14,))
        if mp:
            return universal_mp(sys, cons, 65)
        return relaxed_reach(sys, cons, ReachConfig(64, lam / 100))

    for member in family_members(1, 4) + family_members(2, 4):
        for mp in (False, True):
            got, want = family_set(member, lam, mp), family_set(member, 1.0, mp)
            extent = float(np.max(np.abs(set_corners(want))))
            assert hausdorff_distance(scaled_set(got, 1 / lam), want) <= 1e-12 * extent


# bench family members (thrust switch, 7 constraint times, half-width, mesh)
# whose sweeps visit a hull corner twice, a few ulps apart: fine-mesh seed 12
# input 10, and wide-fan seed 20 input 8 at its reach mesh.  The tests check
# that the set keeps its true vertices there.  With the visited points read
# off the sweep's cost rows, an earlier hull that could drop both copies of
# such a corner passes them too; test_hull_keeps_a_corner_visited_twice_one_ulp_apart
# is the direct guard
CORNER_TWICE_MEMBERS = {
    "fine-mesh": (F(179, 500), (F(29, 100), F(393, 1000), F(211, 500), F(43, 100),
                                F(573, 1000), F(159, 250), F(879, 1000)), F(381, 1000), 1024),
    "wide-fan": (F(6, 25), (F(103, 500), F(393, 1000), F(127, 250), F(83, 125),
                            F(89, 125), F(761, 1000), F(197, 250)), F(451, 1000), 64),
}


def assert_supports_match_lp_on_a_corner_visited_twice(monkeypatch, member):
    switch, times, w, mesh = CORNER_TWICE_MEMBERS[member]
    c = PiecewiseFn.build([0, switch, 1], [[1], [-1]])
    sys, _ = build_double_integrator(c, 1, 1, 1)
    kernels = []
    for t in times:
        kernels += [position_kernel(c, t), velocity_kernel(c, t)]
    cons = ConstraintSpec(tuple(kernels), (((-w, w),) * len(kernels),))
    cfg = ReachConfig(mesh, F(1, 100), 24)
    visited = []
    hull = attainability.hull_piece
    monkeypatch.setattr(attainability, "hull_piece",
                        lambda points: visited.extend(map(tuple, points)) or hull(points))
    corners = set_corners(relaxed_reach(sys, cons, cfg))
    twins = [(p, q) for p, q in itertools.combinations(set(visited), 2)
             if np.max(np.abs(np.subtract(p, q))) <= 4 * np.spacing(np.max(np.abs([p, q])))]
    raw_corners = set(convex_hull_2d(visited))
    assert any(p in raw_corners or q in raw_corners for p, q in twins)
    rows = _mesh_generators(sys, cons, cfg.mesh)[1]
    box = relax_box(cons.boxes[0], cfg.epsilon, frozenset())
    for d in fan(64):
        value, _ = support_lp(rows, box, d)
        assert abs(np.max(corners @ d) - value) <= 1e-9 * max(1.0, abs(value))


def test_reach_supports_match_lp_on_a_corner_visited_twice(monkeypatch):
    assert_supports_match_lp_on_a_corner_visited_twice(monkeypatch, "fine-mesh")


def test_reach_supports_match_lp_on_a_corner_visited_twice_at_mesh_64(monkeypatch):
    assert_supports_match_lp_on_a_corner_visited_twice(monkeypatch, "wide-fan")


def all_sites_rows(builder, *args):
    """The program's rows at every site, with the pruning rule switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attainability, "_kept_sites",
                   lambda kernels, pieces, splits: np.ones(len(pieces[0]), dtype=bool))
        return builder(*args)[1]


def random_pruning_problem(rng, mesh, exact, builder, size):
    """Degree 0-2 kernels, the program's rows at every site, and a system
    whose one constraint box cuts the constraint coordinate's range."""
    kernels = [random_kernel(rng, UNIT, mesh, exact, max_degree=2) for _ in range(3)]
    sys = ImpulseSystem(UNIT.lo, UNIT.hi, F(3, 2), tuple(kernels[:2]))
    rows = all_sites_rows(builder, sys,
                          ConstraintSpec(tuple(kernels[2:]), (((None, None),),)), size)
    lo, hi = sorted(rng.uniform(rows[:, 2].min(), rows[:, 2].max()) for _ in range(2))
    return sys, ConstraintSpec(tuple(kernels[2:]), (((lo, hi),),)), rows


def assert_same_set(pruned, full):
    extent = max(1.0, float(np.max(np.abs(set_corners(full)))))
    assert hausdorff_distance(pruned, full) <= 1e-9 * extent
    assert pruned.to_json() == full.to_json()


@pytest.mark.parametrize("mesh", [3, 16, 64])
def test_pruned_rows_leave_reach_sets_unchanged(mesh):
    rng = random.Random(f"prune {mesh}")
    dropped = 0
    for trial in range(20):
        sys, cons, rows = random_pruning_problem(rng, mesh, trial % 2 == 0,
                                                 _mesh_generators, mesh)
        kept, _ = _mesh_generators(sys, cons, mesh)
        for k in np.flatnonzero(~kept):  # equally spaced midpoints
            middle = (rows[k - 1] + rows[k + 1]) / 2
            assert np.allclose(rows[k], middle, rtol=0, atol=1e-12), (trial, k)
        dropped += int((~kept).sum())
        cfg = ReachConfig(mesh, F(1, 100), 16)
        boxes = [relax_box(box, cfg.epsilon, frozenset()) for box in cons.boxes]
        assert_same_set(relaxed_reach(sys, cons, cfg), _project(rows, boxes))
    assert dropped > 0 or mesh == 3


@pytest.mark.parametrize("t_grid_size", [2, 9, 65])
def test_pruned_rows_leave_mp_sets_unchanged(t_grid_size):
    rng = random.Random(f"prune mp {t_grid_size}")
    dropped = 0
    for trial in range(20):
        sys, cons, rows = random_pruning_problem(rng, 8, trial % 2 == 0,
                                                 _augmented_curve_samples, t_grid_size)
        kept, _ = _augmented_curve_samples(sys, cons, t_grid_size)
        for k in np.flatnonzero(~kept):  # on the segment between its neighbours
            a, d = rows[k - 1], rows[k + 1] - rows[k - 1]
            s = np.clip((rows[k] - a) @ d / (d @ d), 0.0, 1.0) if d.any() else 0.0
            assert np.max(np.abs(rows[k] - (a + s * d))) <= 1e-12, (trial, k)
        dropped += int((~kept).sum())
        assert_same_set(universal_mp(sys, cons, t_grid_size, 16),
                        _project(rows, cons.boxes))
    assert dropped > 0 or t_grid_size == 2
