"""Scenario-driven command line front end.

Scenarios are JSON files describing the controlled system, the constraint
kernels and target boxes, and task parameters; rationals travel as "p/q"
strings so exactness survives serialization.  Commands write JSON (and
optionally SVG) results; all output is byte-deterministic for fixed inputs.

Exit codes: 0 success (an infeasible target is still a success, reported in
the JSON), 1 failed invariant check, 2 validation error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .attainability import (
    PlanarSet,
    ReachConfig,
    coincidence_check,
    relaxed_reach,
    short_impulse_mp,
    universal_mp,
)
from .checks import run_battery
from .dynamics import (
    ConstraintSpec,
    ImpulseSystem,
    build_double_integrator,
    position_kernel,
    trajectory_eval,
    velocity_kernel,
)
from .errors import NumericError, SchemaError
from .intervals import Interval
from .measures import FAMeasure
from .piecewise import PiecewiseFn
from .rational import Number, fmt_float, fmt_rat, num_from_json, rat

DEFAULT_TASK = {"mesh": 64, "epsilon": 0.01, "directions": 360, "t_grid": 129,
                "samples": 11, "relaxation": "full", "schedule": None, "seed": 0}


# -- scenario loading ------------------------------------------------------------


def _opt_bound(value) -> Optional[Number]:
    if value is None:
        return None
    return num_from_json(value)


def load_scenario(path: str | Path) -> tuple[ImpulseSystem, ConstraintSpec, dict]:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SchemaError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario is not valid JSON: {exc}") from exc
    try:
        return _parse_scenario(raw)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"bad scenario: {exc}") from exc


def _parse_scenario(raw: dict) -> tuple[ImpulseSystem, ConstraintSpec, dict]:
    dom_obj = raw["domain"]
    t0, theta0 = rat(dom_obj["t0"]), rat(dom_obj["theta0"])
    domain = Interval(t0, theta0)
    b = num_from_json(raw.get("b", 1))

    has_c = "c" in raw
    has_pi = "pi" in raw
    if has_c == has_pi:
        raise SchemaError("scenario must carry exactly one of 'c' or 'pi'")

    c: Optional[PiecewiseFn] = None
    if has_c:
        c = PiecewiseFn.from_json(raw["c"])
        if c.domain != domain:
            raise SchemaError("thrust orientation domain differs from 'domain'")
        system, _ = build_double_integrator(c, 1, 1, b)
    else:
        kernels = tuple(PiecewiseFn.from_json(k) for k in raw["pi"])
        system = ImpulseSystem(t0, theta0, b, kernels, None)

    cons_obj = raw.get("constraints")
    if cons_obj is None:
        cons = ConstraintSpec.unconstrained()
    else:
        cons = _parse_constraints(cons_obj, system, c)

    return system, cons, _parse_task(raw.get("task", {}))


def _task_value(key: str, value, count: bool) -> Number:
    """A task count as an int (integral floats too), or a task number as
    num_from_json reads it."""
    if count and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int if count else (int, float, str)):
        kind = "an integer" if count else "a number or a 'p/q' string"
        raise SchemaError(f"task {key} must be {kind}, not {value!r}")
    return num_from_json(value)


def _parse_task(obj) -> dict:
    """DEFAULT_TASK updated by a scenario's task block, each value checked and
    typed; ranges (mesh >= 1, epsilon > 0, ...) are checked where values are used."""
    if not isinstance(obj, dict) or not set(obj) <= set(DEFAULT_TASK):
        raise SchemaError(f"task must be an object with keys among {sorted(DEFAULT_TASK)}, "
                          f"not {obj!r}")
    task = dict(DEFAULT_TASK, **obj)
    for key in ("mesh", "directions", "t_grid", "samples", "seed"):
        task[key] = _task_value(key, task[key], count=True)
    task["epsilon"] = _task_value("epsilon", task["epsilon"], count=False)
    if task["relaxation"] not in ("full", "partial"):
        raise SchemaError(f"task relaxation must be 'full' or 'partial', "
                          f"not {task['relaxation']!r}")
    schedule = task["schedule"]
    if schedule is not None:
        if not isinstance(schedule, list) or any(
                not isinstance(pair, list) or len(pair) != 2 for pair in schedule):
            raise SchemaError(f"task schedule must be a list of [mesh, epsilon] pairs, "
                              f"not {schedule!r}")
        task["schedule"] = [(_task_value("schedule mesh", m, count=True),
                             _task_value("schedule epsilon", e, count=False))
                            for m, e in schedule]
    return task


def _parse_constraints(obj: dict, system: ImpulseSystem,
                       c: Optional[PiecewiseFn]) -> ConstraintSpec:
    has_s = "s" in obj
    has_builders = "builders" in obj
    if has_s and has_builders:
        raise SchemaError("give constraint kernels as 's' or 'builders', not both")
    if has_s:
        kernels = tuple(PiecewiseFn.from_json(k) for k in obj["s"])
        for kernel in kernels:
            if kernel.domain != system.domain:
                raise SchemaError("constraint kernel domain differs from 'domain'")
    elif has_builders:
        if c is None:
            raise SchemaError("builder kernels need the thrust orientation 'c'")
        kernels = []
        for spec in obj["builders"]:
            kind = spec.get("kind")
            t = spec.get("t")
            if kind == "position":
                kernels.append(position_kernel(c, t))
            elif kind == "velocity":
                kernels.append(velocity_kernel(c, t))
            else:
                raise SchemaError(f"unknown builder kind {kind!r}")
        kernels = tuple(kernels)
    else:
        kernels = ()

    boxes_obj = obj.get("Y")
    if boxes_obj is None:
        boxes: tuple = ((),) if not kernels else (((None, None),) * len(kernels),)
    else:
        boxes = tuple(
            tuple((_opt_bound(lo), _opt_bound(hi)) for lo, hi in box)
            for box in boxes_obj)
    J = obj.get("J", [])
    if not isinstance(J, list) or any(isinstance(j, bool) or not isinstance(j, int) for j in J):
        raise SchemaError(f"constraint J must be a list of integer indices, not {J!r}")
    return ConstraintSpec(kernels, boxes, frozenset(J))


# -- output ------------------------------------------------------------------------


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        _sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _fmt_num(value: Number) -> str:
    if isinstance(value, Fraction):
        return fmt_rat(value)
    if isinstance(value, int):
        return str(value)
    return fmt_float(float(value))


# -- SVG rendering -------------------------------------------------------------------

ARC_SAMPLES = 64


def render_svg(planar: PlanarSet, out_path: str | Path, width: int = 640,
               height: int = 480) -> None:
    """Deterministic SVG figure: filled polygons, polyline segments/arcs,
    circle markers, auto-fitted axes with a 5% margin."""
    arc_paths = []
    for arc in planar.arcs:
        lo, hi = float(arc.t_lo), float(arc.t_hi)
        arc_paths.append([tuple(map(float, arc.at(lo + (hi - lo) * k / ARC_SAMPLES)))
                          for k in range(ARC_SAMPLES + 1)])
    drawn = [*planar.points, *(p for seg in planar.segments for p in seg),
             *(p for pts in arc_paths for p in pts),
             *(p for poly in planar.polygons for p in poly)]
    xs = [float(p[0]) for p in drawn] or [0.0, 1.0]
    ys = [float(p[1]) for p in drawn] or [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    mx, my = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
    x0, x1, y0, y1 = x0 - mx, x1 + mx, y0 - my, y1 + my
    sx = width / (x1 - x0)
    sy = height / (y1 - y0)

    def tx(x: float) -> str:
        return fmt_float((x - x0) * sx)

    def ty(y: float) -> str:
        return fmt_float((y1 - y) * sy)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white" '
        'stroke="black" stroke-width="1"/>',
    ]
    if x0 < 0 < x1:
        lines.append(f'<line x1="{tx(0.0)}" y1="0" x2="{tx(0.0)}" y2="{height}" '
                     'stroke="#bbbbbb" stroke-width="1"/>')
    if y0 < 0 < y1:
        lines.append(f'<line x1="0" y1="{ty(0.0)}" x2="{width}" y2="{ty(0.0)}" '
                     'stroke="#bbbbbb" stroke-width="1"/>')
    for poly in planar.polygons:
        pts = " ".join(f"{tx(float(p[0]))},{ty(float(p[1]))}" for p in poly)
        lines.append(f'<polygon points="{pts}" fill="#9ecae1" stroke="#08519c" '
                     'stroke-width="1.5"/>')
    for a, b in planar.segments:
        lines.append(
            f'<polyline points="{tx(float(a[0]))},{ty(float(a[1]))} '
            f'{tx(float(b[0]))},{ty(float(b[1]))}" fill="none" stroke="#08519c" '
            'stroke-width="2"/>')
    for pts in arc_paths:
        chain = " ".join(f"{tx(x)},{ty(y)}" for x, y in pts)
        lines.append(f'<polyline points="{chain}" fill="none" stroke="#08519c" '
                     'stroke-width="2"/>')
    for p in planar.points:
        lines.append(f'<circle cx="{tx(float(p[0]))}" cy="{ty(float(p[1]))}" r="4" '
                     'fill="#08519c"/>')
    lines.append("</svg>")
    Path(out_path).write_text("\n".join(lines) + "\n")


# -- commands --------------------------------------------------------------------------


def run_scenario(path: str | Path, command: str, out: Optional[str] = None,
                 svg: Optional[str] = None, measure: Optional[str] = None,
                 overrides: Optional[dict] = None) -> int:
    system, cons, task = load_scenario(path)
    task.update({k: v for k, v in (overrides or {}).items() if v is not None})

    if command in ("reach", "mp", "short-impulse"):
        if command == "reach":
            cfg = ReachConfig(task["mesh"], task["epsilon"], task["directions"],
                              partial=task["relaxation"] == "partial")
            result = relaxed_reach(system, cons, cfg)
            payload = {"mesh": cfg.mesh, "epsilon": _fmt_num(cfg.epsilon),
                       "directions": cfg.directions,
                       "relaxation": task["relaxation"],
                       "feasible": not result.is_empty}
        elif command == "mp":
            result = universal_mp(system, cons, task["t_grid"], task["directions"])
            payload = {"t_grid": task["t_grid"], "directions": task["directions"],
                       "feasible": not result.is_empty}
        else:
            result = short_impulse_mp(system)
            payload = {}
        payload.update(command=command, set=result.to_json())
        _emit(dump_json(payload), out)
        if svg:
            render_svg(result, svg)
        return 0

    if command == "traj":
        if measure is None:
            raise SchemaError("traj needs --measure <file>")
        try:
            mu = FAMeasure.from_json(json.loads(Path(measure).read_text()))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(f"bad measure file: {exc}") from exc
        if mu.domain != system.domain:
            raise SchemaError("measure domain differs from the scenario domain")
        samples = task["samples"]
        if samples < 2:
            raise SchemaError("need at least 2 trajectory samples")
        rows = ["t,x1,x2"]
        span = system.theta0 - system.t0
        for k in range(samples):
            t = system.t0 + Fraction(k, samples - 1) * span
            x1, x2 = trajectory_eval(mu, t, system)
            rows.append(f"{fmt_rat(t)},{_fmt_num(x1)},{_fmt_num(x2)}")
        _emit("\n".join(rows) + "\n", out)
        return 0

    if command == "check":
        rows = run_battery(system, cons, task["seed"])
        report = {"command": "check",
                  "results": [{"name": n, "passed": p, "detail": d}
                              for n, p, d in rows]}
        if task["schedule"] is not None:
            cc = coincidence_check(system, cons, task["schedule"], task["t_grid"])
            report["coincidence"] = cc.to_json()
        _emit(dump_json(report), out)
        all_ok = all(p for _, p, _ in rows)
        for name, passed, detail in rows:
            _sys.stderr.write(
                f"CHECK {name}: {'PASS' if passed else 'FAIL'} ({detail})\n")
        return 0 if all_ok else 1

    raise SchemaError(f"unknown command {command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="impulse-reach",
        description="Reachable and attraction sets for impulse-constrained "
                    "linear control problems.")
    parser.add_argument("command",
                        choices=["reach", "mp", "short-impulse", "traj", "check"])
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--svg", help="also render the set to this SVG file")
    parser.add_argument("--mesh", type=int)
    parser.add_argument("--epsilon", type=str)
    parser.add_argument("--directions", type=int,
                        help="reach and mp: at least 3; echoed in the output, "
                             "shapes no set")
    parser.add_argument("--t-grid", dest="t_grid", type=int,
                        help="time grid of the mp set (also in check), at least 2 "
                             "points; it adds samples only inside kernel pieces of "
                             "degree >= 2")
    parser.add_argument("--measure", help="measure JSON file (traj)")
    parser.add_argument("--samples", type=int, help="trajectory sample count")
    parser.add_argument("--seed", type=int, help="random seed of the check battery")
    args = parser.parse_args(argv)

    try:
        overrides = {
            "mesh": args.mesh,
            "epsilon": None if args.epsilon is None else num_from_json(args.epsilon),
            "directions": args.directions,
            "t_grid": args.t_grid,
            "samples": args.samples,
            "seed": args.seed,
        }
        return run_scenario(args.scenario, args.command, args.out, args.svg,
                            args.measure, overrides)
    except NumericError as exc:
        _sys.stderr.write(f"numeric error: {exc}\n")
        return 3
    except ValueError as exc:
        _sys.stderr.write(f"validation error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
