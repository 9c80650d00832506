"""Layer spans recorded from outside the program.

The package's modules bind each other's functions with `from .x import y`,
so a wrapper must replace the binding in the caller's namespace, not only
the defining module's attribute.  `install` does that for every hook in
`hooks()`, `remove` puts the originals back.  Nothing under `src/` changes.

A span is (name, start, end, parent index, job id).  Spans stay in memory
until the run ends.  A span's layer is the part of its name before the
first dot; its self time is its duration minus that of its child spans
(calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "checks", "attainability", "simplex", "dynamics", "measures",
          "piecewise", "intervals")

# Benchmark-side span around one job; its self time is the harness overhead.
JOB_SPAN = "bench.job"


def hooks(mods: dict) -> list[tuple[str, list[tuple[object, str]]]]:
    """(span name, bindings to replace) for every traced function.

    Each span name wraps one original function; all bindings listed for it
    get the same wrapper, so a call through any of them records one span.
    """
    cli, att, chk, dyn = mods["cli"], mods["attainability"], mods["checks"], mods["dynamics"]
    return [
        ("cli.main", [(cli, "main")]),
        ("cli.load_scenario", [(cli, "load_scenario")]),
        ("cli.dump_json", [(cli, "dump_json")]),
        ("cli.render_svg", [(cli, "render_svg")]),
        ("checks.run_battery", [(cli, "run_battery")]),
        ("measures.integral", [(chk, "integral"), (dyn, "integral")]),
        ("dynamics.trajectory_eval", [(cli, "trajectory_eval")]),
        ("attainability.relaxed_reach", [(cli, "relaxed_reach"), (att, "relaxed_reach")]),
        ("attainability.universal_mp", [(cli, "universal_mp"), (att, "universal_mp")]),
        ("attainability.short_impulse_mp", [(cli, "short_impulse_mp")]),
        ("attainability.coincidence_check", [(cli, "coincidence_check")]),
        ("attainability.hull_piece", [(att, "hull_piece")]),
        ("attainability.hausdorff_distance", [(att, "hausdorff_distance")]),
        ("attainability.directed_distance", [(att, "directed_distance")]),
        ("simplex.solve_lp", [(att, "solve_lp")]),
        ("piecewise.integrate_eta", [(att, "integrate_eta")]),
        ("intervals.uniform_partition", [(att, "uniform_partition")]),
        ("piecewise.side_limit", [(mods["piecewise"].PiecewiseFn, "side_limit")]),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = -1
        self.missing: list[str] = []
        self._infeasible = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if after is not None:
                after(result)
            return result
        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, mods: dict) -> None:
        simplex = mods["simplex"]
        after = {
            "simplex.solve_lp": self._count_lp,
            "attainability.hull_piece": self._count_hull,
            "checks.run_battery": self._count_battery,
        }
        for name, bindings in hooks(mods):
            present = [(o, a) for o, a in bindings if a in o.__dict__]
            if not present:
                self.missing.append(name)
                continue
            owner, attr = present[0]
            wrapper = self.wrap(name, owner.__dict__[attr], after.get(name))
            for owner, attr in present:
                self._replace(owner, attr, wrapper)
        if "_pivot" in simplex.__dict__:
            pivot = simplex._pivot
            counts = self.counts

            def counted_pivot(*args, **kwargs):
                counts["pivots"] += 1
                return pivot(*args, **kwargs)
            self._replace(simplex, "_pivot", counted_pivot)
        else:
            self.missing.append("simplex._pivot")
        self._infeasible = simplex.INFEASIBLE

    def remove(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _count_lp(self, result) -> None:
        self.counts["lps"] += 1
        if result.status == self._infeasible:
            self.counts["infeasible_lps"] += 1

    def _count_hull(self, planar) -> None:
        self.counts["hull_vertices"] += (len(planar.points) + 2 * len(planar.segments)
                                         + sum(len(p) for p in planar.polygons))

    def _count_battery(self, rows) -> None:
        self.counts["battery_failed"] += sum(1 for _, passed, _ in rows if not passed)

    def job_span(self, job: int, fn):
        self.job = job
        try:
            return self.wrap(JOB_SPAN, fn)()
        finally:
            self.job = -1

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


def summarize(tracer: Tracer) -> dict:
    """Per-span totals, per-layer self times and the job wall time."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_by_layer: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        self_by_layer[name.split(".", 1)[0]] += end - start - child_time[i]
    return {"total": total, "calls": calls, "self": self_by_layer,
            "job_wall": total[JOB_SPAN], "jobs": calls[JOB_SPAN]}
