"""impulse-reach benchmark: one closed-loop client, one process.

    python3 bench/run.py --workload {paper,fine-mesh,wide-fan} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`, never from an installed copy.  Set-up (import, inputs, kernels) is
timed five times before the loop and five times after it, and the median
reported.  The loop runs jobs back to back until S seconds have passed,
with the calibration probe (probe.py) between them.  Every job is checked
by the oracle after the loop ends, so checking costs no loop time.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half of S on a
plain loop and half on a loop with layer spans installed from outside the
package, and reports the per-layer metrics and the tracing overhead.
The last line of stdout is the JSON result; a readable report goes to
stderr and a full record, spans included, to .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
from probe import probe
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5    # before the loop, and as many again after it
# Share of traced job time that the layer a workload isolates must keep;
# below it the report warns that the workload no longer isolates that layer.
SHARE_FLOOR = {"fine-mesh": ("columns", 0.80), "wide-fan": ("solve_lp", 0.80)}


def import_package() -> dict:
    """Import impulse_reach afresh from ROOT/src and return its modules."""
    for name in [m for m in sys.modules if m == "impulse_reach" or m.startswith("impulse_reach.")]:
        del sys.modules[name]
    pkg = importlib.import_module("impulse_reach")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "impulse_reach":
        raise ImportError(f"impulse_reach came from {pkg.__file__}, not {ROOT / 'src'}")
    return {m: importlib.import_module(f"impulse_reach.{m}") for m in spans.LAYERS}


def setup(name: str, seed: int):
    """Set up SETUP_REPEATS times; return the last set-up and every time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        mods = import_package()
        workload = WORKLOADS[name]()
        workload.setup(mods, seed, ROOT)
        times.append(time.perf_counter() - start)
        if len(times) < SETUP_REPEATS:
            workload.close()
    return mods, workload, times


def timed_loop(workload, seconds: float, run_job=None):
    """Run jobs 0, 1, ... until `seconds` have passed; the last may overrun.

    The calibration probe runs before every job and after the last one.
    The loop ends on a whole cycle of the workload's job kinds, so that each
    kind runs equally often.
    """
    run_job = run_job or (lambda k, fn: fn())
    probe()  # warm-up, not counted
    walls, cpus, probes, outputs, errors = [], [], [probe()], {}, {}
    start = time.perf_counter()
    k = 0
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outputs[k] = run_job(k, lambda: workload.job(k))
        except Exception:  # a failing job is counted and reported, the run goes on
            errors[k] = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        cpus.append(time.process_time() - c0)
        probes.append(probe())
        k += 1
        if t1 - start >= seconds and k % workload.cycle == 0:
            break
    return {"job_walls": walls, "job_cpus": cpus, "probes": probes, "outputs": outputs,
            "errors": errors, "jobs": list(range(k))}


def check_loop(workload, loop: dict) -> None:
    for k, out in loop["outputs"].items():
        try:
            err = workload.check(k, out)
        except Exception:
            err = traceback.format_exc(limit=3)
        if err:
            loop["errors"][k] = err


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def loop_metrics(loop: dict) -> dict:
    """(value, unit) of the loop's end-to-end metrics.

    The *_rel metrics divide mean job time by mean probe time, so that the
    machine's speed at the time cancels.
    """
    n = len(loop["jobs"])
    passed = n - len(loop["errors"])
    probe_wall = statistics.mean(w for w, _ in loop["probes"])
    probe_cpu = statistics.mean(c for _, c in loop["probes"])
    return {"jobs_per_s": (passed / sum(loop["job_walls"]), "1/s"),
            "job_p50_s": (statistics.median(loop["job_walls"]), "s"),
            "job_cpu_s": (sum(loop["job_cpus"]) / n, "s"),
            "job_wall_rel": (sum(loop["job_walls"]) / n / probe_wall, "probes"),
            "job_cpu_rel": (sum(loop["job_cpus"]) / n / probe_cpu, "probes")}


def layer_metrics(tracer, summary: dict, traced: dict, plain: dict) -> dict:
    """(value, unit) of each layer metric, per job of the traced loop."""
    jobs = summary["jobs"]
    tot, calls, counts = summary["total"], summary["calls"], tracer.counts
    lps = counts["lps"]
    wall = summary["job_wall"]

    def per(x: float) -> float:
        return x / jobs

    def seconds(*names: str) -> tuple[float, str]:
        return per(sum(tot[n] for n in names)), "s"

    def count(n: float) -> tuple[float, str]:
        return per(n), "count"

    return {
        "piecewise.integrate_eta_s": seconds("piecewise.integrate_eta"),
        "piecewise.integrate_eta_calls": count(calls["piecewise.integrate_eta"]),
        "intervals.uniform_partition_s": seconds("intervals.uniform_partition"),
        "intervals.uniform_partition_calls": count(calls["intervals.uniform_partition"]),
        "simplex.solve_lp_s": seconds("simplex.solve_lp"),
        "simplex.lps": count(lps),
        "simplex.infeasible_lps": count(counts["infeasible_lps"]),
        "simplex.pivots": count(counts["pivots"]),
        "simplex.pivots_per_lp": (counts["pivots"] / lps if lps else 0.0, "count"),
        "attainability.hull_vertices": count(counts["hull_vertices"]),
        "attainability.lp_yield": (counts["hull_vertices"] / lps if lps else 0.0, "fraction"),
        "attainability.relaxed_reach_s": seconds("attainability.relaxed_reach"),
        "attainability.universal_mp_s": seconds("attainability.universal_mp"),
        "attainability.short_impulse_mp_s": seconds("attainability.short_impulse_mp"),
        "attainability.hull_piece_s": seconds("attainability.hull_piece"),
        "attainability.distance_s": seconds("attainability.hausdorff_distance",
                                            "attainability.directed_distance"),
        "attainability.coincidence_check_s": seconds("attainability.coincidence_check"),
        "attainability.self_s": (per(summary["self"]["attainability"]), "s"),
        "piecewise.side_limit_s": seconds("piecewise.side_limit"),
        "piecewise.side_limit_calls": count(calls["piecewise.side_limit"]),
        "checks.run_battery_s": seconds("checks.run_battery"),
        "checks.battery_failed": count(counts["battery_failed"]),
        "measures.integral_s": seconds("measures.integral"),
        "cli.load_scenario_s": seconds("cli.load_scenario"),
        "cli.dump_json_s": seconds("cli.dump_json"),
        "cli.render_svg_s": seconds("cli.render_svg"),
        "dynamics.trajectory_eval_s": seconds("dynamics.trajectory_eval"),
        "share.columns": ((tot["piecewise.integrate_eta"]
                           + tot["intervals.uniform_partition"]) / wall, "fraction"),
        "share.solve_lp": (tot["simplex.solve_lp"] / wall, "fraction"),
        "share.layer_self": (sum(summary["self"][layer] for layer in spans.LAYERS) / wall,
                             "fraction"),
        "trace.jobs_per_s": (loop_metrics(traced)["jobs_per_s"][0], "1/s"),
        "trace.overhead_jobs_per_s": (loop_metrics(plain)["jobs_per_s"][0]
                                      - loop_metrics(traced)["jobs_per_s"][0], "1/s"),
    }


def environment(args, loops: dict) -> dict:
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": {name: len(loop["jobs"]) for name, loop in loops.items()},
    }


def flags(workload: str, layers: dict) -> list[str]:
    out = []
    if workload in SHARE_FLOOR:
        share, floor = SHARE_FLOOR[workload]
        value = layers[f"share.{share}"][0]
        if value < floor:
            out.append(f"{workload} no longer isolates its layer: share.{share} = "
                       f"{value:.3f} < {floor}")
    coverage = layers["share.layer_self"][0]
    if abs(coverage - 1.0) > 0.05:
        out.append(f"layer self times cover {coverage:.3f} of job time, not within 5% of 1")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "impulse_reach" / "__init__.py").is_file():
        print(f"no impulse_reach sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".bench_out").mkdir(exist_ok=True)

    mods, workload, setup_times = setup(args.workload, args.seed)
    try:
        # A traced run splits its time: plain first, for the overhead, then traced.
        loop_seconds = args.seconds / 2 if args.trace else args.seconds
        loops = {"plain": timed_loop(workload, loop_seconds)}
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(mods)
            try:
                loops["traced"] = timed_loop(workload, loop_seconds, tracer.job_span)
            finally:
                tracer.remove()

        for loop in loops.values():
            check_loop(workload, loop)
        plain = loops["plain"]
        passed = [k for k in plain["jobs"] if k not in plain["errors"]]
        missed = (workload.self_test(passed[0], plain["outputs"][passed[0]]) if passed
                  else ["answers of a run where no job passed"])
    finally:
        workload.close()
    # Set up as often again after the loop, so that the median spans the run.
    _, extra, more_times = setup(args.workload, args.seed)
    extra.close()
    setup_times += more_times

    attempted = sum(len(loop["jobs"]) for loop in loops.values())
    failed = sum(len(loop["errors"]) for loop in loops.values())
    e2e = dict(loop_metrics(plain), setup_s=(statistics.median(setup_times), "s"),
               peak_rss_mb=(peak_rss_mb, "MB"),
               failed_ratio=(failed / attempted, "fraction"))
    layers, warnings = {}, []
    if tracer is not None:
        summary = spans.summarize(tracer)
        layers = layer_metrics(tracer, summary, loops["traced"], plain)
        warnings = flags(args.workload, layers)
        warnings += [f"hook not found: {name}" for name in tracer.missing]
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl.gz")

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {m["name"]: dict(zip(("value", "unit"), values[m["name"]])) for m in chosen}
    env = environment(args, loops)
    record = {"env": env, "end_to_end": e2e, "layers": layers, "setup_times_s": setup_times,
              "job_walls_s": {n: loop["job_walls"] for n, loop in loops.items()},
              "probes_s": {n: loop["probes"] for n, loop in loops.items()},
              "self_test_missed": missed,
              "warnings": warnings,
              "errors": {n: loop["errors"] for n, loop in loops.items() if loop["errors"]}}
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (ROOT / ".bench_out" / name).write_text(json.dumps(record, indent=1, default=str))

    report(record)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0 and not missed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report(record: dict) -> None:
    env = record["env"]
    err = sys.stderr
    print(f"workload {env['workload']}  seed {env['seed']}  jobs {env['jobs']}  "
          f"sha {env['git_sha']}  python {env['python']}  numpy {env['numpy']}  "
          f"nproc {env['nproc']}", file=err)
    for name, (value, unit) in list(record["end_to_end"].items()) + list(record["layers"].items()):
        print(f"  {name:40s} {value:.6g} {unit}", file=err)
    for name, errors in record["errors"].items():
        for k, msg in errors.items():
            print(f"  FAILED {name} job {k}: {msg}", file=err)
    for what in record["self_test_missed"]:
        print(f"  ORACLE SELF-TEST: did not reject the {what}", file=err)
    for warning in record["warnings"]:
        print(f"  WARNING {warning}", file=err)


if __name__ == "__main__":
    raise SystemExit(main())
