"""The benchmark's workloads: seeded inputs, one job, and its oracle check.

paper      one pass over every CLI command on every shipped scenario.  It is
           what a user of the paper runs, and the only workload that runs
           the exact-Fraction battery, the Hausdorff distances and the CLI.
fine-mesh  one relaxed reachable set of a 14-constraint double integrator
           at mesh 1024 and 24 directions: column assembly dominates.
wide-fan   the same family at mesh 64 (t_grid 65) and 720 directions,
           alternating relaxed_reach and universal_mp: the support LPs
           dominate, with many pivots per LP and few hull vertices.

A workload object holds its inputs after `setup`; `job(k)` runs job k and
returns what the oracle needs; `check(k, output)` returns None or why the
output is wrong.  Nothing here is timed: run.py times around these calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import oracle

POOL = 16            # distinct seeded inputs per run; jobs cycle through them
FAMILY_TIMES = 7     # constraint times, each with a position and a velocity kernel
EPSILON = Fraction(1, 100)


def draw_family(rng: random.Random) -> dict:
    """One member of the seeded double-integrator family.

    c is +1 before the thrust switch and -1 after it; the 14 constraint
    kernels are position and velocity at 7 distinct times; every constraint
    coordinate must stay within +-half_width.
    """
    return {
        "switch": Fraction(rng.randint(100, 900), 1000),
        "times": sorted(Fraction(k, 1000) for k in rng.sample(range(50, 951), FAMILY_TIMES)),
        "half_width": Fraction(rng.randint(125, 500), 1000),
    }


def family_problem(params: dict) -> oracle.Problem:
    kernels = []
    for t in params["times"]:
        kernels += [oracle.position(t), oracle.velocity(t)]
    w = float(params["half_width"])
    return oracle.Problem((params["switch"],), (1.0, -1.0), 1.0, tuple(kernels),
                          ((-w, w),) * len(kernels))


class Family:
    """fine-mesh and wide-fan: one reachable or attraction set per job."""

    def __init__(self, mesh: int, directions: int, t_grid: int | None) -> None:
        self.mesh, self.directions, self.t_grid = mesh, directions, t_grid
        self.cycle = 1 if t_grid is None else 2   # job kinds, taken in turn

    def setup(self, mods: dict, seed: int, root: Path) -> None:
        PiecewiseFn = mods["piecewise"].PiecewiseFn
        dyn = mods["dynamics"]
        self.att = mods["attainability"]
        rng = random.Random(seed)
        self.params = [draw_family(rng) for _ in range(POOL)]
        self.inputs = []
        for p in self.params:
            c = PiecewiseFn.build([0, p["switch"], 1], [[1], [-1]])
            system, _ = dyn.build_double_integrator(c, 1, 1, 1)
            kernels = []
            for t in p["times"]:
                kernels += [dyn.position_kernel(c, t), dyn.velocity_kernel(c, t)]
            w = p["half_width"]
            cons = dyn.ConstraintSpec(tuple(kernels), (((-w, w),) * len(kernels),),
                                      frozenset())
            self.inputs.append((system, cons))
        self.config = self.att.ReachConfig(self.mesh, EPSILON, self.directions)
        self._expected: dict = {}

    def _which(self, k: int) -> tuple[int, bool]:
        """Input index and whether job k computes the attraction set."""
        if self.t_grid is None:
            return k % POOL, False
        return (k // 2) % POOL, k % 2 == 1

    def job(self, k: int):
        i, mp = self._which(k)
        system, cons = self.inputs[i]
        if mp:
            return self.att.universal_mp(system, cons, self.t_grid, self.directions)
        return self.att.relaxed_reach(system, cons, self.config)

    def expected(self, k: int):
        key = self._which(k)
        if key not in self._expected:
            i, mp = key
            problem = family_problem(self.params[i])
            self._expected[key] = (oracle.mp_support(problem, self.t_grid) if mp else
                                   oracle.reach_support(problem, self.mesh,
                                                        float(EPSILON), frozenset()))
        return self._expected[key]

    def check(self, k: int, planar) -> str | None:
        vertices = oracle.set_vertices(planar.to_json())
        return oracle.support_error(vertices, self.expected(k), self.directions)

    def self_test(self, k: int, planar) -> list[str]:
        return oracle.self_test(oracle.set_vertices(planar.to_json()), self.expected(k),
                                self.directions, None, None)

    def close(self) -> None:
        pass


PAPER_SCENARIOS = ("zigzag", "velocity_pin")


class Paper:
    """One job is 9 CLI invocations writing into the job's own directory."""

    cycle = 1

    def setup(self, mods: dict, seed: int, root: Path) -> None:
        self.cli = mods["cli"]
        self.seed = seed
        self.scenarios = {name: root / "scenarios" / f"{name}.json"
                          for name in PAPER_SCENARIOS}
        self.measure = root / "scenarios" / "dirac_measure.json"
        self.tasks = {name: self.cli.load_scenario(path)[2]
                      for name, path in self.scenarios.items()}
        self.out = root / ".bench_out" / f"paper-{seed}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self._expected: dict = {}

    def argvs(self, d: Path) -> list[list[str]]:
        seed = ["--seed", str(self.seed)]
        out = []
        for name, path in self.scenarios.items():
            for cmd in ("reach", "mp", "short-impulse"):
                out.append([cmd, "--scenario", str(path), "--out", str(d / f"{cmd}-{name}.json"),
                            "--svg", str(d / f"{cmd}-{name}.svg")] + seed)
        for name, path in self.scenarios.items():
            out.append(["check", "--scenario", str(path),
                        "--out", str(d / f"check-{name}.json")] + seed)
        out.append(["traj", "--scenario", str(self.scenarios["zigzag"]),
                    "--measure", str(self.measure), "--out", str(d / "traj.csv")] + seed)
        return out

    def job(self, k: int):
        d = Path(tempfile.mkdtemp(prefix=f"job-{k}-", dir=self.out))
        codes = []
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in self.argvs(d):
                codes.append(self.cli.main(argv))
        return d, codes

    def expected(self, name: str, cmd: str):
        key = (name, cmd)
        if key not in self._expected:
            problem = oracle.scenario_problem(self.scenarios[name])
            task = self.tasks[name]
            if cmd == "mp":
                self._expected[key] = oracle.mp_support(problem, int(task["t_grid"]))
            else:
                exact = problem.exact if task.get("relaxation") == "partial" else frozenset()
                self._expected[key] = oracle.reach_support(
                    problem, int(task["mesh"]), float(Fraction(str(task["epsilon"]))), exact)
        return self._expected[key]

    def check(self, k: int, output) -> str | None:
        d, codes = output
        if any(codes):
            return f"exit codes {codes}"
        for name in PAPER_SCENARIOS:
            err = oracle.exact_error((d / f"short-impulse-{name}.json").read_text(),
                                     f"short-impulse-{name}.json")
            if err:
                return err
            for cmd in ("reach", "mp"):
                payload = json.loads((d / f"{cmd}-{name}.json").read_text())
                err = oracle.support_error(oracle.set_vertices(payload["set"]),
                                           self.expected(name, cmd),
                                           int(self.tasks[name]["directions"]))
                if err:
                    return f"{cmd} {name}: {err}"
            report = json.loads((d / f"check-{name}.json").read_text())
            err = oracle.battery_error(report)
            if err:
                return f"check {name}: {err}"
        err = oracle.coincidence_error(json.loads((d / "check-velocity_pin.json").read_text()))
        if err:
            return f"check velocity_pin: {err}"
        return oracle.exact_error((d / "traj.csv").read_text(), "traj-zigzag-dirac.csv")

    def self_test(self, k: int, output) -> list[str]:
        d, _ = output
        payload = json.loads((d / "mp-zigzag.json").read_text())
        return oracle.self_test(oracle.set_vertices(payload["set"]),
                                self.expected("zigzag", "mp"),
                                int(self.tasks["zigzag"]["directions"]),
                                (d / "traj.csv").read_text(), "traj-zigzag-dirac.csv")

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


WORKLOADS = {
    "paper": Paper,
    "fine-mesh": lambda: Family(mesh=1024, directions=24, t_grid=None),
    "wide-fan": lambda: Family(mesh=64, directions=720, t_grid=65),
}
