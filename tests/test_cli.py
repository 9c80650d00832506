import json
from fractions import Fraction
from pathlib import Path

import pytest

from impulse_reach.attainability import PlanarSet
from impulse_reach.cli import dump_json, load_scenario, main, render_svg

F = Fraction

ZIGZAG_C = {"breakpoints": ["0", "1/2", "1"], "pieces": [[1], [-1]],
            "point_values": [1, -1, -1]}
CONST_C = {"breakpoints": ["0", "1"], "pieces": [[1]], "point_values": [1, 1]}
VELOCITY_PIN = Path(__file__).resolve().parents[1] / "scenarios" / "velocity_pin.json"
ZIGZAG = VELOCITY_PIN.with_name("zigzag.json")


def write_scenario(tmp_path, name="scenario.json", **extra):
    raw = {"domain": {"t0": "0", "theta0": "1"}, "b": 1}
    raw.update(extra)
    path = tmp_path / name
    path.write_text(dump_json(raw))
    return path


def zigzag_scenario(tmp_path):
    return write_scenario(tmp_path, c=ZIGZAG_C)


def reach_scenario(tmp_path, mesh=4):
    return write_scenario(tmp_path, c=CONST_C,
                          task={"mesh": mesh, "epsilon": "1/100", "directions": 64})


def test_load_scenario_requires_exactly_one_kernel_source(tmp_path):
    path = write_scenario(tmp_path)
    assert main(["reach", "--scenario", str(path)]) == 2
    path = write_scenario(tmp_path, c=CONST_C, pi=[CONST_C])
    assert main(["reach", "--scenario", str(path)]) == 2


def test_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["reach", "--scenario", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["reach", "--scenario", str(missing)]) == 2


def test_reach_command_segment(tmp_path, capsys):
    path = reach_scenario(tmp_path)
    out = tmp_path / "reach.json"
    code = main(["reach", "--scenario", str(path), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["feasible"] is True
    segs = payload["set"]["segments"]
    assert len(segs) == 1
    assert sorted(segs[0]) == [[0.125, 1.0], [0.875, 1.0]]


def test_reach_epsilon_override_changes_full_relaxation(tmp_path):
    path = write_scenario(
        tmp_path, c=CONST_C,
        constraints={"builders": [{"kind": "velocity", "t": "1/2"}],
                     "Y": [[["0", "0"]]], "J": [1]},
        task={"mesh": 64, "epsilon": "1/100", "directions": 45,
              "relaxation": "full"})
    wide, narrow = tmp_path / "w.json", tmp_path / "n.json"
    assert main(["reach", "--scenario", str(path), "--out", str(wide),
                 "--epsilon", "1/20"]) == 0
    assert main(["reach", "--scenario", str(path), "--out", str(narrow),
                 "--epsilon", "0.002"]) == 0
    seg_w = sorted(json.loads(wide.read_text())["set"]["segments"][0])
    seg_n = sorted(json.loads(narrow.read_text())["set"]["segments"][0])
    # a looser relaxation admits strictly more first-moment range
    assert seg_w[1][0] > seg_n[1][0]


def test_unparsable_epsilon_exits_2(tmp_path):
    path = reach_scenario(tmp_path)
    for epsilon in ("abc", "1/0", "inf"):
        assert main(["reach", "--scenario", str(path), "--epsilon", epsilon]) == 2


@pytest.mark.parametrize("literal", ['"1/0"', "1e999", '"1e999"', "1" + "0" * 400],
                         ids=["1/0", "1e999", "string 1e999", "integer 10^400"])
@pytest.mark.parametrize("where", ["b", "box bound", "coefficient", "task epsilon"])
def test_a_zero_denominator_or_an_infinite_number_exits_2(tmp_path, capsys, where, literal):
    # JSON reads 1e999 as an infinite float; the string "1e999" and the JSON
    # integer 10^400 read exactly, beyond the largest finite float
    raw = json.loads(VELOCITY_PIN.read_text())
    if where == "b":
        raw["b"] = "BAD"
    elif where == "box bound":
        raw["constraints"]["Y"] = [[["0", "BAD"]]]
    elif where == "coefficient":
        raw["c"]["pieces"] = [["BAD"]]
    else:
        raw["task"]["epsilon"] = "BAD"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw).replace('"BAD"', literal))
    for command in ("reach", "mp", "check"):
        assert main([command, "--scenario", str(path)]) == 2, command
    assert capsys.readouterr().err.count("validation error") == 3


def test_reach_mesh_override(tmp_path):
    path = reach_scenario(tmp_path, mesh=4)
    out = tmp_path / "reach.json"
    assert main(["reach", "--scenario", str(path), "--out", str(out),
                 "--mesh", "8"]) == 0
    payload = json.loads(out.read_text())
    assert sorted(payload["set"]["segments"][0]) == [[0.0625, 1.0], [0.9375, 1.0]]


def test_short_impulse_zigzag_json_exact(tmp_path):
    path = zigzag_scenario(tmp_path)
    out = tmp_path / "mp.json"
    assert main(["short-impulse", "--scenario", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["set"]
    assert sorted(payload["points"]) == [[0, -1], [1, 1]]
    seg = payload["segments"][0]
    assert sorted(seg) == [["-1/2", -1], ["1/2", 1]]
    arcs = payload["arcs"]
    assert arcs[0]["param"] == ["0", "1/2"]
    assert arcs[0]["coeffs_x"] == [1, -1] and arcs[0]["coeffs_y"] == [1]
    assert arcs[1]["param"] == ["1/2", "1"]
    assert arcs[1]["coeffs_x"] == [-1, 1] and arcs[1]["coeffs_y"] == [-1]


def test_mp_command(tmp_path):
    path = write_scenario(
        tmp_path, c=CONST_C,
        constraints={"builders": [{"kind": "velocity", "t": "1/2"}],
                     "Y": [[["0", "0"]]], "J": [1]},
        task={"t_grid": 65, "directions": 64, "mesh": 16, "epsilon": "1/100"})
    out = tmp_path / "mp.json"
    assert main(["mp", "--scenario", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    seg = payload["set"]["segments"][0]
    assert sorted(seg) == [[0.0, 1.0], [0.5, 1.0]]


def test_traj_command(tmp_path):
    path = write_scenario(tmp_path, c=CONST_C)
    measure = tmp_path / "measure.json"
    measure.write_text(dump_json({
        "density": {"breakpoints": ["0", "1"], "pieces": [[0]],
                    "point_values": [0, 0]},
        "atoms": [{"loc": "1/2", "side": "L", "mass": 1}],
    }))
    out = tmp_path / "traj.csv"
    assert main(["traj", "--scenario", str(path), "--measure", str(measure),
                 "--samples", "3", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "t,x1,x2",
        "0,0,0",
        "1/2,0,1",
        "1,1/2,1",
    ]


@pytest.mark.parametrize("side", ["", None, 1, "rubbish", "lower", "Lx"])
def test_traj_atom_with_bad_side_exits_2(tmp_path, side):
    path = write_scenario(tmp_path, c=CONST_C)
    measure = tmp_path / "measure.json"
    measure.write_text(dump_json({
        "density": {"breakpoints": ["0", "1"], "pieces": [[0]],
                    "point_values": [0, 0]},
        "atoms": [{"loc": "1/2", "side": side, "mass": 1}],
    }))
    assert main(["traj", "--scenario", str(path), "--measure", str(measure)]) == 2


def test_traj_requires_measure(tmp_path):
    path = write_scenario(tmp_path, c=CONST_C)
    assert main(["traj", "--scenario", str(path)]) == 2


def test_check_command_passes(tmp_path):
    path = write_scenario(
        tmp_path, c=CONST_C,
        constraints={"builders": [{"kind": "velocity", "t": "1/2"}],
                     "Y": [[["0", "0"]]], "J": [1]},
        task={"mesh": 16, "epsilon": "1/100", "directions": 32, "t_grid": 33})
    out = tmp_path / "check.json"
    assert main(["check", "--scenario", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert all(r["passed"] for r in payload["results"])


def test_determinism_byte_identical(tmp_path):
    path = reach_scenario(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["reach", "--scenario", str(path), "--out", str(out1),
                 "--svg", str(svg1), "--seed", "7"]) == 0
    assert main(["reach", "--scenario", str(path), "--out", str(out2),
                 "--svg", str(svg2), "--seed", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert svg1.read_bytes() == svg2.read_bytes()


def test_render_svg_empty_and_segment(tmp_path):
    empty_path = tmp_path / "empty.svg"
    render_svg(PlanarSet(), empty_path)
    text = empty_path.read_text()
    assert "<svg" in text and "polyline" not in text and "circle" not in text

    seg_path = tmp_path / "seg.svg"
    render_svg(PlanarSet(segments=(((0.0, 0.0), (1.0, 1.0)),)), seg_path)
    text = seg_path.read_text()
    assert text.count("<polyline") == 1
    assert "0,0" not in text.split("polyline")[0]


def test_render_svg_zigzag_figure(tmp_path):
    path = zigzag_scenario(tmp_path)
    svg = tmp_path / "zig.svg"
    assert main(["short-impulse", "--scenario", str(path), "--out",
                 str(tmp_path / "z.json"), "--svg", str(svg)]) == 0
    text = svg.read_text()
    # two arcs + one jump segment as polylines, two endpoint markers
    assert text.count("<polyline") == 3
    assert text.count("<circle") == 2


def test_check_schedule_with_two_target_boxes_exits_2(tmp_path):
    # two feasible boxes make each reach set a union of two segments, whose
    # distances have no exact corner form
    path = write_scenario(
        tmp_path, c=CONST_C,
        constraints={"builders": [{"kind": "velocity", "t": "1/2"}],
                     "Y": [[["0", "1/4"]], [["3/4", "1"]]]},
        task={"mesh": 8, "epsilon": "1/100", "directions": 16, "t_grid": 17,
              "schedule": [[8, 0.05]]})
    assert main(["check", "--scenario", str(path)]) == 2


def test_check_with_an_empty_schedule_exits_2(tmp_path, capsys):
    # an empty schedule has no final distance to report
    path = write_scenario(tmp_path, c=ZIGZAG_C, task={"schedule": []})
    assert main(["check", "--scenario", str(path)]) == 2
    assert "nonempty schedule" in capsys.readouterr().err


@pytest.mark.parametrize("task", [
    {"mesh": None}, {"epsilon": None}, {"t_grid": [3]}, {"directions": None},
    {"seed": None}, {"schedule": 5}, {"samples": None}, {"mesh": 64.7},
    {"schedule": [[64.5, 0.05]]}, {"schedule": [[64, None]]}, {"t-grid": 9}],
    ids=lambda task: json.dumps(task))
def test_a_wrongly_typed_or_unknown_task_value_exits_2(tmp_path, capsys, task):
    path = write_scenario(tmp_path, c=ZIGZAG_C, task=task)
    measure = tmp_path / "measure.json"
    measure.write_text(dump_json({
        "density": {"breakpoints": ["0", "1"], "pieces": [[0]], "point_values": [0, 0]},
        "atoms": []}))
    for command in ("reach", "mp", "check", "traj"):
        out = tmp_path / f"{command}.out"
        assert main([command, "--scenario", str(path), "--measure", str(measure),
                     "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("validation error: task ") and not out.exists()


@pytest.mark.parametrize("relaxation", ["parital", "Full", None])
def test_reach_rejects_an_unknown_relaxation(tmp_path, capsys, relaxation):
    path = write_scenario(tmp_path, c=CONST_C,
                          task={"mesh": 4, "epsilon": "1/100", "relaxation": relaxation})
    out = tmp_path / "reach.json"
    assert main(["reach", "--scenario", str(path), "--out", str(out)]) == 2
    assert "relaxation" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("J", [[1.7], [True], ["1"], [1.0], 1],
                         ids=lambda J: json.dumps(J))
def test_reach_rejects_a_non_integer_J_index(tmp_path, capsys, J):
    raw = json.loads(VELOCITY_PIN.read_text())
    raw["constraints"]["J"] = J
    path = tmp_path / "scenario.json"
    path.write_text(dump_json(raw))
    out = tmp_path / "reach.json"
    assert main(["reach", "--scenario", str(path), "--out", str(out)]) == 2
    assert "constraint J" in capsys.readouterr().err and not out.exists()


CURVED_S = {"breakpoints": ["0", "1"], "pieces": [["1/9", "-2/3", 1]],
            "point_values": ["1/9", "4/9"]}


@pytest.mark.parametrize("t_grid", [129, 1025])
def test_mp_with_no_sampled_time_on_a_curved_constraint_exits_3(tmp_path, capsys, t_grid):
    # s(t) = (t - 1/3)^2 with target 0 holds only at t = 1/3, off every grid:
    # the target is feasible, but no sample meets it
    path = write_scenario(tmp_path, c=ZIGZAG_C,
                          constraints={"s": [CURVED_S], "Y": [[["0", "0"]]]})
    out = tmp_path / "mp.json"
    assert main(["mp", "--scenario", str(path), "--t-grid", str(t_grid),
                 "--out", str(out)]) == 3
    assert "cannot decide feasibility" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("c_end", ["1", "2"])
def test_thrust_orientation_scenario_off_the_unit_interval_exits_2(tmp_path, capsys, c_end):
    # the double integrator lives on [0,1]: a thrust on [0,2] is refused by
    # its builder, and a thrust on [0,1] by the scenario's domain [0,2]
    c = {"breakpoints": ["0", c_end], "pieces": [[1]], "point_values": [1, 1]}
    path = write_scenario(tmp_path, c=c, domain={"t0": "0", "theta0": "2"})
    assert main(["reach", "--scenario", str(path)]) == 2
    assert "validation error" in capsys.readouterr().err


def test_infeasible_reach_reports_feasible_false(tmp_path):
    path = write_scenario(
        tmp_path, c=CONST_C,
        constraints={"builders": [{"kind": "velocity", "t": "1"}],
                     "Y": [[["10", "11"]]]},
        task={"mesh": 8, "epsilon": "1/100", "directions": 16})
    out = tmp_path / "reach.json"
    assert main(["reach", "--scenario", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["feasible"] is False


def test_explicit_pi_kernels_general_domain(tmp_path):
    # terminal kernels supplied directly on [0, 2]; no thrust orientation
    pi1 = {"breakpoints": ["0", "1", "2"], "pieces": [[2, -1], [0]],
           "point_values": [2, 1, 0]}
    pi2 = {"breakpoints": ["0", "2"], "pieces": [[1]], "point_values": [1, 1]}
    path = tmp_path / "general.json"
    path.write_text(dump_json({
        "domain": {"t0": "0", "theta0": "2"}, "b": 1, "pi": [pi1, pi2],
        "task": {"mesh": 8, "epsilon": "1/100", "directions": 32, "t_grid": 17},
    }))
    out = tmp_path / "reach.json"
    assert main(["reach", "--scenario", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    seg = sorted(payload["set"]["segments"][0])
    # cell averages of pi1 range from 0 (last cell) to 2 - 1/8 (first cell)
    assert seg[0] == [0.0, 1.0]
    assert seg[1] == [1.875, 1.0]

    out_mp = tmp_path / "mp.json"
    assert main(["mp", "--scenario", str(path), "--out", str(out_mp)]) == 0
    mp_seg = sorted(json.loads(out_mp.read_text())["set"]["segments"][0])
    assert mp_seg == [[0.0, 1.0], [2.0, 1.0]]

    out_si = tmp_path / "si.json"
    assert main(["short-impulse", "--scenario", str(path),
                 "--out", str(out_si)]) == 0
    si = json.loads(out_si.read_text())["set"]
    assert len(si["arcs"]) == 2
    # pi1 drops from 1 to 0 across t=1, so there is one jump segment
    assert sorted(si["segments"][0]) == [[0, 1], [1, 1]]

    # traj needs the thrust orientation, which this scenario lacks
    measure = tmp_path / "m.json"
    measure.write_text(dump_json({
        "density": {"breakpoints": ["0", "2"], "pieces": [["1/2"]],
                    "point_values": ["1/2", "1/2"]}, "atoms": []}))
    assert main(["traj", "--scenario", str(path),
                 "--measure", str(measure)]) == 2


def test_non_planar_scenario_exits_2(tmp_path):
    path = write_scenario(tmp_path, pi=[CONST_C] * 3,
                          task={"mesh": 4, "epsilon": "1/100", "directions": 16,
                                "t_grid": 9})
    for command in ("reach", "mp", "short-impulse"):
        assert main([command, "--scenario", str(path)]) == 2, command


@pytest.mark.parametrize("command", ["reach", "mp"])
@pytest.mark.parametrize("directions", ["0", "2"])
def test_fewer_than_three_directions_exits_2(tmp_path, command, directions):
    path = zigzag_scenario(tmp_path)
    out = tmp_path / "set.json"
    assert main([command, "--scenario", str(path), "--directions", directions,
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("scenario", [ZIGZAG, VELOCITY_PIN], ids=["zigzag", "velocity_pin"])
def test_check_ignores_directions(tmp_path, scenario):
    # no set depends on directions, and check prints no set
    outs = [tmp_path / "default.json", tmp_path / "two.json"]
    assert main(["check", "--scenario", str(scenario), "--out", str(outs[0])]) == 0
    assert main(["check", "--scenario", str(scenario), "--directions", "2",
                 "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_builders_require_thrust_orientation(tmp_path):
    pi2 = {"breakpoints": ["0", "1"], "pieces": [[1]], "point_values": [1, 1]}
    path = tmp_path / "nob.json"
    path.write_text(dump_json({
        "domain": {"t0": "0", "theta0": "1"}, "b": 1, "pi": [pi2],
        "constraints": {"builders": [{"kind": "velocity", "t": "1/2"}],
                        "Y": [[["0", "0"]]]},
    }))
    assert main(["reach", "--scenario", str(path)]) == 2


def test_load_scenario_roundtrip_objects(tmp_path):
    path = write_scenario(
        tmp_path, c=ZIGZAG_C,
        constraints={"builders": [{"kind": "position", "t": "3/4"},
                                  {"kind": "velocity", "t": "1/2"}],
                     "Y": [[["0", "1"], [None, "1/2"]]], "J": [2]})
    system, cons, task = load_scenario(path)
    assert system.dim == 2
    assert cons.n_constraints == 2
    assert cons.J == frozenset({2})
    assert cons.boxes[0][1] == (None, F(1, 2))
    assert task["mesh"] == 64
