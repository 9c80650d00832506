"""The shipped commands' output bytes, pinned.

tests/golden holds the --out and --svg files of reach, mp and short-impulse
on both shipped scenarios, and the check report of both for the default seed
and for seed 42.  Any change to a byte fails here; a change that is meant to
alter them must regenerate the files and say why.
"""

from pathlib import Path

import pytest

from impulse_reach.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("scenario", ["zigzag", "velocity_pin"])
@pytest.mark.parametrize("command", ["reach", "mp", "short-impulse"])
def test_output_bytes_match_golden_files(tmp_path, command, scenario):
    out, svg = tmp_path / "out.json", tmp_path / "out.svg"
    assert main([command, "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"),
                 "--out", str(out), "--svg", str(svg)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{command}_{scenario}.json").read_bytes()
    assert svg.read_bytes() == (GOLDEN / f"{command}_{scenario}.svg").read_bytes()


@pytest.mark.parametrize("scenario", ["zigzag", "velocity_pin"])
@pytest.mark.parametrize("seed", [None, 42])
def test_check_report_matches_golden_files(tmp_path, scenario, seed):
    out = tmp_path / "check.json"
    argv = ["check", "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"),
            "--out", str(out)]
    suffix = ""
    if seed is not None:
        argv += ["--seed", str(seed)]
        suffix = f"_seed{seed}"
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / f"check_{scenario}{suffix}.json").read_bytes()
