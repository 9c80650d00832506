"""The README's examples run as written: its Library snippet and the three
commands under the CLI section's "Examples:"."""

import json
import re
import shlex
import shutil
from pathlib import Path

from impulse_reach.attainability import PlanarSet
from impulse_reach.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def fenced_block(after: str, lang: str) -> str:
    """The first ```lang block after the line `after`."""
    start = README.index(f"\n{after}\n")
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(README, start)
    return match.group(1)


def test_library_snippet_runs():
    namespace: dict = {}
    exec(fenced_block("## Library", "python"), namespace)
    sets = [v for v in namespace.values() if isinstance(v, PlanarSet)]
    assert len(sets) == 4 and not any(ps.is_empty for ps in sets)


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    commands = fenced_block("Examples:", "sh").replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line) for line in commands if line.strip()]
    assert len(argvs) == 3 and all(argv[0] == "impulse-reach" for argv in argvs)
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    stdout = []
    for argv in argvs:
        assert main(argv[1:]) == 0, argv
        stdout.append(capsys.readouterr().out)
    assert json.loads(stdout[0])["command"] == "short-impulse"
    assert (tmp_path / "zigzag.svg").read_text().startswith("<svg")
    assert json.loads((tmp_path / "reach.json").read_text())["feasible"] is True
    rows = stdout[2].splitlines()
    assert rows[0] == "t,x1,x2" and len(rows) == 6
