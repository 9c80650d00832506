"""Every name a library module or a test file imports is used in that file."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import impulse_reach

MODULES = sorted(p for p in Path(impulse_reach.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_FILES])
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_exact_core_loads_no_numpy():
    # numpy belongs to the set engine (attainability, simplex) alone
    modules = ["impulse_reach"] + [f"impulse_reach.{name}" for name in
                                   ("intervals", "piecewise", "measures", "dynamics", "checks")]
    code = "".join(f"import {m}\n" for m in modules) + "import sys\nprint('numpy' in sys.modules)"
    src = str(Path(impulse_reach.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout == "False\n"


def test_checker_flags_an_unused_import():
    source = "from typing import Optional, Sequence\n\ndef f(x: Optional[int]): pass\n"
    assert _unused_imports(source) == ["Sequence (line 1)"]
