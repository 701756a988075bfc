"""Names that other code relies on stay defined and callable.

`bench/spans.py` traces package functions and methods by name and skips a
target the package no longer has, so a deleted or renamed target would
silently read 0 in the traced bench.  Its name tables are read from the
source without importing it.  The README's python example is run as written.
"""

import ast
import importlib
import re
from fractions import Fraction
from pathlib import Path

import pytest

import concatcode

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def _span_targets() -> list[tuple[str, str]]:
    tables = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            tables[node.targets[0].id] = node.value
    return [*ast.literal_eval(tables["FUNCTIONS"]), *ast.literal_eval(tables["METHODS"])]


TARGETS = _span_targets()


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_bench_span_target_is_callable(module, name):
    target = importlib.import_module(f"concatcode.{module}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_every_exported_name_resolves():
    missing = [name for name in concatcode.__all__ if not hasattr(concatcode, name)]
    assert missing == []


def test_readme_python_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(example, {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0] == str(tuple(map(Fraction, (0, 0, 0, "5/2", 0, "-3/2"))))
