"""Names that other code relies on stay defined and callable.

`bench/spans.py` traces package functions and methods by name and skips a
target the package no longer has, so a deleted or renamed target would
silently read 0 in the traced bench.  Its name tables are read from the
source without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

import concatcode

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
