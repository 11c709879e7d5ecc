"""The package's public names, and the bindings the benchmark tracer wraps."""

import ast
import importlib
from pathlib import Path

import soplab

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _tracer_bindings():
    """(module, attribute) pairs of layertrace's SPANS and COUNTS tables, read
    from its source without importing it."""
    tables = {}
    for node in ast.parse(LAYERTRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            tables[node.target.id] = ast.literal_eval(node.value)
    return [
        binding
        for name in ("SPANS", "COUNTS")
        for bindings in tables[name].values()
        for binding in bindings
    ]


def test_tracer_bindings_resolve():
    bindings = _tracer_bindings()
    assert bindings
    missing = [
        f"soplab.{module}.{attr}"
        for module, attr in bindings
        if not hasattr(importlib.import_module(f"soplab.{module}"), attr)
    ]
    assert missing == []


def test_all_resolves_without_duplicates():
    assert len(soplab.__all__) == len(set(soplab.__all__))
    assert [name for name in soplab.__all__ if not hasattr(soplab, name)] == []
