"""The package's public names, its lazy loading, its immutable records, and the
bindings the benchmark tracer wraps."""

import ast
import importlib
from pathlib import Path

import pytest

import soplab
from soplab import (
    BatteryState,
    Direction,
    ErrorSource,
    Window,
    analytic_error,
    build_true_context,
    predict_cc,
    sop_cc,
    sop_cv,
)
from soplab.cli import Scenario

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


def test_star_import_binds_all():
    namespace = {}
    exec("from soplab import *", namespace)
    assert set(soplab.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(soplab, name) for name in soplab.__all__)


def test_dir_covers_all():
    assert set(soplab.__all__) <= set(dir(soplab))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        soplab.no_such_name
    assert not hasattr(soplab, "no_such_name")


def _records(params, curve, soa):
    state, window = BatteryState(0.5), Window(10, 1.0)
    direction = Direction.DISCHARGE
    ctx = build_true_context(state, params, curve, window, direction, soa)
    return [
        sop_cc(state, params, curve, window, direction, soa),
        sop_cv(state, params, curve, window, direction, soa)[1],
        predict_cc(state, params, curve, 1.2, 5.0, window),
        analytic_error(ErrorSource.SOC, 0.01, ctx, "soc"),
        ctx,
        Scenario(state, params, curve, window, direction, soa),
    ]


def test_records_are_immutable_named_tuples(params, linear_curve, soa):
    records = _records(params, linear_curve, soa)
    assert [type(r).__name__ for r in records] == [
        "SopResult", "PomTrace", "CcPrediction", "ErrorBreakdown", "TrueContext", "Scenario"
    ]
    for record in records:
        assert isinstance(record, tuple)
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no __dict__ to grow either
        assert repr(record).startswith(f"{type(record).__name__}({name}=")
