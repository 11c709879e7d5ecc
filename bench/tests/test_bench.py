"""Tests of the benchmark itself: seeded inputs, exact work counters, the
result line, and refusal outside a checkout.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_SUFFIXES = (".calls", ".steps_per_solve", ".cc_steps_per_check")


def traced_metrics(name: str, seed: int, ops: int) -> tuple[dict, object]:
    w, _ = run.timed_setup(wl, name, seed)
    w.trace_ops = ops
    try:
        return run.per_layer(wl, w, floor_ms=50.0), w
    finally:
        w.close()


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS)


@pytest.mark.parametrize("name", ["bms-tick-cp", "validate-grid", "cli-oneshot"])
def test_inputs_depend_only_on_seed(name):
    def first(seed):
        w, _ = run.timed_setup(wl, name, seed)
        try:
            return repr(w.first_ops(14))
        finally:
            w.close()

    assert first(3) == first(3)
    assert first(3) != first(4)


@pytest.mark.parametrize(
    "name, ops",
    [("bms-tick-cc", 60), ("bms-tick-cccv", 12), ("bms-tick-cp", 6), ("validate-grid", 10), ("cli-oneshot", 7)],
)
def test_exact_counters_repeat_for_a_seed(name, ops):
    first, _ = traced_metrics(name, 5, ops)
    second, _ = traced_metrics(name, 5, ops)
    exact = {k: v for k, v in first.items() if k.endswith(EXACT_SUFFIXES)}
    assert exact == {k: second[k] for k in exact}
    assert any(v[0] for v in exact.values())  # the counters saw work


def test_per_layer_metrics_match_spec():
    metrics, w = traced_metrics("validate-grid", 2, 10)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(units[k] == unit for k, (_, unit) in metrics.items())
    assert metrics["oracle.cc_steps_per_check"][0] > 0
    assert metrics["modes.sop_cp.steps_per_solve"][0] > 0
    assert not w.failed_ops


def test_known_cc_defect_is_reported_not_failed():
    metrics, w = traced_metrics("validate-grid", 1, 60)
    assert w.cc_checks == 120 and w.kind_counts.get("cc_oracle", 0) > 0
    assert metrics["oracle.cc_disagree_share"][0] == w.kind_counts["cc_oracle"] / 120
    assert not w.failed_ops and metrics["failed_share"][0] == 0.0


def test_tracer_restores_originals():
    from soplab import ecm, modes

    before = (ecm.ocv, modes.check_point, modes.sop_cp)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert ecm.ocv is not before[0]
    finally:
        tracer.uninstall()
    assert (ecm.ocv, modes.check_point, modes.sop_cp) == before


def test_self_time_excludes_child_spans():
    tracer = layertrace.Tracer()
    inner = tracer._span("inner", lambda: sum(range(20000)))
    outer = tracer._span("outer", lambda: inner())
    outer()
    calls, total, self_ns = tracer.spans["outer"]
    assert calls == 1 and self_ns == total - tracer.spans["inner"][1]


def test_result_line_carries_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "bms-tick-cc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] > 1000
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources():
    bare = wl.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "bms-tick-cc", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_percentile_does_not_jump_across_a_gap():
    assert abs(wl.percentile([float(i) for i in range(1, 1002)], 50) - 501.0) < 1e-6
    balanced = wl.percentile([1.0] * 150 + [2.0] * 150, 50)
    tipped = wl.percentile([1.0] * 151 + [2.0] * 149, 50)
    assert abs(balanced - 1.5) < 1e-9 and abs(tipped - balanced) < 0.1


def test_nmc_table_is_monotone_with_twelve_knots():
    table = wl.nmc_ocv()
    assert len(table) == 12
    assert table[0] == (0.0, 3.0) and abs(table[-1][1] - 4.2) < 1e-9
    assert all(b[1] > a[1] for a, b in zip(table, table[1:]))
