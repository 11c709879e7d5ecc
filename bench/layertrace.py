"""Layer tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces the public functions of each soplab module with
wrappers defined here; ``uninstall`` puts the originals back. Nothing under
``src/`` is modified. Two kinds of wrapper exist:

* span wrappers time a call and subtract the time of nested spans, giving
  per-name call counts, total time and self time;
* count wrappers (for hot leaves such as ``ecm.ocv``) only count calls and
  attribute each call to the innermost open span, so that work ratios such as
  "steps simulated per oracle check" are exact.

Aggregates are kept in memory and written out once, as JSON, by ``dump``.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns

# Span name -> (module, function) pairs grouped under it.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "peak_cc.sop_cc": (("peak_cc", "sop_cc"),),
    "modes.sop_cv": (("modes", "sop_cv"),),
    "modes.sop_cccv": (("modes", "sop_cccv"),),
    "modes.sop_cp": (("modes", "sop_cp"),),
    "modes.find_mode_shift_kc": (("modes", "find_mode_shift_kc"),),
    "oracle.brute_peak_current_cc": (("oracle", "brute_peak_current_cc"),),
    "oracle.brute_peak_power_cp": (("oracle", "brute_peak_power_cp"),),
    "ecm.simulate_profile": (("ecm", "simulate_profile"),),
    "error_lab.build_true_context": (("error_lab", "build_true_context"),),
    "error_lab.sweep": (("error_lab", "sweep"),),
    "fileio.read": (
        ("fileio", "read_params"),
        ("fileio", "read_ocv"),
        ("fileio", "read_soa"),
        ("fileio", "read_profile"),
    ),
    "fileio.write_text": (("fileio", "write_text"),),
    "cli.main": (("cli", "main"),),
    "cli.build_parser": (("cli", "build_parser"),),
    "cli.cmd": (
        ("cli", "cmd_sop"),
        ("cli", "cmd_simulate"),
        ("cli", "cmd_sweep_error"),
        ("cli", "cmd_validate"),
    ),
}

# Counted leaf -> every (module, attribute) binding through which it is called.
COUNTS: dict[str, tuple[tuple[str, str], ...]] = {
    "ecm.ocv": (("ecm", "ocv"),),
    "ecm.step": (("ecm", "step"),),
    "ecm.predict_cc": (("ecm", "predict_cc"),),
    "soa.check_point": (
        ("soa", "check_point"),
        ("modes", "check_point"),
        ("oracle", "check_point"),
        ("cli", "check_point"),
    ),
    "modes.solve_cp_step": (("modes", "solve_cp_step"),),
}

NO_SPAN = "<none>"  # attribution of leaf calls made outside any span


class Tracer:
    """Aggregating span and call-count recorder for one process."""

    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, dict[str, int]] = {}  # leaf -> {enclosing span: calls}
        self.infeasible = 0  # solve_cp_step calls that raised PowerInfeasibleError
        self._stack: list[list] = []  # open spans: [name, child_ns]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        stack = self._stack
        stats = self.spans.setdefault(name, [0, 0, 0])

        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _count(self, name: str, fn):
        stack = self._stack
        per_parent = self.counts.setdefault(name, {})

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else NO_SPAN
            per_parent[parent] = per_parent.get(parent, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_cp_step(self, name: str, fn, infeasible_error):
        counted = self._count(name, fn)

        def wrapper(*args, **kwargs):
            try:
                return counted(*args, **kwargs)
            except infeasible_error:
                self.infeasible += 1
                raise

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every traced binding; originals are kept for ``uninstall``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {
            name: importlib.import_module(f"soplab.{name}")
            for name in ("ecm", "soa", "peak_cc", "modes", "oracle", "error_lab", "fileio", "cli")
        }
        infeasible_error = importlib.import_module("soplab.exceptions").PowerInfeasibleError
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name, bindings in table.items():
                for mod_name, attr in bindings:
                    module = mods[mod_name]
                    original = getattr(module, attr)
                    if name == "modes.solve_cp_step":
                        wrapped = self._count_cp_step(name, original, infeasible_error)
                    else:
                        wrapped = make(name, original)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "infeasible": self.infeasible}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


def merge(snapshots: list[dict]) -> dict:
    """Sum several ``Tracer.snapshot`` results (one per traced process)."""
    out: dict = {"spans": {}, "counts": {}, "infeasible": 0}
    for snap in snapshots:
        for name, stats in snap["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0, 0])
            for i, value in enumerate(stats):
                acc[i] += value
        for name, per_parent in snap["counts"].items():
            acc = out["counts"].setdefault(name, {})
            for parent, value in per_parent.items():
                acc[parent] = acc.get(parent, 0) + value
        out["infeasible"] += snap["infeasible"]
    return out


def calls(snap: dict, name: str) -> int:
    """Calls of a span or counted leaf."""
    if name in snap["spans"]:
        return snap["spans"][name][0]
    return sum(snap["counts"].get(name, {}).values())


def self_ms(snap: dict, name: str) -> float:
    return snap["spans"].get(name, [0, 0, 0])[2] / 1e6


def calls_under(snap: dict, leaf: str, span: str) -> int:
    """Calls of ``leaf`` made while ``span`` was the innermost open span."""
    return snap["counts"].get(leaf, {}).get(span, 0)


def run_cli_traced(out_path: str) -> None:
    """Entry point of a traced CLI process: trace ``soplab.cli.console_main``
    and write the aggregates to ``out_path`` however it exits."""
    tracer = Tracer()
    tracer.install()
    from soplab.cli import console_main

    try:
        console_main()
    finally:
        tracer.dump(out_path)
