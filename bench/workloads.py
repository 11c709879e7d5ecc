"""Seeded workloads: input generation, the closed measuring loop, and the
correctness checks for each.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one returned. An operation is one BMS tick, a
discharge and a charge solve (``bms-tick-*``), one analytic-versus-oracle grid
point in both directions (``validate-grid``) or one ``soplab`` process
(``cli-oneshot``). Keeping both directions in one operation makes K the only
class of the latency mix, so p50 and p90 fall inside a K class rather than on
the boundary between a fast and a slow direction. Checks run between operations and
after the loop, never inside a timed region.

soplab is imported inside ``setup`` so that its import counts as set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from bisect import bisect_right
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Canonical acceptance fixture: 2 Ah cell, R0=0.05, R1=0.03, tau=10 s.
PARAMS = dict(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0, coulombic_eff=1.0)
SOA = dict(vt_min=2.8, vt_max=4.3, i_max_dis=10.0, i_max_chg=-4.0, soc_min=0.1, soc_max=0.9)
LINEAR_OCV = ((0.0, 3.0), (1.0, 4.2))
NMC_KNOTS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

DT = 1.0
TICK_STEPS = (10, 30, 300)
GRID_STEPS = (1, 10, 30, 60, 300)

# Pass bounds of the oracle checks, and the oracles' bisection tolerance:
# one thousandth of the bound, so oracle error cannot decide a verdict.
CC_BOUND_A = 1e-6
CP_BOUND_W = 1e-6
ORACLE_TOL_SHARE = 1e-3

# Fixed-capacity latency store: its memory is the same whatever the speed,
# so peak RSS does not grow with the number of operations a run completes.
SAMPLE_CAPACITY = 1_000_000

# Machine-speed reference. The host's speed swings by tens of percent over
# seconds, so the loop times a fixed reference task after every
# ``ref_every_ns`` of busy time and rescales each operation by the median of
# the nearby reference times (REF_WINDOW on each side), expressing latencies
# at the speed where the reference takes ``ref_nominal_ns``.
REF_NOMINAL_NS = 400_000  # reference() on a quiet 2-vCPU machine
REF_WINDOW = 5

# Check kinds that record a known accuracy defect rather than a failure:
# ``sop_cc`` disagrees with the brute-force oracle off the design point
# (ROADMAP item 2). They are counted and reported as
# ``oracle.cc_disagree_share``, but an operation that only trips them has not
# failed. Every other kind fails the operation and marks the run incorrect.
KNOWN_DEFECT_KINDS = frozenset({"cc_oracle"})


def nmc_ocv() -> tuple[tuple[float, float], ...]:
    """12-knot monotone NMC-like table: a steep knee below 10% SOC on top of
    a convex rise, 3.0 V empty to 4.2 V full."""
    return tuple(
        (s, 3.0 + 1.2 * (0.35 * (1.0 - math.exp(-s / 0.04)) + 0.65 * s**1.3))
        for s in NMC_KNOTS
    )


class _Row(NamedTuple):
    a: float
    b: int
    c: float


_KNOTS = [i / 64 for i in range(65)]


def reference() -> float:
    """Fixed pure-Python work in soplab's mix: an RC recurrence with
    ``math.exp``, table bisection, tuple construction and attribute reads.
    It depends on no soplab code, so no change to soplab moves it."""
    acc, vp, alpha = 0.0, 0.1, math.exp(-0.1)
    for j in range(400):
        vp = vp * alpha + 0.01 * (1.0 - alpha)
        row = _Row(vp, bisect_right(_KNOTS, (j % 64) / 64.5), acc)
        acc += row.a * 0.5 + _KNOTS[row.b - 1] * math.exp(-row.c * 1e-3)
    return acc


def reference_ns(repeats: int = 5) -> float:
    """Median time of ``reference()`` over a few back-to-back calls."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        reference()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times)


def percentile(sorted_values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile, ``q`` in (0, 100),
    of sorted data: a mean of the order statistics weighted by the
    Beta((n+1)p, (n+1)(1-p)) law, here in its normal approximation (n is
    over 100 in every run). A single order statistic jumps when the
    percentile falls between two clusters of latencies, as p50 does on
    ``validate-grid``, whose K = 30 class is bimodal in soc; this does not."""
    n = len(sorted_values)
    p = q / 100.0
    dist = statistics.NormalDist(p, math.sqrt(p * (1.0 - p) / (n + 2)))
    lo = max(0, int(n * (p - 8 * dist.stdev)))
    hi = min(n, int(n * (p + 8 * dist.stdev)) + 1)
    edges = [dist.cdf(i / n) for i in range(lo, hi + 1)]
    weights = [b - a for a, b in zip(edges, edges[1:])]
    return sum(w * x for w, x in zip(weights, sorted_values[lo:hi])) / sum(weights)


class Workload:
    """Shared bookkeeping; subclasses define inputs, one operation, checks."""

    name = ""
    trace_ops = 0  # operations in the traced run's fixed pass
    block = 1  # the seeded stream repeats its mix exactly every this many operations
    ref_nominal_ns = REF_NOMINAL_NS
    ref_every_ns = 5_000_000  # about 8% of busy time spent on the reference

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.latencies = array("d", [0.0]) * SAMPLE_CAPACITY
        self.count = 0  # operations attempted; latencies[i] is NaN if op i raised
        self.refs: list[tuple[int, float]] = []  # (ops done before it, reference ns)
        self.failed_ops: set[int] = set()
        self.kind_counts: dict[str, int] = {}
        self.cc_checks = 0  # sop_cc answers compared with the oracle
        self.per_call: dict[tuple[str, int, str], list[int]] = {}  # -> [calls, ns]
        self.cc_max_residual = 0.0
        self.cp_max_residual = 0.0
        self._reported = 0

    # -- to be provided by subclasses -------------------------------------

    def setup(self) -> None:
        """Import soplab, build the model objects, warm every code path."""
        raise NotImplementedError

    def ops(self):
        """Endless seeded stream of operation inputs."""
        raise NotImplementedError

    def run_op(self, op):
        """Run one operation; return (latency_ns, outcome)."""
        raise NotImplementedError

    def check(self, index: int, op, outcome) -> list[str]:
        """Failure kinds of one finished operation (empty when it passed)."""
        return []

    def verify(self) -> None:
        """Correctness pass after the loop (oracle cross-checks)."""

    def kernel_inputs(self):
        """(params, curve, list of BatteryState) for the ocv/step tight loops."""
        raise NotImplementedError

    def reference_once(self) -> float:
        """One timing of the machine-speed reference, in ns."""
        return reference_ns(repeats=1)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass

    # -- shared machinery -------------------------------------------------

    def _load(self, linear: bool) -> None:
        from soplab import ecm, modes, oracle, peak_cc, soa

        self.ecm, self.modes, self.oracle, self.peak_cc, self.soa_mod = (
            ecm, modes, oracle, peak_cc, soa
        )
        self.Direction = peak_cc.Direction
        self.params = ecm.BatteryParams(**PARAMS)
        self.soa = soa.Soa(**SOA)
        self.curve = ecm.OcvCurve(LINEAR_OCV if linear else nmc_ocv())
        self.windows = {k: ecm.Window(steps=k, dt=DT) for k in TICK_STEPS + GRID_STEPS}
        self.directions = (self.Direction.DISCHARGE, self.Direction.CHARGE)

    def record_call(self, engine: str, steps: int, direction: str, ns: int) -> None:
        acc = self.per_call.setdefault((engine, steps, direction), [0, 0])
        acc[0] += 1
        acc[1] += ns

    def fail(self, index: int, kinds: list[str], detail: str = "") -> None:
        for kind in kinds:
            self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
            if kind in KNOWN_DEFECT_KINDS:
                continue
            self.failed_ops.add(index)
            if self._reported < 5:
                self._reported += 1
                print(f"failure {kind} at op {index}: {detail}", file=sys.stderr)

    def attempt(self, op, checked: bool = True) -> int | None:
        """Run and (unless ``checked`` is False) check one operation; returns
        its latency in ns, or None when it raised."""
        index = self.count
        self.count += 1
        try:
            latency, outcome = self.run_op(op)
        except Exception:  # an operation that raises is a failed operation
            self.fail(index, ["exception"], traceback.format_exc())
            self.latencies[index] = math.nan
            return None
        if checked:
            kinds = self.check(index, op, outcome)
            if kinds:
                self.fail(index, kinds, repr(op))
        self.latencies[index] = latency
        return latency

    def run_for(self, seconds: float) -> None:
        """The timed closed loop: operations until the time is up."""
        deadline = perf_counter() + seconds
        stream = self.ops()
        since_ref = self.ref_every_ns
        while perf_counter() < deadline and self.count < SAMPLE_CAPACITY:
            if since_ref >= self.ref_every_ns:
                self.refs.append((self.count, self.reference_once()))
                since_ref = 0
            since_ref += self.attempt(next(stream)) or 0
        self.verify()

    def first_ops(self, n: int) -> list:
        stream = self.ops()
        return [next(stream) for _ in range(n)]

    def normalised_latencies(self) -> list[float]:
        """Latencies in ns at nominal machine speed: each operation is scaled
        by ``ref_nominal_ns`` over the median of the reference times taken
        around it."""
        refs = self.refs
        out = []
        for i, (start, _) in enumerate(refs):
            end = refs[i + 1][0] if i + 1 < len(refs) else self.count
            near = [ns for _, ns in refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1]]
            scale = self.ref_nominal_ns / statistics.median(near)
            out.extend(x * scale for x in self.latencies[start:end])
        return out

    def latency_summary(self, lat: list[float]) -> dict[str, float]:
        """Percentiles over completed operations; throughput as the median
        over whole blocks, each holding the workload's mix exactly once, so a
        stall or a partial block at the end does not move it."""
        done = sorted(x for x in lat if not math.isnan(x))
        rates = []
        for start in range(0, len(lat) - self.block + 1, self.block):
            busy = sum(lat[start : start + self.block])
            if not math.isnan(busy):
                rates.append(self.block / (busy / 1e9))
        if not rates:
            raise RuntimeError("no whole block of operations completed")
        return {
            "p50_ms": percentile(done, 50) / 1e6,
            "p90_ms": percentile(done, 90) / 1e6,
            "ops_per_s": statistics.median(rates),
        }


class BmsTick(Workload):
    """One BMS engine called every control tick, closed loop, one caller.

    Each tick draws a state (soc in [0.15, 0.85], |vp| in [0.01, 0.2] V) and
    K from {10, 30, 300} in shuffled blocks, so every K is equally frequent,
    then solves discharge and charge, timing each call.
    """

    engine = ""
    block = len(TICK_STEPS)
    cross_checks = 0  # leading ticks checked against an oracle after the loop

    def setup(self) -> None:
        self._load(linear=False)
        self.module = self.peak_cc if self.engine == "cc" else self.modes
        self.kept: dict[int, object] = {}
        for op in self.first_ops(self.block):  # warm every K and direction once
            self.run_op(op)

    def ops(self):
        rng = random.Random(self.seed)
        ecm = self.ecm
        while True:
            ks = list(TICK_STEPS)
            rng.shuffle(ks)
            for k in ks:
                soc = rng.uniform(0.15, 0.85)
                vp = rng.uniform(0.01, 0.2) * rng.choice((-1.0, 1.0))
                yield ecm.BatteryState(soc=soc, vp=vp), self.windows[k]

    def run_op(self, op):
        state, window = op
        fn = getattr(self.module, "sop_" + self.engine)  # looked up per call so tracing sees it
        outs, total = [], 0
        for direction in self.directions:
            t0 = perf_counter_ns()
            out = fn(state, self.params, self.curve, window, direction, self.soa)
            ns = perf_counter_ns() - t0
            self.record_call(self.engine, window.steps, direction.value, ns)
            outs.append(out)
            total += ns
        return total, outs

    def check(self, index, op, outcome) -> list[str]:
        state, window = op
        if index < self.cross_checks:
            self.kept[index] = outcome
        kinds = []
        for direction, out in zip(self.directions, outcome):
            result, trace = (out, None) if self.engine == "cc" else out
            kinds += check_result(result, direction)
            if trace is not None:
                kinds += check_trace(self, result, trace, window, self.engine == "cp")
        return kinds

    def verify(self) -> None:
        """Cross-check the leading ticks against the brute-force oracle."""
        ops = self.first_ops(min(self.cross_checks, self.count))
        for index, (state, window) in enumerate(ops):
            if index not in self.kept:
                continue  # the tick itself raised; already counted
            kinds = []
            for direction, out in zip(self.directions, self.kept[index]):
                args = (state, self.params, self.curve, window, direction, self.soa)
                if self.engine == "cc":
                    kinds += cc_verdict(self, out, brute_cc(self.oracle, args))
                else:
                    kinds += cp_verdict(self, out[0], brute_cp(self.oracle, args))
            if kinds:
                self.fail(index, kinds, repr(ops[index]))

    def kernel_inputs(self):
        return self.params, self.curve, [op[0] for op in self.first_ops(600)]


class BmsTickCc(BmsTick):
    name, engine, cross_checks, trace_ops = "bms-tick-cc", "cc", 30, 15000


class BmsTickCv(BmsTick):
    name, engine, trace_ops = "bms-tick-cv", "cv", 3000


class BmsTickCccv(BmsTick):
    name, engine, trace_ops = "bms-tick-cccv", "cccv", 1500


class BmsTickCp(BmsTick):
    name, engine, cross_checks, trace_ops = "bms-tick-cp", "cp", 12, 150


def check_result(result, direction) -> list[str]:
    """Invariants every SopResult must satisfy."""
    sop = result.sop
    if not (math.isfinite(sop) and sop >= 0.0):
        return ["bad_sop"]
    if result.feasible != (sop > 0.0) or sop != abs(result.power_signed):
        return ["bad_result"]
    if result.power_signed * direction.sign < 0.0:
        return ["wrong_sign"]
    return []


def check_trace(w: Workload, result, trace, window, constant_power: bool) -> list[str]:
    """A stepwise trace stays inside the SOA, spans the window, and its
    reported power matches its steps."""
    steps = trace.steps
    if not steps:
        return [] if not result.feasible else ["empty_trace"]
    if len(steps) != window.steps:
        return ["trace_length"]
    if w.soa_mod.check_trace(steps, w.soa):
        return ["soa_violation"]
    if constant_power:
        scale = max(1.0, result.sop)
        if any(abs(abs(s.power) - result.sop) > 1e-9 * scale for s in steps):
            return ["cp_power"]
    elif result.sop != min(abs(s.power) for s in steps):
        return ["binding_step"]
    return []


def brute_cc(oracle, args) -> float:
    """Oracle peak current for (state, params, curve, window, direction, soa)."""
    return oracle.brute_peak_current_cc(*args, tol_amps=CC_BOUND_A * ORACLE_TOL_SHARE)


def brute_cp(oracle, args):
    """Oracle peak power. |I| <= |limit| and vt <= vt_max bound any
    sustainable power, so this bracket saturates only if the oracle is broken."""
    direction, soa = args[4], args[5]
    return oracle.brute_peak_power_cp(
        *args,
        tol_watts=CP_BOUND_W * ORACLE_TOL_SHARE,
        p_hi=abs(direction.current_limit(soa)) * soa.vt_max,
    )


def cc_verdict(w: Workload, result, brute: float) -> list[str]:
    residual = abs(result.i_mc - brute)
    w.cc_checks += 1
    w.cc_max_residual = max(w.cc_max_residual, residual)
    return [] if residual <= CC_BOUND_A else ["cc_oracle"]


def cp_verdict(w: Workload, result, brute) -> list[str]:
    if brute.saturated:
        return ["cp_oracle_saturated"]
    residual = abs(result.sop - brute.watts)
    w.cp_max_residual = max(w.cp_max_residual, residual)
    return [] if residual <= CP_BOUND_W else ["cp_oracle"]


class ValidateGrid(Workload):
    """Analytic-versus-oracle checks on the linear acceptance fixture.

    Each point runs, in both directions, ``sop_cc`` against
    ``brute_peak_current_cc`` and ``sop_cp`` against ``brute_peak_power_cp``.
    K comes from {1, 10, 30, 60, 300} in shuffled blocks, with soc in
    [0.15, 0.85] and vp in [-0.4, 0.4] V. Oracle cost varies widely with the
    state, so each K class walks a 4 x 4 grid of (soc, vp) cells in seeded
    order with a uniform draw inside each cell: every run then covers the
    state space evenly. A draw whose rested voltage lies outside the SOA
    (where the oracles refuse by contract) is redrawn in its cell.
    """

    name = "validate-grid"
    trace_ops = 60
    block = len(GRID_STEPS)

    def setup(self) -> None:
        self._load(linear=True)
        for op in self.first_ops(self.block):  # warm both pairs at one fixed K
            if op[1].steps == 10:
                self.run_op(op)

    def ops(self):
        rng = random.Random(self.seed)
        ecm, soa = self.ecm, self.soa
        ks = list(GRID_STEPS)
        cells = [(i, j) for i in range(4) for j in range(4)]
        pending: dict[int, list[tuple[int, int]]] = {k: [] for k in ks}
        while True:
            rng.shuffle(ks)
            for k in ks:
                if not pending[k]:
                    pending[k] = rng.sample(cells, len(cells))
                i, j = pending[k].pop()
                while True:
                    soc = 0.15 + 0.7 * (i + rng.random()) / 4
                    vp = -0.4 + 0.8 * (j + rng.random()) / 4
                    if soa.vt_min <= ecm.ocv(self.curve, soc) - vp <= soa.vt_max:
                        break
                yield ecm.BatteryState(soc=soc, vp=vp), self.windows[k]

    def run_op(self, op):
        state, window = op
        outs, total = [], 0
        for direction in self.directions:
            args = (state, self.params, self.curve, window, direction, self.soa)
            t0 = perf_counter_ns()
            cc = self.peak_cc.sop_cc(*args)
            t1 = perf_counter_ns()
            cc_oracle = brute_cc(self.oracle, args)
            t2 = perf_counter_ns()
            cp, trace = self.modes.sop_cp(*args)
            t3 = perf_counter_ns()
            cp_oracle = brute_cp(self.oracle, args)
            t4 = perf_counter_ns()
            self.record_call("cc", window.steps, direction.value, t1 - t0)
            self.record_call("cp", window.steps, direction.value, t3 - t2)
            outs.append((cc, cc_oracle, cp, trace, cp_oracle))
            total += t4 - t0
        return total, outs

    def check(self, index, op, outcome) -> list[str]:
        state, window = op
        kinds = []
        for direction, (cc, cc_oracle, cp, trace, cp_oracle) in zip(self.directions, outcome):
            kinds += check_result(cc, direction) + check_result(cp, direction)
            kinds += check_trace(self, cp, trace, window, constant_power=True)
            kinds += cc_verdict(self, cc, cc_oracle) + cp_verdict(self, cp, cp_oracle)
        return kinds

    def kernel_inputs(self):
        return self.params, self.curve, [op[0] for op in self.first_ops(600)]


# Launch through the declared console entry point (soplab.cli:console_main).
CLI_LAUNCH = "from soplab.cli import console_main; console_main()"
CLI_TRACED_LAUNCH = (
    "import os, sys; sys.path.insert(0, os.environ['BENCH_DIR']); "
    "import layertrace; layertrace.run_cli_traced(os.environ['BENCH_TRACE_OUT'])"
)
CLI_KINDS = ("sop-cc", "sop-cv", "sop-cccv", "sop-cp", "validate", "sweep-error", "simulate")
CLI_VARIANTS = 3
# Nine-point delta grids sized to each error source's scale.
SWEEP_GRIDS = {
    "soc": "-0.02:0.02:0.005",
    "vp_relax": "-0.02:0.02:0.005",
    "r_sum": "-0.004:0.004:0.001",
    "kappa": "-0.2:0.2:0.05",
    "x": "-2e-5:2e-5:5e-6",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["BENCH_DIR"] = str(BENCH_DIR)
    return env


def run_child(argv: list[str], env: dict[str, str]) -> tuple[int, bytes, bytes, int, float]:
    """Run one process to completion: (exit code, stdout, stderr, max RSS in
    KiB, wall seconds). Reports are a few KiB, well inside a pipe buffer, so
    reading stdout before stderr cannot deadlock."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss, wall


class CliOneshot(Workload):
    """One ``soplab`` process per request, run one after another.

    The mix, in shuffled blocks of one of each: ``sop`` in all four modes at
    K=30, a 24-point ``validate`` grid, ``sweep-error`` and ``simulate`` on a
    60-row profile; the scenario of each request is seeded. Every report's
    bytes and exit code must equal those of an in-process ``cli.main`` run
    made during set-up.
    """

    name = "cli-oneshot"
    trace_ops = 2 * len(CLI_KINDS) * CLI_VARIANTS
    block = len(CLI_KINDS)
    # The reference is a bare interpreter start, the floor CLI times are read
    # against: process creation and imports drift apart from pure-Python
    # speed, so a Python-only reference would not cancel their drift.
    ref_nominal_ns = 60_000_000
    ref_every_ns = 700_000_000  # about one block

    def setup(self) -> None:
        from soplab import cli, ecm

        self.ecm = ecm
        rng = random.Random(self.seed)
        self.work = WORK / f"{self.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        files = self._write_inputs(rng)
        self.requests = [
            (kind, self._argv(kind, files, rng)) for kind in CLI_KINDS for _ in range(CLI_VARIANTS)
        ]
        self.expected = {}
        for kind, argv in self.requests:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            self.expected[tuple(argv)] = (code, buf.getvalue().encode())
        self.env = child_env()
        self.max_rss_kib = 0
        self.traced_snapshots: list[dict] = []

    def _write_inputs(self, rng: random.Random) -> dict[str, str]:
        p = PARAMS
        files = {
            "params": "r0_ohm={r0!r}\nr1_ohm={r1!r}\ntau_s={tau!r}\ncapacity_ah={capacity_ah!r}\n"
            "coulombic_eff={coulombic_eff!r}\n".format(**p),
            "ocv": "soc,ocv_volts\n" + "".join(f"{s!r},{v!r}\n" for s, v in nmc_ocv()),
            "soa": "".join(f"{k}={v!r}\n" for k, v in SOA.items()),
            "profile": "t_s,current_a\n"
            + "".join(f"{float(t)!r},{rng.uniform(-3.0, 6.0)!r}\n" for t in range(60)),
        }
        paths = {}
        for key, text in files.items():
            path = self.work / f"{key}.txt"
            path.write_text(text)
            paths[key] = str(path)
        return paths

    def _argv(self, kind: str, files: dict[str, str], rng: random.Random) -> list[str]:
        command = kind.split("-")[0] if kind.startswith("sop") else kind
        soc = rng.uniform(0.25, 0.75)
        vp = rng.uniform(0.01, 0.2) * rng.choice((-1.0, 1.0))
        direction = rng.choice(("discharge", "charge"))
        argv = [
            command, "--params", files["params"], "--ocv", files["ocv"], "--soa", files["soa"],
            f"--soc={soc!r}", f"--vp={vp!r}", "-K", "30", "--direction", direction,
        ]
        if command == "sop":
            argv += ["--mode", kind.split("-")[1]]
        elif kind == "validate":
            argv += ["--soc-grid", "0.2:0.8:0.2", "--steps-list", "1,10,30"]
        elif kind == "sweep-error":
            source = rng.choice(tuple(SWEEP_GRIDS))
            argv += [
                "--source", source,
                "--constraint", rng.choice(("current", "voltage", "soc")),
                f"--grid={SWEEP_GRIDS[source]}",
            ]
        else:
            argv += ["--profile", files["profile"]]
        return argv

    def ops(self):
        """Blocks of one request per kind in shuffled order; each kind cycles
        through its variants, so every run sees each variant equally often."""
        rng = random.Random(self.seed + 1)
        by_kind = {kind: [r for r in self.requests if r[0] == kind] for kind in CLI_KINDS}
        while True:
            for variant in range(CLI_VARIANTS):
                kinds = list(CLI_KINDS)
                rng.shuffle(kinds)
                for kind in kinds:
                    yield by_kind[kind][variant]

    def reference_once(self) -> float:
        code, _, err, _, wall = run_child([sys.executable, "-c", "pass"], self.env)
        if code != 0:
            raise RuntimeError(f"python -c pass failed: {err.decode()}")
        return wall * 1e9

    def run_op(self, op):
        kind, argv = op
        code, out, err, rss, wall = run_child([sys.executable, "-c", CLI_LAUNCH, *argv], self.env)
        self.max_rss_kib = max(self.max_rss_kib, rss)
        return int(wall * 1e9), (code, out, err)

    def run_traced_op(self, op, index: int) -> int:
        """Run one request under the layer tracer in its own process."""
        kind, argv = op
        out_path = self.work / f"trace-{index}.json"
        env = dict(self.env, BENCH_TRACE_OUT=str(out_path))
        code, out, err, _, wall = run_child([sys.executable, "-c", CLI_TRACED_LAUNCH, *argv], env)
        kinds = self.check(index, op, (code, out, err))
        if kinds:
            self.fail(index, kinds, f"traced {kind}: {err.decode()[-300:]}")
        self.traced_snapshots.append(json.loads(out_path.read_text()))
        return int(wall * 1e9)

    def check(self, index, op, outcome) -> list[str]:
        kind, argv = op
        code, out, err = outcome
        if (code, out) != self.expected[tuple(argv)] or err:
            return ["cli_mismatch"]
        return []

    def peak_rss_mb(self) -> float:
        return self.max_rss_kib / 1024.0

    def kernel_inputs(self):
        ecm = self.ecm
        rng = random.Random(self.seed)
        return ecm.BatteryParams(**PARAMS), ecm.OcvCurve(nmc_ocv()), [
            ecm.BatteryState(soc=rng.uniform(0.25, 0.75), vp=rng.uniform(-0.2, 0.2))
            for _ in range(600)
        ]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


WORKLOADS = {
    cls.name: cls
    for cls in (BmsTickCc, BmsTickCv, BmsTickCccv, BmsTickCp, ValidateGrid, CliOneshot)
}
