"""Layered soplab benchmark: runs one seeded workload and prints one JSON
result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it imports soplab from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics for ``--seconds``
seconds. With ``--trace 1`` it runs a fixed, seed-determined list of
operations twice, untraced and then under the layer tracer, and reports the
per-layer metrics. A header of ``#`` lines precedes the result; see
``bench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 7  # set-up is measured this many times, each in a fresh process
FLOOR_REPEATS = 5
KERNEL_BATCHES = 15
ENGINE_LAYERS = {
    "cc": "peak_cc.sop_cc",
    "cv": "modes.sop_cv",
    "cccv": "modes.sop_cccv",
    "cp": "modes.sop_cp",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def median_child_ms(wl, code: str) -> float:
    """Median wall time of a fresh ``python -c code`` process, in ms."""
    env = wl.child_env()
    walls = []
    for _ in range(FLOOR_REPEATS):
        rc, _, err, _, wall = wl.run_child([sys.executable, "-c", code], env)
        if rc != 0:
            raise RuntimeError(f"python -c {code!r} failed: {err.decode()}")
        walls.append(wall)
    return statistics.median(walls) * 1e3


def measure_setup(wl, workload: str, seed: int):
    """Set-up time: the median over fresh processes plus this one. Returns
    (median seconds, this process's set-up workload object)."""
    env = wl.child_env()
    times = []
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS - 1):
        rc, out, err, _, _ = wl.run_child(probe, env)
        if rc != 0:
            raise RuntimeError(f"set-up probe failed: {err.decode()}")
        times.append(float(out.decode().split()[-1]))
    w, own = timed_setup(wl, workload, seed)
    times.append(own)
    return statistics.median(times), w


def timed_setup(wl, workload: str, seed: int):
    """Set up a workload; returns it and its set-up time in seconds at
    nominal machine speed (scaled by references timed just before and after)."""
    ref_before = wl.reference_ns()
    w = wl.WORKLOADS[workload](seed)
    t0 = perf_counter()
    w.setup()
    elapsed = perf_counter() - t0
    ref_ns = (ref_before + wl.reference_ns()) / 2
    w.per_call.clear()  # warm-up calls are not measurements
    return w, elapsed * wl.REF_NOMINAL_NS / ref_ns


def kernel_ns_per_call(w) -> tuple[float, float]:
    """Median ns per call of ``ecm.ocv`` and ``ecm.step`` in tight loops over
    the workload's own table and states."""
    from soplab import ecm

    params, curve, states = w.kernel_inputs()
    socs = [s.soc for s in states]
    ocv, step = ecm.ocv, ecm.step
    ocv_ns, step_ns = [], []
    for _ in range(KERNEL_BATCHES):
        t0 = perf_counter_ns()
        for soc in socs:
            ocv(curve, soc)
        t1 = perf_counter_ns()
        for state in states:
            step(state, params, curve, 2.0, 1.0)
        t2 = perf_counter_ns()
        ocv_ns.append((t1 - t0) / len(socs))
        step_ns.append((t2 - t1) / len(states))
    return statistics.median(ocv_ns), statistics.median(step_ns)


def end_to_end(w, args, setup_s: float) -> dict:
    w.run_for(args.seconds)
    peak_rss_mb = w.peak_rss_mb()  # before the summary copies the samples
    raw = w.latency_summary(list(w.latencies[: w.count]))
    ref_ms = statistics.median(ns for _, ns in w.refs) / 1e6
    print(f"# raw: p50 {raw['p50_ms']:.6g} ms, p90 {raw['p90_ms']:.6g} ms, "
          f"{raw['ops_per_s']:.6g} ops/s; reference median {ref_ms:.4g} ms "
          f"(nominal {w.ref_nominal_ns / 1e6:g} ms), {w.count} operations")
    lat = w.latency_summary(w.normalised_latencies())
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "p50_ms": (lat["p50_ms"], "ms"),
        "p90_ms": (lat["p90_ms"], "ms"),
        "ops_per_s": (lat["ops_per_s"], "1/s"),
    }


def per_layer(wl, w, floor_ms: float) -> dict:
    import layertrace as lt

    def speed_ref() -> float:
        return statistics.median(w.reference_once() for _ in range(3))

    # Checks run in a pass of their own: between timed calls they would
    # perturb the caches of one pass and not the other.
    ops = w.first_ops(w.trace_ops)
    for op in ops:
        w.attempt(op)
    w.verify()
    checked = w.count
    w.per_call.clear()

    if isinstance(w, wl.CliOneshot):
        # Each traced request is its own process, so untraced and traced runs
        # of the same request alternate and host drift cancels pairwise.
        untraced = traced = 0
        for i, op in enumerate(ops):
            untraced += w.attempt(op, checked=False) or 0
            traced += w.run_traced_op(op, checked + len(ops) + i)
        overhead = traced / untraced - 1.0
        snap = lt.merge(w.traced_snapshots)
        per_call = {}  # the engines run in the child processes
    else:
        ref_start = speed_ref()
        untraced = sum(w.attempt(op, checked=False) or 0 for op in ops)
        ref_mid = speed_ref()
        per_call = {key: tuple(acc) for key, acc in w.per_call.items()}  # before tracing adds to it
        tracer = lt.Tracer()
        tracer.install()
        try:
            traced = sum(w.attempt(op, checked=False) or 0 for op in ops)
        finally:
            tracer.uninstall()
        snap = tracer.snapshot()
        ref_end = speed_ref()
        # Each pass is scaled by the machine-speed reference around it, so
        # host drift between the passes does not pass for tracing overhead.
        overhead = (traced / (ref_mid + ref_end)) / (untraced / (ref_start + ref_mid)) - 1.0

    ocv_ns, step_ns = kernel_ns_per_call(w)
    import_ms = median_child_ms(wl, "import soplab.cli") - floor_ms

    m = {}
    for leaf in ("ecm.ocv", "ecm.step", "ecm.predict_cc"):
        m[f"{leaf}.calls"] = (lt.calls(snap, leaf), "count")
    m["ecm.ocv.ns_per_call"] = (ocv_ns, "ns")
    m["ecm.step.ns_per_call"] = (step_ns, "ns")
    m["soa.check_point.calls"] = (lt.calls(snap, "soa.check_point"), "count")
    for engine, layer in ENGINE_LAYERS.items():
        m[f"{layer}.self_ms"] = (lt.self_ms(snap, layer), "ms")
        for k in wl.TICK_STEPS:
            for direction in ("discharge", "charge"):
                n, ns = per_call.get((engine, k, direction), (0, 0))
                m[f"{layer}.us_per_call.k{k}.{direction}"] = (ns / n / 1e3 if n else 0.0, "us")
    m["modes.find_mode_shift_kc.self_ms"] = (lt.self_ms(snap, "modes.find_mode_shift_kc"), "ms")
    cp_steps = lt.calls(snap, "modes.solve_cp_step")
    m["modes.solve_cp_step.calls"] = (cp_steps, "count")
    m["modes.sop_cp.steps_per_solve"] = (
        ratio(lt.calls_under(snap, "modes.solve_cp_step", "modes.sop_cp"), lt.calls(snap, "modes.sop_cp")),
        "steps",
    )
    m["modes.solve_cp_step.infeasible_share"] = (ratio(snap["infeasible"], cp_steps), "share")
    for name in ("oracle.brute_peak_current_cc", "oracle.brute_peak_power_cp"):
        m[f"{name}.self_ms"] = (lt.self_ms(snap, name), "ms")
    m["oracle.cc_steps_per_check"] = (
        ratio(
            lt.calls_under(snap, "ecm.step", "oracle.brute_peak_current_cc"),
            lt.calls(snap, "oracle.brute_peak_current_cc"),
        ),
        "steps",
    )
    m["oracle.cc_max_residual_a"] = (w.cc_max_residual, "A")
    m["oracle.cp_max_residual_w"] = (w.cp_max_residual, "W")
    for name in ("error_lab.build_true_context", "error_lab.sweep", "fileio.read", "fileio.write_text"):
        m[f"{name}.self_ms"] = (lt.self_ms(snap, name), "ms")
    m["cli.process_start_ms"] = (floor_ms, "ms")
    m["cli.import_ms"] = (import_ms, "ms")
    for name in ("cli.build_parser", "cli.cmd", "cli.main"):
        m[f"{name}.self_ms"] = (lt.self_ms(snap, name), "ms")
    m["trace_overhead_share"] = (overhead, "share")
    m["oracle.cc_disagree_share"] = (ratio(w.kind_counts.get("cc_oracle", 0), w.cc_checks), "share")
    m["failed_share"] = (len(w.failed_ops) / checked, "share")
    return m


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "soplab" / "__init__.py").is_file():
        print(f"error: no soplab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.setup_probe:
        w, elapsed = timed_setup(wl, args.workload, args.seed)
        w.close()
        print(repr(elapsed))
        return 0

    load_before = os.getloadavg()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# python={platform.python_version()} nproc={os.cpu_count()} "
          f"loadavg_before={','.join(f'{x:.2f}' for x in load_before)}")
    floor_ms = median_child_ms(wl, "pass")
    print(f"# floor: python -c pass = {floor_ms:.1f} ms (median of {FLOOR_REPEATS}); "
          "read CLI times against it")
    # Compile soplab's bytecode before anything is timed.
    wl.run_child([sys.executable, "-c", "import soplab.cli"], wl.child_env())

    w = None
    try:
        if args.trace:
            w, _ = timed_setup(wl, args.workload, args.seed)
            metrics = per_layer(wl, w, floor_ms)
            attempted = w.trace_ops
        else:
            setup_s, w = measure_setup(wl, args.workload, args.seed)
            metrics = end_to_end(w, args, setup_s)
            attempted = w.count
    finally:
        if w is not None:
            w.close()

    failures = ", ".join(
        f"{k}={v}" for k, v in sorted(w.kind_counts.items()) if k not in wl.KNOWN_DEFECT_KINDS
    )
    print(f"# failures: {failures or 'none'}")
    if w.cc_checks:
        print(f"# known defect (ROADMAP item 2): sop_cc disagrees with the oracle in "
              f"{w.kind_counts.get('cc_oracle', 0)} of {w.cc_checks} checks")
    print(f"# loadavg_after={','.join(f'{x:.2f}' for x in os.getloadavg())}")
    result = {
        "correct": not w.failed_ops,
        "attempted": attempted,
        "failed": len(w.failed_ops),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
