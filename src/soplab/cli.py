"""Command-line surface: peak-power reports, error sweeps, oracle validation
runs, and profile replay.

Exit codes: 0 success, 1 infeasible scenario or validation failure, 2
malformed input. Reports go to standard output unless ``--out`` is given.

Each process is one request, so the stepwise engines, the oracle and the
error calculus are imported by the command that runs them, not here.
"""

from __future__ import annotations

import argparse
import math
from typing import NamedTuple

from . import ecm, fileio, peak_cc
from .ecm import BatteryParams, BatteryState, OcvCurve, Window
from .exceptions import (
    AnalyticDomainError,
    ConfigurationError,
    InfeasibleStateError,
    InputError,
)
from .soa import Direction, Soa, check_load, check_point

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2

# One-second sampling over a few tens of seconds: the usual BMS horizon.
DEFAULT_DT = 1.0
DEFAULT_STEPS = 30

# A range grid is sized before any point is built: 0:1:1e-12 would otherwise
# exhaust memory, and a subnormal step makes the count infinite.
MAX_GRID_POINTS = 10**6
# Every engine and oracle simulates the window step by step, so the step count
# bounds the work per point; it is checked before anything is simulated.
MAX_WINDOW_STEPS = 10**5

MODES = ("cc", "cv", "cccv", "cp")
# sweep-error's choices, spelled out so that building the parser does not
# import error_lab; a test pins them to error_lab.ErrorSource and CONSTRAINTS.
ERROR_SOURCES = ("soc", "vp_relax", "r_sum", "kappa", "x")
CONSTRAINTS = ("current", "voltage", "soc")


class Scenario(NamedTuple):
    """One request's model inputs, in the positional order of every engine,
    both oracles and ``error_lab.build_true_context``."""

    state: BatteryState
    params: BatteryParams
    curve: OcvCurve
    window: Window
    direction: Direction
    soa: Soa


def _cell_from_args(args: argparse.Namespace) -> tuple[BatteryParams, OcvCurve, Soa]:
    """The three files every command reads, and the cell-and-box check that
    every engine and oracle makes."""
    params = fileio.read_params(args.params)
    curve = fileio.read_ocv(args.ocv)
    soa = fileio.read_soa(args.soa)
    check_load(params, soa)
    return params, curve, soa


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """The one window that ``sop`` and ``sweep-error`` read from the flags."""
    _check_window_steps(args.steps)
    params, curve, soa = _cell_from_args(args)
    state = BatteryState(soc=args.soc, vp=args.vp)
    window = Window(steps=args.steps, dt=args.dt)
    return Scenario(state, params, curve, window, Direction(args.direction), soa)


def cmd_sop(scenario: Scenario, mode: str, tol_watts: float) -> tuple[int, str]:
    """Peak-power report for one scenario; exit 1 when infeasible."""
    trace = None
    if mode == "cc":
        result = peak_cc.sop_cc(*scenario)
    else:
        from . import modes  # a CC report never loads the stepwise engines

        kwargs = {"tol_watts": tol_watts} if mode == "cp" else {}
        result, trace = getattr(modes, "sop_" + mode)(*scenario, **kwargs)

    pairs = [
        ("mode", mode),
        ("direction", scenario.direction.value),
        ("feasible", result.feasible),
        ("dominant", result.dominant),
        ("sop_w", result.sop),
        ("power_w", result.power_signed),
        ("vt_end_v", result.vt_end),
        ("i_mc_a", result.i_mc),
    ]
    if result.i_current_limit is not None:
        # A constraint that cannot bind reports an infinite current, which no
        # report could re-parse: its line is left out.
        pairs += [
            (key, current)
            for key, current in (
                ("i_current_limit_a", result.i_current_limit),
                ("i_voltage_limit_a", result.i_voltage_limit),
                ("i_soc_limit_a", result.i_soc_limit),
            )
            if math.isfinite(current)
        ]
    if trace is not None and trace.mode_shift_index is not None:
        pairs.append(("mode_shift_step", trace.mode_shift_index))
    report = fileio.render_keyvalue(pairs)
    if trace is not None and trace.steps:
        report += fileio.render_csv("step,current_a,vt_v,soc,vp_v,power_w", trace.steps)
    return (EXIT_OK if result.feasible else EXIT_INFEASIBLE), report


def cmd_simulate(
    params: BatteryParams, curve: OcvCurve, soa: Soa, state: BatteryState, profile_path: str
) -> tuple[int, str]:
    """Replay a current profile and annotate each sample with SOA violations."""
    profile = fileio.read_profile(profile_path)
    trace = ecm.simulate_profile(state, params, curve, profile)
    rows = []
    for sample in trace:
        violations = check_point(sample.vt, sample.current, sample.soc, soa)
        rows.append((*sample, ";".join(v.kind for v in violations)))
    return EXIT_OK, fileio.render_csv("t_s,current_a,soc,vp_v,vt_v,violations", rows)


def cmd_sweep_error(
    scenario: Scenario, source: str, constraint: str, grid: list[float]
) -> tuple[int, str]:
    """Analytic-versus-empirical power-error sweep over a delta grid."""
    from . import error_lab

    ctx = error_lab.build_true_context(*scenario)
    rows = error_lab.sweep(error_lab.ErrorSource(source), grid, ctx, constraint)
    header = "delta,analytic_dsop_w,empirical_dsop_w,residual_w,in_domain"
    return EXIT_OK, fileio.render_csv(header, rows)


def cmd_validate(
    params: BatteryParams,
    curve: OcvCurve,
    soa: Soa,
    vp: float,
    dt: float,
    soc_grid: list[float],
    steps_list: list[int],
    directions: list[Direction],
    tol_amps: float,
) -> tuple[int, str]:
    """Closed-form versus brute-force peak current over a grid of SOC, window
    length and direction, each window at polarization ``vp`` and interval
    ``dt``; exit 1 on any disagreement beyond tolerance or any skipped point.

    A point whose rested state lies outside the SOA has no oracle bracket: its
    row reads ``nan`` for the oracle and residual and ``skipped`` for the
    verdict, it counts in ``points`` but not in ``passed``, and the grid runs on.
    A point where the closed form has no finite answer is skipped the same
    way, with ``nan`` for the analytic current too.
    """
    from . import oracle

    # The oracle bisects to a thousandth of the pass bound, so its own error
    # cannot decide a verdict.
    oracle_tol = tol_amps / 1000.0
    if not oracle_tol > 0.0:
        raise InputError(f"--tol {tol_amps} is too small: the oracle's tol / 1000 underflows to 0")
    states = [BatteryState(soc=soc, vp=vp) for soc in soc_grid]
    windows = [Window(steps=steps, dt=dt) for steps in steps_list]
    rows = []
    failures = skipped = 0
    max_residual = 0.0
    for state in states:
        for window in windows:
            for direction in directions:
                point = Scenario(state, params, curve, window, direction, soa)
                analytic = "nan"
                try:
                    analytic = peak_cc.sop_cc(*point).i_mc
                    brute = oracle.brute_peak_current_cc(*point, tol_amps=oracle_tol)
                except (AnalyticDomainError, InfeasibleStateError):
                    skipped += 1
                    cells = (analytic, "nan", "nan", "skipped")
                else:
                    residual = analytic - brute
                    ok = abs(residual) <= tol_amps  # inclusive: a residual at tol passes
                    max_residual = max(max_residual, abs(residual))
                    failures += not ok
                    cells = (analytic, brute, residual, ok)
                rows.append((state.soc, window.steps, direction.value, *cells))
    report = fileio.render_csv("soc,steps,direction,analytic_a,oracle_a,residual_a,pass", rows)
    passed = len(rows) - failures - skipped
    report += fileio.render_keyvalue(
        (("points", len(rows)), ("passed", passed), ("max_residual_a", max_residual))
    )
    code = EXIT_OK if failures + skipped == 0 else EXIT_INFEASIBLE
    return code, report


def _parse_grid(text: str) -> list[float]:
    """Comma list ("0.1,0.2") or start:stop:step range, inclusive of the stop
    within half a step; a grid keeps at least one point."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError(f"range grid must be start:stop:step, got {text!r}")
        start = fileio.parse_float(parts[0], "grid start")
        stop = fileio.parse_float(parts[1], "grid stop")
        step = fileio.parse_float(parts[2], "grid step")
        if step <= 0 or stop < start:
            raise InputError(f"bad grid range: {text!r}")
        n = (stop - start) / step  # the grid has round(n) + 1 points
        if not n < MAX_GRID_POINTS - 0.5:  # also rejects an infinite n
            raise InputError(f"range grid {text!r} has more than {MAX_GRID_POINTS} points")
        n = int(round(n))
        # Round each point to 12 significant digits of the grid's scale, the
        # precision reports print: 0.3:0.9:0.1 then ends on 0.9, not on
        # 0.9000000000000001, and -0.3:0.3:0.1 passes through 0, not 5.6e-17.
        digits = 11 - math.floor(math.log10(max(abs(start), abs(stop), step)))
        points = [round(start + i * step, digits) for i in range(n + 1)]
        points = [p for p in points if p <= stop + step / 2]
        if not points:  # rounding carried the only point past the stop
            raise InputError(f"range grid {text!r} keeps no point")
        return points
    if not text:
        raise InputError("empty grid")
    return [fileio.parse_float(cell, "grid value") for cell in text.split(",")]


def _tolerance(value: float, flag: str) -> float:
    if not (value > 0.0 and math.isfinite(value)):
        raise InputError(f"{flag} must be finite and > 0, got {value}")
    return value


def _check_window_steps(steps: int) -> None:
    if steps > MAX_WINDOW_STEPS:
        raise InputError(f"steps must be <= {MAX_WINDOW_STEPS}, got {steps}")


def _parse_steps_list(text: str) -> list[int]:
    out = []
    for cell in text.split(","):
        try:
            out.append(int(cell))
        except ValueError as exc:
            raise InputError(f"bad steps value: {cell!r}") from exc
        if out[-1] < 1:
            raise InputError(f"steps must be >= 1, got {out[-1]}")
        _check_window_steps(out[-1])
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soplab",
        description="Battery peak-power estimation on a Thevenin model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--params", required=True, help="params file (key=value)")
        p.add_argument("--ocv", required=True, help="OCV table csv")
        p.add_argument("--soa", required=True, help="SOA file (key=value)")
        p.add_argument("--soc", type=float, default=0.5, help="initial SOC fraction")
        p.add_argument("--vp", type=float, default=0.0, help="initial polarization voltage")
        p.add_argument("-K", "--steps", type=int, default=DEFAULT_STEPS, help="window steps")
        p.add_argument("--dt", type=float, default=DEFAULT_DT, help="sampling interval [s]")
        p.add_argument(
            "--direction", choices=[d.value for d in Direction], default="discharge"
        )
        p.add_argument("--out", default=None, help="write the report to this path")

    p_sop = sub.add_parser("sop", help="peak-power report for one scenario")
    add_common(p_sop)
    p_sop.add_argument("--mode", choices=MODES, default="cc")
    p_sop.add_argument("--tol-watts", type=float, default=1e-6, help="CP power tolerance [W]")

    p_sweep = sub.add_parser("sweep-error", help="error-source sensitivity sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--source", required=True, choices=ERROR_SOURCES)
    p_sweep.add_argument("--constraint", required=True, choices=CONSTRAINTS)
    p_sweep.add_argument(
        "--grid", required=True, help="delta grid: comma list or start:stop:step"
    )

    p_val = sub.add_parser("validate", help="closed form vs brute-force oracle grid")
    add_common(p_val)
    p_val.add_argument("--soc-grid", required=True, help="comma list or start:stop:step")
    p_val.add_argument("--steps-list", required=True, help="comma list of window lengths")
    p_val.add_argument(
        "--directions", default="both", choices=("both", "discharge", "charge")
    )
    p_val.add_argument("--tol", type=float, default=1e-6, help="agreement tolerance [A]")

    p_sim = sub.add_parser("simulate", help="replay a current profile")
    add_common(p_sim)
    p_sim.add_argument("--profile", required=True, help="profile csv (t_s,current_a)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    # Each command builds only what it reads: validate takes SOC, K and the
    # direction from its grid flags, and simulate reads no window.
    try:
        if args.command == "sop":
            scenario = _scenario_from_args(args)
            tol_watts = _tolerance(args.tol_watts, "--tol-watts")
            code, report = cmd_sop(scenario, args.mode, tol_watts)
        elif args.command == "sweep-error":
            scenario = _scenario_from_args(args)
            grid = _parse_grid(args.grid)
            code, report = cmd_sweep_error(scenario, args.source, args.constraint, grid)
        elif args.command == "validate":
            code, report = cmd_validate(
                *_cell_from_args(args),
                args.vp,
                args.dt,
                _parse_grid(args.soc_grid),
                _parse_steps_list(args.steps_list),
                list(Direction) if args.directions == "both" else [Direction(args.directions)],
                _tolerance(args.tol, "--tol"),
            )
        else:
            code, report = cmd_simulate(
                *_cell_from_args(args), BatteryState(soc=args.soc, vp=args.vp), args.profile
            )
        fileio.write_text(report, args.out)
    except (InputError, ConfigurationError) as exc:
        print(f"error: {exc}")
        return EXIT_INPUT
    except (AnalyticDomainError, InfeasibleStateError) as exc:
        print(f"infeasible: {exc}")
        return EXIT_INFEASIBLE
    return code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
