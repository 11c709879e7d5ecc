"""Acceptance suite: one test per contract criterion, each printing a
PASS line when its assertions hold.

Canonical fixture: R0=0.05 ohm, R1=0.03 ohm, tau=10 s, C_a=2 Ah, eta=1,
OCV = 3.0 + 1.2*soc, SOA vt in [2.8, 4.3] V, I in [-4, 10] A, soc in
[0.1, 0.9]. Grid: soc {0.1 .. 0.9} x K {1, 10, 30, 60} x both directions.

Boundary-step note: a binding step sits on its cut-off to within float
noise, so "no violation" is enforced as "no violation whose magnitude
exceeds 1e-9" -- the same tolerance the criteria grant the binding
equalities themselves. Away from bindings the margins are orders of
magnitude larger, so this does not mask real excursions.
"""

import time

import numpy as np

import soplab.oracle
from support import constant_current_trace
from soplab import (
    BatteryParams,
    BatteryState,
    CcCvCase,
    Direction,
    ErrorSource,
    OcvCurve,
    Soa,
    Window,
    analytic_error,
    brute_peak_current_cc,
    build_true_context,
    check_point,
    empirical_error,
    find_mode_shift_kc,
    ocv,
    sop_cc,
    sop_cccv,
    sop_cp,
    sop_cv,
    step,
    sweep,
)
from soplab.cli import main

PARAMS = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0, coulombic_eff=1.0)
CURVE = OcvCurve(((0.0, 3.0), (1.0, 4.2)))
SOA = Soa(vt_min=2.8, vt_max=4.3, i_max_dis=10.0, i_max_chg=-4.0, soc_min=0.1, soc_max=0.9)

SOC_GRID = [round(0.1 * i, 1) for i in range(1, 10)]
STEPS_GRID = (1, 10, 30, 60)
DIRECTIONS = (Direction.DISCHARGE, Direction.CHARGE)
GRACE = 1e-9

CONSTRAINTS = ("current", "voltage", "soc")
STRUCTURAL_ZERO_DI_SOC = (ErrorSource.VP_RELAX, ErrorSource.R_SUM, ErrorSource.KAPPA)


def _grid():
    for soc in SOC_GRID:
        for steps in STEPS_GRID:
            for direction in DIRECTIONS:
                yield BatteryState(soc), Window(steps, 1.0), direction


def _assert_compliant(rows, grace=GRACE):
    """rows: (current, vt, soc) triples; tolerate boundary float noise."""
    for current, vt, soc in rows:
        for violation in check_point(vt, current, soc, SOA):
            assert violation.magnitude <= grace, violation


def _cc_rows(state, window, current):
    sim = state
    rows = []
    for _ in range(window.steps):
        sim, vt = step(sim, PARAMS, CURVE, current, window.dt)
        rows.append((current, vt, sim.soc))
    return rows


def test_criterion_1_cc_analytic_vs_oracle():
    started = time.perf_counter()
    worst = 0.0
    for state, window, direction in _grid():
        analytic = sop_cc(state, PARAMS, CURVE, window, direction, SOA)
        brute = brute_peak_current_cc(
            state, PARAMS, CURVE, window, direction, SOA, tol_amps=1e-6
        )
        worst = max(worst, abs(analytic.i_mc - brute))
        assert abs(analytic.i_mc - brute) <= 1e-6, (state.soc, window.steps, direction)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 1 PASS: CC closed form vs oracle, max |residual| "
        f"{worst:.3e} A over {9 * 4 * 2} points in {elapsed:.2f} s"
    )


def _check_cc_point(state, window, direction):
    result = sop_cc(state, PARAMS, CURVE, window, direction, SOA)
    if not result.feasible:
        assert result.sop == 0.0
        return
    rows = _cc_rows(state, window, result.i_mc)
    _assert_compliant(rows)
    cutoff = direction.vt_cutoff(SOA)
    sign = direction.sign
    if result.dominant == "current":
        assert result.i_mc == direction.current_limit(SOA)
    elif result.dominant == "voltage":
        vts = [vt for _, vt, _ in rows]
        assert abs(vts[-1] - cutoff) <= 1e-9
        assert all((vt - cutoff) * sign > 1e-9 for vt in vts[:-1])
    else:
        assert abs(rows[-1][2] - direction.soc_bound(SOA)) <= 1e-12


def _check_cv_point(state, window, direction):
    result, trace = sop_cv(state, PARAMS, CURVE, window, direction, SOA)
    _assert_compliant((s.current, s.vt, s.soc) for s in trace.steps)
    if not result.feasible:
        return
    cutoff = direction.vt_cutoff(SOA)
    if result.dominant == "current":
        assert abs(trace.steps[0].current - direction.current_limit(SOA)) <= 1e-9
    else:
        assert all(abs(s.vt - cutoff) <= 1e-9 for s in trace.steps)


def _check_cccv_point(state, window, direction):
    result, trace = sop_cccv(state, PARAMS, CURVE, window, direction, SOA)
    _assert_compliant((s.current, s.vt, s.soc) for s in trace.steps)
    if not result.feasible:
        return
    shift = find_mode_shift_kc(state, PARAMS, CURVE, window, direction, SOA)
    cutoff = direction.vt_cutoff(SOA)
    i_lim = direction.current_limit(SOA)
    if shift.case is CcCvCase.CC_ONLY:
        assert all(abs(s.current - i_lim) <= 1e-9 for s in trace.steps)
    elif shift.case is CcCvCase.CV_ONLY:
        assert all(abs(s.vt - cutoff) <= 1e-9 for s in trace.steps)
    else:
        k_c = trace.mode_shift_index
        assert k_c == shift.k_c
        for s in trace.steps:
            if s.index < k_c:
                assert abs(s.current - i_lim) <= 1e-9
            else:
                assert abs(s.vt - cutoff) <= 1e-9


def _check_cp_point(state, window, direction):
    result, trace = sop_cp(state, PARAMS, CURVE, window, direction, SOA, tol_watts=1e-9)
    _assert_compliant((s.current, s.vt, s.soc) for s in trace.steps)
    if not result.feasible:
        return
    sign = direction.sign
    cutoff = direction.vt_cutoff(SOA)
    i_lim = direction.current_limit(SOA)
    bound = direction.soc_bound(SOA)
    margin_v = [(s.vt - cutoff) * sign for s in trace.steps]
    margin_i = [(i_lim - s.current) * sign for s in trace.steps]
    margin_s = [(s.soc - bound) * sign for s in trace.steps]
    binding = min(min(margin_v), min(margin_i), min(margin_s))
    assert binding <= 1e-9, "converged power must pin some constraint"
    if binding == min(margin_v):
        assert margin_v.index(min(margin_v)) + 1 == window.steps
    elif binding == min(margin_i):
        want = window.steps if direction is Direction.DISCHARGE else 1
        assert margin_i.index(min(margin_i)) + 1 == want


def test_criterion_2_table_boundary_occupancy():
    for state, window, direction in _grid():
        _check_cc_point(state, window, direction)
        _check_cv_point(state, window, direction)
        _check_cccv_point(state, window, direction)
        _check_cp_point(state, window, direction)
    print(
        "ACCEPTANCE 2 PASS: boundary occupancy for CC/CV/CC-CV/CP over the "
        "grid, bindings within 1e-9, no SOA violations"
    )


def _nominal(ctx, source):
    return {
        ErrorSource.SOC: ctx.terms.soc,
        ErrorSource.VP_RELAX: ctx.terms.vp_relax,
        ErrorSource.R_SUM: ctx.terms.r_sum,
        ErrorSource.KAPPA: ctx.terms.kappa,
        ErrorSource.X: ctx.x,
    }[source]


def _error_ctx():
    return build_true_context(
        BatteryState(soc=0.5, vp=0.05), PARAMS, CURVE, Window(10, 1.0),
        Direction.DISCHARGE, SOA,
    )


def test_criterion_3_error_calculus_exactness():
    ctx = _error_ctx()
    worst = 0.0
    for source in ErrorSource:
        span = 0.2 * abs(_nominal(ctx, source))
        grid = [(-span + 2.0 * span * i / 8) for i in range(9)]
        for constraint in CONSTRAINTS:
            for delta in grid:
                a = analytic_error(source, delta, ctx, constraint)
                e = empirical_error(source, delta, ctx, constraint)
                for got, want in (
                    (a.delta_i, e.delta_i),
                    (a.delta_vt, e.delta_vt),
                    (a.delta_sop, e.delta_sop),
                ):
                    worst = max(worst, abs(got - want))
                    assert abs(got - want) <= 1e-9, (source, constraint, delta)
            # Structural zeros hold exactly at a representative delta.
            probe = span / 2.0
            a = analytic_error(source, probe, ctx, constraint)
            e = empirical_error(source, probe, ctx, constraint)
            if constraint == "current":
                assert a.delta_i == 0.0 and e.delta_i == 0.0
            if constraint == "voltage":
                assert a.delta_vt == 0.0 and e.delta_vt == 0.0
            if constraint == "soc" and source in STRUCTURAL_ZERO_DI_SOC:
                assert a.delta_i == 0.0 and e.delta_i == 0.0
    print(
        f"ACCEPTANCE 3 PASS: 15 error cells analytic == empirical, worst "
        f"|difference| {worst:.3e} (<= 1e-9); structural zeros exact"
    )


def test_criterion_4_soc_parabola_fit():
    ctx = _error_ctx()
    span = 0.2 * ctx.terms.soc
    grid = [(-span + 2.0 * span * i / 20) for i in range(21)]
    rows = sweep(ErrorSource.SOC, grid, ctx, "soc")
    a_coef, b_coef = analytic_error(ErrorSource.SOC, grid[0], ctx, "soc").coefficients
    fit = np.polyfit([r.delta for r in rows], [r.empirical_dsop for r in rows], 2)
    assert abs(fit[0] - a_coef) / abs(a_coef) <= 1e-6
    assert abs(fit[1] - b_coef) / abs(b_coef) <= 1e-6
    print(
        f"ACCEPTANCE 4 PASS: parabola fit recovers a={fit[0]:.6g} "
        f"b={fit[1]:.6g} to <= 1e-6 relative"
    )


def test_criterion_5_mode_degeneration():
    window = Window(10, 1.0)
    direction = Direction.DISCHARGE

    # No cut-off crossing inside the window: CC-CV collapses to CC.
    state = BatteryState(0.44)
    assert find_mode_shift_kc(state, PARAMS, CURVE, window, direction, SOA).case is CcCvCase.CC_ONLY
    _, cccv_trace = sop_cccv(state, PARAMS, CURVE, window, direction, SOA)
    cc_trace = constant_current_trace(state, PARAMS, CURVE, SOA.i_max_dis, window)
    for got, want in zip(cccv_trace.steps, cc_trace.steps):
        assert abs(got.current - want.current) <= 1e-12
        assert abs(got.vt - want.vt) <= 1e-12
        assert abs(got.soc - want.soc) <= 1e-12
        assert abs(got.vp - want.vp) <= 1e-12

    # Cut-off already crossed at the first step: CC-CV collapses to CV.
    state = BatteryState(0.22)
    assert find_mode_shift_kc(state, PARAMS, CURVE, window, direction, SOA).case is CcCvCase.CV_ONLY
    _, cccv_trace = sop_cccv(state, PARAMS, CURVE, window, direction, SOA)
    _, cv_trace = sop_cv(state, PARAMS, CURVE, window, direction, SOA)
    for got, want in zip(cccv_trace.steps, cv_trace.steps):
        assert abs(got.current - want.current) <= 1e-12
        assert abs(got.vt - want.vt) <= 1e-12

    tol = 1e-6
    result, trace = sop_cp(BatteryState(0.5), PARAMS, CURVE, window, direction, SOA, tol_watts=tol)
    spread = max(s.power for s in trace.steps) - min(s.power for s in trace.steps)
    assert spread <= tol
    print(
        f"ACCEPTANCE 5 PASS: CC-CV degenerations pointwise <= 1e-12; CP power "
        f"spread {spread:.3e} W <= tol"
    )


def test_criterion_6_mode_ranking_voltage_region():
    # Discharge point where the voltage constraint governs every mode.
    state = BatteryState(0.22)
    window = Window(10, 1.0)
    direction = Direction.DISCHARGE

    cc_result = sop_cc(state, PARAMS, CURVE, window, direction, SOA)
    assert cc_result.dominant == "voltage"
    cc_trace = constant_current_trace(state, PARAMS, CURVE, cc_result.i_mc, window)
    cv_result, cv_trace = sop_cv(state, PARAMS, CURVE, window, direction, SOA)
    assert cv_result.dominant == "voltage"
    cccv_result, cccv_trace = sop_cccv(state, PARAMS, CURVE, window, direction, SOA)
    cp_result, cp_trace = sop_cp(state, PARAMS, CURVE, window, direction, SOA, tol_watts=1e-6)

    def avg_abs_current(trace):
        return sum(abs(s.current) for s in trace.steps) / len(trace.steps)

    def avg_abs_power(trace):
        return sum(abs(s.power) for s in trace.steps) / len(trace.steps)

    def power_spread(trace):
        powers = [abs(s.power) for s in trace.steps]
        return max(powers) - min(powers)

    assert avg_abs_current(cccv_trace) >= avg_abs_current(cc_trace)
    assert avg_abs_current(cccv_trace) >= avg_abs_current(cv_trace)
    assert avg_abs_power(cccv_trace) >= avg_abs_power(cc_trace)
    assert avg_abs_power(cccv_trace) >= avg_abs_power(cv_trace)

    spreads = {
        "cc": power_spread(cc_trace),
        "cv": power_spread(cv_trace),
        "cccv": power_spread(cccv_trace),
        "cp": power_spread(cp_trace),
    }
    assert spreads["cp"] == min(spreads.values())
    assert all(spreads["cp"] < v for k, v in spreads.items() if k != "cp")
    print(
        "ACCEPTANCE 6 PASS: time-averaged |I| and |P| rank CC-CV >= CC and "
        f"CC-CV >= CV; CP has the smallest power spread ({spreads['cp']:.2e} W)"
    )


def test_criterion_7_linearization_error_convergence():
    knee = OcvCurve(((0.0, 3.0), (0.5, 3.5), (1.0, 4.2)))
    wide = Soa(vt_min=3.0, vt_max=4.5, i_max_dis=60.0, i_max_chg=-60.0, soc_min=0.05, soc_max=0.95)
    state = BatteryState(0.505)
    errors = []
    for steps in (60, 30, 15):
        window = Window(steps, 1.0)
        analytic = sop_cc(state, PARAMS, knee, window, Direction.DISCHARGE, wide)
        brute = brute_peak_current_cc(
            state, PARAMS, knee, window, Direction.DISCHARGE, wide, tol_amps=1e-9
        )
        errors.append(abs(analytic.i_mc - brute))
    assert errors[0] > errors[1] > errors[2] > 0.0
    print(
        "ACCEPTANCE 7 PASS: knee-curve linearization error shrinks as the "
        f"window halves: {errors[0]:.3e} > {errors[1]:.3e} > {errors[2]:.3e} A"
    )


PARAMS_TEXT = "r0_ohm=0.05\nr1_ohm=0.03\ntau_s=10\ncapacity_ah=2\ncoulombic_eff=1\n"
OCV_TEXT = "soc,ocv_volts\n0,3.0\n1,4.2\n"
SOA_TEXT = "vt_min=2.8\nvt_max=4.3\ni_max_dis=10\ni_max_chg=-4\nsoc_min=0.1\nsoc_max=0.9\n"


def test_criterion_8_cli_contract(tmp_path, capsys, monkeypatch):
    files = {}
    for name, text in (("params", PARAMS_TEXT), ("ocv", OCV_TEXT), ("soa", SOA_TEXT)):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        files[name] = str(path)
    base = ["--params", files["params"], "--ocv", files["ocv"], "--soa", files["soa"]]

    # Exit 0: feasible scenario.
    assert main(["sop", *base, "--soc", "0.5", "-K", "10"]) == 0
    report = capsys.readouterr().out
    # Round-trip: every rendered number re-parses and re-renders identically.
    from soplab.fileio import format_float

    for line in report.splitlines():
        _, _, value = line.partition("=")
        try:
            parsed = float(value)
        except ValueError:
            continue
        assert format_float(parsed) == value

    # Exit 1: infeasible scenario (SOC at its bound).
    assert main(["sop", *base, "--soc", "0.1", "-K", "10"]) == 1
    capsys.readouterr()

    # Exit 2: malformed input (missing file, bad profile, empty grid).
    assert main(["sop", "--params", files["params"], "--ocv", files["ocv"] + ".nope", "--soa", files["soa"]]) == 2
    bad_profile = tmp_path / "bad.csv"
    bad_profile.write_text("t_s,current_a\n0,xyz\n")
    assert main(["simulate", *base, "--profile", str(bad_profile)]) == 2
    assert main(["validate", *base, "--soc-grid", "", "--steps-list", "10"]) == 2
    capsys.readouterr()

    # Validate over the criterion-1 grid exits 0.
    assert (
        main(
            [
                "validate", *base,
                "--soc-grid", "0.1:0.9:0.1",
                "--steps-list", "1,10,30,60",
                "--directions", "both",
                "--tol", "1e-6",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "points=72" in out
    assert "passed=72" in out

    # Fault injection: a corrupted oracle view must fail validation.
    original = soplab.oracle.brute_peak_current_cc

    def corrupted(state, params, curve, window, direction, soa, tol_amps=1e-6):
        bad = BatteryParams(
            params.r0, params.r1 * 1.5, params.tau, params.capacity_ah, params.coulombic_eff
        )
        return original(state, bad, curve, window, direction, soa, tol_amps=tol_amps)

    monkeypatch.setattr(soplab.oracle, "brute_peak_current_cc", corrupted)
    assert (
        main(
            [
                "validate", *base,
                "--soc-grid", "0.3", "--steps-list", "10",
                "--directions", "discharge",
            ]
        )
        == 1
    )
    capsys.readouterr()
    print("ACCEPTANCE 8 PASS: exit-code matrix 0/1/2, report round-trip, grid validation")
