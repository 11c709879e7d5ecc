"""Oracle tests: bisection validators and the comparison record."""

import math
import re
from pathlib import Path

import pytest

from soplab import (
    BatteryState,
    Direction,
    InfeasibleStateError,
    Soa,
    Window,
    brute_peak_current_cc,
    brute_peak_power_cp,
    check_point,
    compare_report,
    sop_cc,
    sop_cp,
    step,
)

DIS = Direction.DISCHARGE
CHG = Direction.CHARGE


def _cc_window_ok(current, state, params, curve, window, soa):
    sim = state
    for _ in range(window.steps):
        sim, vt, _ = step(sim, params, curve, current, window.dt)
        if check_point(vt, current, sim.soc, soa):
            return False
    return True


class TestBrutePeakCurrentCc:
    def test_agrees_with_closed_form(self, params, linear_curve, soa):
        for soc in (0.2, 0.4, 0.6, 0.8):
            for direction in (DIS, CHG):
                window = Window(30, 1.0)
                state = BatteryState(soc)
                analytic = sop_cc(state, params, linear_curve, window, direction, soa)
                brute = brute_peak_current_cc(state, params, linear_curve, window, direction, soa)
                assert abs(analytic.i_mc - brute) <= 1e-6

    def test_tiny_current_limit_saturates_exactly(self, params, linear_curve, window_10):
        soa = Soa(2.8, 4.3, 0.1, -0.1, 0.0, 1.0)
        state = BatteryState(0.5)
        assert brute_peak_current_cc(state, params, linear_curve, window_10, DIS, soa) == 0.1
        assert brute_peak_current_cc(state, params, linear_curve, window_10, CHG, soa) == -0.1

    def test_bracketing_postcondition(self, params, linear_curve, window_10):
        # Unsaturated case: widen the current limit so the voltage binds.
        soa = Soa(2.8, 4.3, 100.0, -100.0, 0.0, 1.0)
        tol = 1e-6
        state = BatteryState(0.5)
        peak = brute_peak_current_cc(state, params, linear_curve, window_10, DIS, soa, tol_amps=tol)
        assert _cc_window_ok(peak - 2 * tol, state, params, linear_curve, window_10, soa)
        assert not _cc_window_ok(peak + 2 * tol, state, params, linear_curve, window_10, soa)

    def test_rested_state_out_of_soa_raises(self, params, linear_curve, window_10):
        soa = Soa(3.9, 4.3, 10.0, -4.0, 0.0, 1.0)  # rested 3.6 V below vt_min
        with pytest.raises(InfeasibleStateError):
            brute_peak_current_cc(BatteryState(0.5), params, linear_curve, window_10, DIS, soa)

    def test_soc_bound_gives_zero(self, params, linear_curve, soa, window_10):
        peak = brute_peak_current_cc(
            BatteryState(soa.soc_min), params, linear_curve, window_10, DIS, soa
        )
        assert abs(peak) <= 1e-6

    def test_knee_curve_linearization_error_shrinks(self, params, knee_curve):
        # Window straddling the slope knee: the closed form carries a secant
        # linearization error that must shrink with the SOC excursion.
        soa = Soa(3.0, 4.5, 60.0, -60.0, 0.05, 0.95)
        state = BatteryState(0.505)
        errors = []
        for steps in (60, 30, 15):
            window = Window(steps, 1.0)
            analytic = sop_cc(state, params, knee_curve, window, DIS, soa)
            brute = brute_peak_current_cc(
                state, params, knee_curve, window, DIS, soa, tol_amps=1e-9
            )
            errors.append(abs(analytic.i_mc - brute))
        assert errors[0] > errors[1] > errors[2] > 0.0


class TestBrutePeakPowerCp:
    def test_agrees_with_cp_engine(self, params, linear_curve, soa, state_half, window_10):
        tol = 1e-6
        result, _ = sop_cp(state_half, params, linear_curve, window_10, DIS, soa, tol_watts=tol)
        brute = brute_peak_power_cp(
            state_half, params, linear_curve, window_10, DIS, soa, tol_watts=tol
        )
        assert not brute.saturated
        assert abs(result.sop - brute.watts) <= 2 * tol

    def test_charge_agreement(self, params, linear_curve, soa, state_half, window_10):
        tol = 1e-6
        result, _ = sop_cp(state_half, params, linear_curve, window_10, CHG, soa, tol_watts=tol)
        brute = brute_peak_power_cp(
            state_half, params, linear_curve, window_10, CHG, soa, tol_watts=tol
        )
        assert abs(result.sop - brute.watts) <= 2 * tol

    def test_low_bracket_saturates(self, params, linear_curve, soa, state_half, window_10):
        brute = brute_peak_power_cp(
            state_half, params, linear_curve, window_10, DIS, soa, p_hi=1.0
        )
        assert brute.saturated
        assert brute.watts == 1.0

    def test_zero_headroom(self, params, linear_curve, soa, window_10):
        brute = brute_peak_power_cp(
            BatteryState(soa.soc_min), params, linear_curve, window_10, DIS, soa
        )
        assert brute.watts <= 1e-6
        assert not brute.saturated

    def test_rested_out_of_soa_raises(self, params, linear_curve, window_10):
        soa = Soa(3.9, 4.3, 10.0, -4.0, 0.0, 1.0)
        with pytest.raises(InfeasibleStateError):
            brute_peak_power_cp(BatteryState(0.5), params, linear_curve, window_10, DIS, soa)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
@pytest.mark.parametrize(
    "oracle, keyword",
    [(brute_peak_current_cc, "tol_amps"), (brute_peak_power_cp, "tol_watts")],
)
def test_non_finite_tolerance_rejected(
    params, linear_curve, soa, state_half, window_10, oracle, keyword, tol
):
    # An infinite tolerance used to skip the bisection and return 0.
    with pytest.raises(ValueError):
        oracle(state_half, params, linear_curve, window_10, DIS, soa, **{keyword: tol})


class TestCompareReport:
    def test_identical_inputs_zero_residual(self, params, linear_curve, soa, state_half, window_10):
        result = sop_cc(state_half, params, linear_curve, window_10, DIS, soa)
        record = compare_report(result, result.i_mc, 1e-6)
        assert record.residual == 0.0
        assert record.passed

    def test_residual_exactly_at_tolerance_passes(self, params, linear_curve, soa, state_half, window_10):
        result = sop_cc(state_half, params, linear_curve, window_10, DIS, soa)
        record = compare_report(result, result.i_mc - 1e-6, 1e-6)
        assert record.passed
        record = compare_report(result, result.i_mc - 2e-6, 1e-6)
        assert not record.passed

    def test_grid_sweep_emits_one_record_per_point(self, params, linear_curve, soa):
        records = []
        for soc in (0.2, 0.5, 0.8):
            for steps in (1, 10):
                window = Window(steps, 1.0)
                state = BatteryState(soc)
                analytic = sop_cc(state, params, linear_curve, window, DIS, soa)
                brute = brute_peak_current_cc(state, params, linear_curve, window, DIS, soa)
                records.append(compare_report(analytic, brute, 1e-6))
        assert len(records) == 6
        assert all(r.passed for r in records)

    def test_power_quantity_selector(self, params, linear_curve, soa, state_half, window_10):
        result, _ = sop_cp(state_half, params, linear_curve, window_10, DIS, soa)
        record = compare_report(result, result.sop, 1e-6, quantity="power")
        assert record.quantity == "power"
        assert record.passed
        with pytest.raises(ValueError):
            compare_report(result, 0.0, 1e-6, quantity="energy")


def test_oracle_module_does_not_call_closed_forms():
    # Dependency direction: the validators must not lean on the code they
    # validate. Enforced as a source-level check.
    import soplab.oracle as oracle_module

    source = Path(oracle_module.__file__).read_text()
    for forbidden in (
        "sop_cc(", "predict_cc(", "sop_cv(", "sop_cccv(", "sop_cp(", "solve_cp_step(",
        "window_terms(", "cutoff_current(", "soc_bound_current(", "end_voltage(",
        "_hold_trace(", "_cp_probe(",
    ):
        assert forbidden not in source
    # Nor the engine's per-step CP solver (the oracle's own is _secant_cp_current),
    # nor its trace kernel (the oracle's own loop is _cp_feasible_trace).
    assert not re.search(r"\b_cp_current\(", source)
    assert not re.search(r"\b_trace\(", source)
