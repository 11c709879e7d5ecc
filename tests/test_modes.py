"""Mode-engine tests: CV hold, CC-CV shift dispatch, CP peak-power search."""

import itertools
import math
import random
import statistics
from bisect import bisect_right

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import soplab.modes as modes
from support import NMC_CURVE, constant_current_trace, monotone_ocv
from soplab import (
    BatteryParams,
    BatteryState,
    CcCvCase,
    Direction,
    InfeasibleStateError,
    OcvCurve,
    PowerInfeasibleError,
    Soa,
    Window,
    brute_peak_power_cp,
    check_point,
    check_trace,
    find_mode_shift_kc,
    ocv,
    solve_cp_step,
    sop_cccv,
    sop_cp,
    sop_cv,
    step,
)
from soplab.oracle import _newton_cp_current

DIS = Direction.DISCHARGE
CHG = Direction.CHARGE


class OcvCounter:
    """Counts the engines' OCV lookups, every one made through an
    ``ecm.ocv_cursor``, with the SOC of each, and the table searches (calls
    of ``ecm.bisect_right``) behind them."""

    def __init__(self, monkeypatch):
        self.lookups = self.bisections = 0
        self.socs = []
        cursor = modes.ecm.ocv_cursor

        def counting_cursor(curve):
            lookup = cursor(curve)

            def counted(soc):
                self.lookups += 1
                self.socs.append(soc)
                return lookup(soc)

            return counted

        def counting_search(socs, soc):
            self.bisections += 1
            return bisect_right(socs, soc)

        monkeypatch.setattr(modes.ecm, "ocv_cursor", counting_cursor)
        monkeypatch.setattr(modes.ecm, "bisect_right", counting_search)

    def reset(self):
        self.lookups = self.bisections = 0
        self.socs.clear()

    @staticmethod
    def segments(curve, socs):
        """OCV segments that lookups at ``socs`` enter; the table's ends count
        as one segment each."""
        return len({bisect_right(curve.socs, soc) for soc in socs})


@pytest.fixture
def ocv_counter(monkeypatch):
    return OcvCounter(monkeypatch)


class TestSopCv:
    def test_current_governed_step_one_at_limit(self, params, linear_curve, window_10):
        # High SOC with an extended SOC range: holding the cut-off would need
        # (4.08 - 2.8) / 0.05 = 25.6 A, far past the 10 A limit.
        soa = Soa(2.8, 4.3, 10.0, -4.0, 0.05, 0.95)
        result, trace = sop_cv(BatteryState(0.9), params, linear_curve, window_10, DIS, soa)
        assert result.dominant == "current"
        assert trace.steps[0].current == soa.i_max_dis
        assert all(s.current <= soa.i_max_dis for s in trace.steps)

    def test_voltage_governed_holds_cutoff(self, params, linear_curve, soa, window_10):
        result, trace = sop_cv(BatteryState(0.2), params, linear_curve, window_10, DIS, soa)
        assert result.dominant == "voltage"
        for s in trace.steps:
            assert abs(s.vt - soa.vt_min) <= 1e-9

    def test_declining_currents_and_last_step_sop(self, params, linear_curve, soa, window_10):
        result, trace = sop_cv(BatteryState(0.3), params, linear_curve, window_10, DIS, soa)
        currents = [s.current for s in trace.steps]
        assert all(a > b for a, b in zip(currents, currents[1:]))
        assert result.sop == abs(trace.steps[-1].power)
        assert result.feasible

    def test_charge_current_governed(self, params, linear_curve, soa, window_10):
        result, trace = sop_cv(BatteryState(0.5), params, linear_curve, window_10, CHG, soa)
        assert result.dominant == "current"
        assert trace.steps[0].current == soa.i_max_chg
        mags = [abs(s.current) for s in trace.steps]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_soc_at_bound_infeasible(self, params, linear_curve, soa, window_10):
        result, trace = sop_cv(BatteryState(soa.soc_min), params, linear_curve, window_10, DIS, soa)
        assert result.sop == 0.0
        assert not result.feasible
        assert check_trace(trace.steps, soa) == []


class TestWindowLeavingSoa:
    """CV and CC-CV check their finished trace against the whole SOA box, not
    only the direction's own bounds: a polarization strong enough to drive
    the voltage past a cut-off gives CP's zero result, not a feasible window."""

    # (engine, direction, vp) whose hold trace left the box on the README
    # fixture (soc 0.5, K 10) while the window was reported feasible.
    LEFT_SOA = {
        *((sop_cv, DIS, vp) for vp in (1.5, 3.0, 5.0)),
        *((sop_cv, CHG, vp) for vp in (-1.0, -1.5, -3.0, -5.0)),
        *((sop_cccv, DIS, vp) for vp in (1.5, 3.0, 5.0, -1.5, -3.0, -5.0)),
        *((sop_cccv, CHG, vp) for vp in (1.2, 1.5, 3.0, 5.0, -1.0, -1.5, -3.0, -5.0)),
    }

    @pytest.mark.parametrize("vp", [1.2, 1.5, 3.0, 5.0, -1.0, -1.5, -3.0, -5.0])
    @pytest.mark.parametrize("direction", [DIS, CHG])
    @pytest.mark.parametrize("engine", [sop_cv, sop_cccv])
    def test_readme_fixture(self, params, linear_curve, soa, window_10, engine, direction, vp):
        args = (BatteryState(0.5, vp), params, linear_curve, window_10, direction, soa)
        result, trace = engine(*args)
        assert check_trace(trace.steps, soa) == []
        if (engine, direction, vp) in self.LEFT_SOA:
            cp_result, cp_trace = sop_cp(*args)
            assert not cp_result.feasible
            assert (result, trace) == (cp_result, cp_trace)

    def test_cv_discharge_past_the_low_cutoff(self, params, linear_curve, soa, window_10):
        # Once reported as 17.4 W feasible, with the held voltage below vt_min.
        result, trace = sop_cv(BatteryState(0.5, 1.5), params, linear_curve, window_10, DIS, soa)
        assert (result.feasible, result.sop, result.dominant, trace.steps) == (False, 0.0, "voltage", ())
        assert result.vt_end == ocv(linear_curve, 0.5) - 1.5

    @settings(max_examples=300, deadline=None)
    @given(
        curve=monotone_ocv(),
        soc=st.floats(0.0, 1.0),
        vp=st.floats(-6.0, 6.0),
        steps=st.sampled_from([1, 2, 10, 30]),
        dt=st.sampled_from([0.1, 1.0, 5.0]),
        direction=st.sampled_from([DIS, CHG]),
        engine=st.sampled_from([sop_cv, sop_cccv]),
    )
    def test_feasible_window_stays_in_soa(self, curve, soc, vp, steps, dt, direction, engine):
        params = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
        soa = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
        result, trace = engine(BatteryState(soc, vp), params, curve, Window(steps, dt), direction, soa)
        if result.feasible:
            assert check_trace(trace.steps, soa) == []
        else:
            assert result.sop == 0.0


class TestFindModeShift:
    def test_case1_no_crossing(self, params, linear_curve, soa, window_10):
        state = BatteryState(0.44)
        shift = find_mode_shift_kc(state, params, linear_curve, window_10, DIS, soa)
        assert shift.case is CcCvCase.CC_ONLY
        assert shift.k_c is None
        # Defining property: the full-limit trace never reaches the cut-off.
        trace = constant_current_trace(state, params, linear_curve, soa.i_max_dis, window_10)
        assert all(s.vt > soa.vt_min for s in trace.steps)

    def test_case3_immediate_crossing(self, params, linear_curve, soa, window_10):
        # Rested: f_ocv(0.22) - 10 * 0.05 = 2.764 < 2.8 already at step one.
        shift = find_mode_shift_kc(BatteryState(0.22), params, linear_curve, window_10, DIS, soa)
        assert shift.case is CcCvCase.CV_ONLY
        assert shift.k_c is None

    def test_case2_interior_crossing(self, params, linear_curve, soa, window_10):
        state = BatteryState(0.38)
        shift = find_mode_shift_kc(state, params, linear_curve, window_10, DIS, soa)
        assert shift.case is CcCvCase.TRANSITIONAL
        assert shift.k_c == 9
        trace = constant_current_trace(state, params, linear_curve, soa.i_max_dis, window_10)
        vts = [s.vt for s in trace.steps]
        assert vts[shift.k_c - 1] <= soa.vt_min < vts[shift.k_c - 2]

    @pytest.mark.parametrize(
        "soc, direction, want, lookups",
        [
            (0.22, DIS, (CcCvCase.CV_ONLY, None), 1),
            (0.38, DIS, (CcCvCase.TRANSITIONAL, 9), 9),
            (0.5, CHG, (CcCvCase.CC_ONLY, None), 300),
        ],
    )
    def test_stops_at_the_crossing(
        self, params, linear_curve, soa, ocv_counter, soc, direction, want, lookups
    ):
        # Algorithmic work: one OCV lookup per step up to the crossing, not K,
        # and one bisection on the table's one segment (plus one at most).
        window = Window(300, 1.0)
        assert find_mode_shift_kc(BatteryState(soc), params, linear_curve, window, direction, soa) == want
        assert ocv_counter.lookups == lookups
        entered = ocv_counter.segments(linear_curve, ocv_counter.socs)
        assert 0 < ocv_counter.bisections <= entered + 1

    def test_matches_the_constant_current_trace(self, params, linear_curve, soa):
        # Definition: the first step of the full-limit trace at or past the
        # cut-off; strictly past it at step one means the shift predates the window.
        grid = itertools.product(
            (linear_curve, NMC_CURVE),
            (0.0, 0.1, 0.22, 0.3, 0.38, 0.5, 0.7, 0.85, 0.9, 1.0),
            (-0.3, 0.0, 0.3),
            (1, 2, 10, 60, 300),
            (DIS, CHG),
        )
        for curve, soc, vp, steps, direction in grid:
            state, window = BatteryState(soc, vp), Window(steps, 1.0)
            limit, cutoff = direction.current_limit(soa), direction.vt_cutoff(soa)
            trace = constant_current_trace(state, params, curve, limit, window)
            gaps = [(cutoff - s.vt) * direction.sign for s in trace.steps]
            k = next((i for i, gap in enumerate(gaps, 1) if gap >= 0.0), None)
            if k is None:
                want = (CcCvCase.CC_ONLY, None)
            elif k == 1 and gaps[0] > 0.0:
                want = (CcCvCase.CV_ONLY, None)
            else:
                want = (CcCvCase.TRANSITIONAL, k)
            shift = find_mode_shift_kc(state, params, curve, window, direction, soa)
            assert shift == want, (soc, vp, steps, direction)


class TestSopCccv:
    def test_case1_delegates_to_cc(self, params, linear_curve, soa, window_10):
        state = BatteryState(0.44)
        result, trace = sop_cccv(state, params, linear_curve, window_10, DIS, soa)
        cc = constant_current_trace(state, params, linear_curve, soa.i_max_dis, window_10)
        assert trace.mode_shift_index is None
        assert result.dominant == "current"
        for got, want in zip(trace.steps, cc.steps):
            assert abs(got.current - want.current) <= 1e-12
            assert abs(got.vt - want.vt) <= 1e-12
            assert abs(got.soc - want.soc) <= 1e-12
            assert abs(got.vp - want.vp) <= 1e-12

    def test_case3_delegates_to_cv(self, params, linear_curve, soa, window_10):
        state = BatteryState(0.22)
        _, trace = sop_cccv(state, params, linear_curve, window_10, DIS, soa)
        _, cv = sop_cv(state, params, linear_curve, window_10, DIS, soa)
        for got, want in zip(trace.steps, cv.steps):
            assert abs(got.current - want.current) <= 1e-12
            assert abs(got.vt - want.vt) <= 1e-12

    def test_case2_dual_occupancy(self, params, linear_curve, soa, window_10):
        result, trace = sop_cccv(BatteryState(0.38), params, linear_curve, window_10, DIS, soa)
        k_c = trace.mode_shift_index
        assert k_c == 9
        assert result.dominant == "dual"
        for s in trace.steps:
            if s.index < k_c:
                assert s.current == soa.i_max_dis
                assert s.vt > soa.vt_min
            else:
                assert abs(s.vt - soa.vt_min) <= 1e-9
                assert 0.0 < s.current <= soa.i_max_dis
        assert check_trace(trace.steps, soa) == []

    def test_case2_matches_shift_finder(self, params, linear_curve, soa, window_10):
        state = BatteryState(0.38)
        shift = find_mode_shift_kc(state, params, linear_curve, window_10, DIS, soa)
        _, trace = sop_cccv(state, params, linear_curve, window_10, DIS, soa)
        assert trace.mode_shift_index == shift.k_c

    def test_soc_cap_keeps_trace_compliant(self, params, linear_curve, soa):
        # Charge at the SOC ceiling: no headroom, so the engine must emit a
        # zero-power window instead of drifting past the bound.
        result, trace = sop_cccv(BatteryState(0.9), params, linear_curve, Window(5, 1.0), CHG, soa)
        assert result.sop == 0.0
        assert not result.feasible
        assert check_trace(trace.steps, soa) == []


class TestSolveCpStep:
    def test_zero_power_zero_current(self, params, linear_curve):
        current, vt = solve_cp_step(BatteryState(0.5), params, linear_curve, 0.0, DIS)
        assert current == 0.0
        assert vt == 3.6

    def test_quadratic_formula_root(self, params, linear_curve):
        # Hand quadratic: E=3.6, R0=0.05, P=28.937 -> smaller positive root.
        current, vt = solve_cp_step(BatteryState(0.5), params, linear_curve, 28.937, DIS)
        assert current == pytest.approx(9.218289823090089, abs=1e-9)
        assert vt == pytest.approx(3.1390855088454956, abs=1e-9)
        assert abs(28.937 - current * vt) <= 1e-9
        # Physical branch: below the vertex current E / (2 R0).
        assert current < 3.6 / (2.0 * params.r0)

    def test_charge_root_negative(self, params, linear_curve):
        current, vt = solve_cp_step(BatteryState(0.5), params, linear_curve, -12.0, CHG)
        assert current < 0.0
        assert vt > 3.6
        assert abs(-12.0 - current * vt) <= 1e-9

    def test_vertex_exceeded_raises(self, params, linear_curve):
        ceiling = 3.6 * 3.6 / (4.0 * params.r0)
        with pytest.raises(PowerInfeasibleError):
            solve_cp_step(BatteryState(0.5), params, linear_curve, ceiling + 0.01, DIS)

    def test_wrong_sign_raises(self, params, linear_curve):
        with pytest.raises(PowerInfeasibleError):
            solve_cp_step(BatteryState(0.5), params, linear_curve, -5.0, DIS)

    def test_zero_power_with_non_positive_emf(self, params, linear_curve):
        # vp above the OCV: the quadratic form would divide 0 by 0 here.
        current, vt = solve_cp_step(BatteryState(0.5, 5.0), params, linear_curve, 0.0, DIS)
        assert current == 0.0
        assert vt == pytest.approx(3.6 - 5.0, abs=1e-15)

    def test_root_against_the_power_raises(self, params, linear_curve, soa):
        # At emf 3.6 - 5.0 = -1.4 V the smaller root of a 1 W discharge is
        # -27.27 A, a charge current (vt -0.0367 V); the oracle's Newton step
        # finds no root there. Neither does the engine: the step refuses, and
        # a probe through such a step has no continuation. At r0 1e-300,
        # 4 r0 P vanishes beside emf**2: the root emf + sqrt(disc) is 0, and
        # the step divided by it (ZeroDivisionError).
        state = BatteryState(0.5, 5.0)
        lookup = modes.ecm.ocv_cursor(linear_curve)
        for params in (params, BatteryParams(1e-300, 0.03, 10.0, 2.0, 1.0)):
            with pytest.raises(PowerInfeasibleError, match="against") as refused:
                solve_cp_step(state, params, linear_curve, 1.0, DIS)
            assert "exceeds the step ceiling" not in str(refused.value)
            assert _newton_cp_current(3.6 - 5.0, params.r0, 1.0) is None
            window = Window(10, 1.0)
            probe = modes._cp_probe(1.0, state, params, lookup, window, DIS, soa, lookup(0.5))
            assert probe == (False, None)

    @pytest.mark.parametrize("power", [-5e307, -1e308])
    def test_power_whose_discriminant_overflows_raises(self, linear_curve, power):
        # At r0 1 ohm, 4 r0 P overflows to -inf: the root 2P / (emf + sqrt(inf))
        # was -0.0 A (no power) at -5e307 W and NaN at -1e308 W.
        params = BatteryParams(1.0, 0.03, 10.0, 2.0)
        with pytest.raises(PowerInfeasibleError, match="not finite"):
            solve_cp_step(BatteryState(0.5), params, linear_curve, power, CHG)


def _cp_resimulate(power_abs, state, params, curve, window, direction, soa):
    """Independent re-simulation built from the public step solver, checked
    step by step: whether the window stays in the SOA, and the per-step
    minimum of each direction-signed margin (voltage, soc, current). Both are
    (False, None) once ``solve_cp_step`` refuses a step: its power is above
    the step's ceiling, or its root runs against the power."""
    alpha = math.exp(-window.dt / params.tau)
    sign = direction.sign
    soc, vp = state.soc, state.vp
    feasible, margins = True, (math.inf, math.inf, math.inf)
    for _ in range(window.steps):
        vp_rel = vp * alpha
        try:
            current, vt = solve_cp_step(
                BatteryState(soc, vp_rel), params, curve, power_abs * sign, direction
            )
        except PowerInfeasibleError:
            return False, None
        soc_next = min(max(soc - current * window.dt * params.soc_per_amp_second, 0.0), 1.0)
        feasible = feasible and not check_point(vt, current, soc_next, soa)
        step_margins = (
            (vt - direction.vt_cutoff(soa)) * sign,
            (soc_next - direction.soc_bound(soa)) * sign,
            (direction.current_limit(soa) - current) * sign,
        )
        margins = tuple(map(min, margins, step_margins))
        vp = vp_rel + current * params.r1 * (1.0 - alpha)
        soc = soc_next
    return feasible, margins


def _cp_window_feasible(power_abs, state, params, curve, window, direction, soa):
    return _cp_resimulate(power_abs, state, params, curve, window, direction, soa)[0]


class TestSopCp:
    def test_bisection_bracketing(self, params, linear_curve, soa, state_half, window_10):
        tol = 1e-6
        result, _ = sop_cp(state_half, params, linear_curve, window_10, DIS, soa, tol_watts=tol)
        p = result.sop
        assert _cp_window_feasible(p - 2 * tol, state_half, params, linear_curve, window_10, DIS, soa)
        assert not _cp_window_feasible(p + 2 * tol, state_half, params, linear_curve, window_10, DIS, soa)

    def test_power_constancy(self, params, linear_curve, soa, state_half, window_10):
        tol = 1e-6
        result, trace = sop_cp(state_half, params, linear_curve, window_10, DIS, soa, tol_watts=tol)
        assert max(abs(s.power - result.power_signed) for s in trace.steps) <= tol

    def test_enormous_limits_hit_vertex_ceiling(self, params, linear_curve, state_half, window_10):
        wide = Soa(0.1, 100.0, 1e6, -1e6, 0.0, 1.0)
        result, trace = sop_cp(state_half, params, linear_curve, window_10, DIS, wide, tol_watts=1e-6)
        # Per-step power ceiling (E^2 / 4 R0) from the trace's own pre-states.
        alpha = math.exp(-window_10.dt / params.tau)
        soc, vp = state_half.soc, state_half.vp
        ceilings = []
        for s in trace.steps:
            emf = ocv(linear_curve, soc) - vp * alpha
            ceilings.append(emf * emf / (4.0 * params.r0))
            soc, vp = s.soc, s.vp
        assert result.sop <= min(ceilings) + 1e-9
        assert min(ceilings) - result.sop <= 1e-3
        # No SOA bound is reached: the voltage keeps the smallest share of its
        # zero-power margin (about 43%; the SOC keeps 93%).
        assert result.dominant == "voltage"

    def test_discharge_current_grows_charge_current_shrinks(
        self, params, linear_curve, soa, state_half, window_10
    ):
        _, dis_trace = sop_cp(state_half, params, linear_curve, window_10, DIS, soa)
        dis_currents = [s.current for s in dis_trace.steps]
        assert all(a < b for a, b in zip(dis_currents, dis_currents[1:]))
        _, chg_trace = sop_cp(state_half, params, linear_curve, window_10, CHG, soa)
        chg_mags = [abs(s.current) for s in chg_trace.steps]
        assert all(a > b for a, b in zip(chg_mags, chg_mags[1:]))

    def test_no_headroom_zero_sop(self, params, linear_curve, soa, window_10):
        result, _ = sop_cp(BatteryState(soa.soc_min), params, linear_curve, window_10, DIS, soa)
        assert result.sop == 0.0
        assert not result.feasible

    def test_trace_stays_in_soa(self, params, linear_curve, soa, state_half, window_10):
        for direction in (DIS, CHG):
            _, trace = sop_cp(state_half, params, linear_curve, window_10, direction, soa)
            assert check_trace(trace.steps, soa) == []

    def test_bad_tolerance_rejected(self, params, linear_curve, soa, state_half, window_10):
        with pytest.raises(ValueError):
            sop_cp(state_half, params, linear_curve, window_10, DIS, soa, tol_watts=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tolerance_rejected(
        self, params, linear_curve, soa, state_half, window_10, tol
    ):
        with pytest.raises(ValueError):
            sop_cp(state_half, params, linear_curve, window_10, DIS, soa, tol_watts=tol)

    def test_vp_above_ocv_infeasible_not_crash(self, params, linear_curve, soa, window_10):
        result, trace = sop_cp(BatteryState(0.5, 5.0), params, linear_curve, window_10, DIS, soa)
        assert not result.feasible
        assert result.sop == 0.0
        assert trace.steps == ()


class TestSopCpSolver:
    """The bracketing search against an independent re-simulation and the
    bisection oracle, plus its probe budget."""

    @settings(max_examples=120, deadline=None)
    @given(
        curve=monotone_ocv(),
        soc=st.floats(0.12, 0.88),
        vp=st.floats(-0.4, 0.4),
        steps=st.sampled_from([1, 10, 30, 60]),
        direction=st.sampled_from([DIS, CHG]),
        tol=st.sampled_from([1e-6, 1e-9]),
    )
    def test_feasible_at_result_and_agrees_with_oracle(
        self, curve, soc, vp, steps, direction, tol
    ):
        # The conftest cell and SOA, built here: hypothesis reuses fixtures across examples.
        params = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
        soa = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
        state, window = BatteryState(soc, vp), Window(steps, 1.0)
        result, _ = sop_cp(state, params, curve, window, direction, soa, tol_watts=tol)
        if not _cp_window_feasible(0.0, state, params, curve, window, direction, soa):
            assert not result.feasible and result.sop == 0.0
            with pytest.raises(InfeasibleStateError):
                brute_peak_power_cp(state, params, curve, window, direction, soa)
            return
        assert _cp_window_feasible(result.sop, state, params, curve, window, direction, soa)
        assert not _cp_window_feasible(
            result.sop + 2 * tol, state, params, curve, window, direction, soa
        )
        brute = brute_peak_power_cp(state, params, curve, window, direction, soa, tol_watts=tol)
        assert not brute.saturated
        assert abs(result.sop - brute.watts) <= 2 * tol

    def test_probe_budget_on_acceptance_grid(self, params, linear_curve, soa, monkeypatch):
        calls = [0]
        probe = modes._cp_probe

        def counting_probe(*args, **kwargs):
            calls[0] += 1
            return probe(*args, **kwargs)

        monkeypatch.setattr(modes, "_cp_probe", counting_probe)
        per_solve = []
        for soc in [round(0.1 * i, 1) for i in range(1, 10)]:
            for steps in (1, 10, 30, 60):
                for direction in (DIS, CHG):
                    calls[0] = 0
                    sop_cp(
                        BatteryState(soc), params, linear_curve, Window(steps, 1.0),
                        direction, soa, tol_watts=1e-6,
                    )
                    per_solve.append(calls[0])
        assert statistics.mean(per_solve) <= 10
        assert max(per_solve) <= 20

    def test_probe_count_on_bms_tick_cp_like_ticks(self, params, soa, monkeypatch):
        # 300 seeded ticks of the bms-tick-cp workload's inputs, both
        # directions, counting the zero-power and top probes. Interpolating
        # through three probes takes 5.16 probes per solve here (at most 12);
        # Illinois-weighted regula falsi took 6.24 (at most 22). The bounds
        # leave about 5% on the mean and three probes on the maximum.
        calls = [0]
        probe = modes._cp_probe

        def counting_probe(*args):
            calls[0] += 1
            return probe(*args)

        monkeypatch.setattr(modes, "_cp_probe", counting_probe)
        rng = random.Random(1)
        per_solve = []
        for _ in range(100):
            for steps in rng.sample((10, 30, 300), 3):
                soc = rng.uniform(0.15, 0.85)
                vp = rng.uniform(0.01, 0.2) * rng.choice((-1.0, 1.0))
                state, window = BatteryState(soc, vp), Window(steps, 1.0)
                for direction in (DIS, CHG):
                    calls[0] = 0
                    sop_cp(state, params, NMC_CURVE, window, direction, soa)
                    per_solve.append(calls[0])
        assert statistics.mean(per_solve) <= 5.4
        assert max(per_solve) <= 15

    @settings(max_examples=100, deadline=None)
    @given(
        curve=monotone_ocv(),
        soc=st.floats(0.1, 0.9),
        vp=st.floats(-0.6, 0.6),
        steps=st.integers(1, 300),
        direction=st.sampled_from([DIS, CHG]),
        tol=st.sampled_from([1e-6, 1e-9]),
    )
    def test_bracket_halves_in_any_three_probes(self, curve, soc, vp, steps, direction, tol):
        # The search's worst case: whatever the interpolation does, the
        # bracket [lo, hi] at least halves over any three probes, so a solve
        # runs at most three times the probes plain bisection needs from the
        # top down to tol, besides the zero-power and top probes.
        params = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
        soa = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
        probes = []
        probe = modes._cp_probe

        def recording_probe(*args):
            out = probe(*args)
            probes.append((args[0], out[0]))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modes, "_cp_probe", recording_probe)
            sop_cp(BatteryState(soc, vp), params, curve, Window(steps, 1.0), direction, soa, tol)
        assume(len(probes) > 2)
        (top, top_ok), widths = probes[1], []
        assert not top_ok
        lo, hi = 0.0, top
        for power, ok in probes[2:]:
            widths.append(hi - lo)
            lo, hi = (power, hi) if ok else (lo, power)
        widths.append(hi - lo)
        for before, after in zip(widths, widths[3:]):
            assert after <= 0.5 * before + 1e-12  # a midpoint rounds by ulps of the top
        assert len(probes) - 2 <= 3 * math.ceil(math.log2(top / tol))

    def test_one_step_windows_end_at_the_bracket_top(self, params, linear_curve, soa, monkeypatch):
        # Away from its SOC bound a one-step window sustains the bound on its
        # peak, up to rounding: the zero-power probe, the top, and at most one
        # probe more when rounding leaves the top just infeasible.
        calls = [0]
        probe = modes._cp_probe

        def counting_probe(*args, **kwargs):
            calls[0] += 1
            return probe(*args, **kwargs)

        monkeypatch.setattr(modes, "_cp_probe", counting_probe)
        rng = random.Random(7)
        for _ in range(200):
            curve = rng.choice((linear_curve, NMC_CURVE))
            state = BatteryState(rng.uniform(0.15, 0.85), rng.uniform(-0.6, 0.6))
            for direction in (DIS, CHG):
                calls[0] = 0
                result, _ = sop_cp(state, params, curve, Window(1, 1.0), direction, soa)
                assert calls[0] <= 3, (state, direction, calls[0])
                assert result.feasible or calls[0] == 1

    def test_one_point_estimate_after_a_power_ceiling(self, linear_curve, monkeypatch):
        # A probe at a power ceiling clears the remembered points; the next
        # probe fails with a margin, so the estimate after it has one point
        # and falls back to the midpoint. The answer still agrees with the
        # oracle (51.7308 W).
        params = BatteryParams(r0=0.01, r1=0.03, tau=10.0, capacity_ah=2.0)
        soa = Soa(1.8, 16.0, 100.0, -4.0, 0.05, 0.95)
        args = (BatteryState(0.3, 0.05), params, linear_curve, Window(10, 10.0), DIS, soa)
        points_seen = []
        estimate = modes._cp_estimate

        def recording_estimate(points, lo, hi):
            points_seen.append(len(points))
            return estimate(points, lo, hi)

        monkeypatch.setattr(modes, "_cp_estimate", recording_estimate)
        result, _ = sop_cp(*args)
        assert 1 in points_seen
        brute = brute_peak_power_cp(*args, tol_watts=1e-9)
        assert not brute.saturated
        assert abs(result.sop - brute.watts) <= 5e-7

    def test_dominant_names_a_reached_bound(self):
        # Seeded wide boxes, where a power ceiling or the power vertex often
        # stops the search short of every SOA bound. Wherever a bound's margin
        # at the accepted power is under 1e-3 of its zero-power margin (its
        # own units when that is 0 or less), dominant names such a bound. The
        # margins come from the step-by-step re-simulation.
        rng = random.Random(3)
        linear = OcvCurve(((0.0, 3.0), (1.0, 4.2)))
        reached = 0
        for _ in range(400):
            params = BatteryParams(
                r0=rng.choice((0.01, 0.05, 0.2)), r1=0.03, tau=10.0, capacity_ah=2.0
            )
            curve = rng.choice((linear, NMC_CURVE))
            soa = Soa(
                rng.uniform(0.5, 3.3), rng.uniform(3.6, 20.0),
                rng.uniform(0.1, 1e4), -rng.uniform(0.1, 1e4),
                rng.uniform(0.0, 0.2), rng.uniform(0.8, 1.0),
            )
            state = BatteryState(rng.uniform(0.02, 0.98), rng.uniform(-0.4, 0.4))
            window = Window(rng.choice((1, 3, 10, 30)), rng.choice((1.0, 10.0)))
            args = (state, params, curve, window, rng.choice((DIS, CHG)), soa)
            feasible, zero = _cp_resimulate(0.0, *args)
            if not feasible:
                continue
            result, _ = sop_cp(*args)
            _, margins = _cp_resimulate(result.sop, *args)
            near = {
                bound
                for bound, m, z in zip(("voltage", "soc", "current"), margins, zero)
                if m / (z if z > 0.0 else 1.0) < 1e-3
            }
            if near:
                reached += 1
                assert result.dominant in near, (args, result, margins, zero)
        assert reached >= 250  # of 312 windows with a feasible zero-power trace

    @settings(max_examples=300, deadline=None)
    @given(
        curve=monotone_ocv(),
        soc=st.floats(0.1, 0.9),
        vp=st.floats(-0.6, 0.6),
        steps=st.integers(1, 60),
        direction=st.sampled_from([DIS, CHG]),
        wide=st.booleans(),
    )
    def test_no_window_sustains_more_than_the_step_one_bound(
        self, curve, soc, vp, steps, direction, wide
    ):
        # sop_cp's bracket top: a feasible step one carries its power with a
        # current no larger than the current limit, the cut-off current and,
        # discharging, the power vertex, and |power| rises with |current| up
        # to there. The wide box lets the vertex bind when discharging.
        params = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
        if wide:
            soa = Soa(0.1, 100.0, 1e6, -1e6, 0.0, 1.0)
        else:
            soa = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
        state, window = BatteryState(soc, vp), Window(steps, 1.0)
        assume(_cp_window_feasible(0.0, state, params, curve, window, direction, soa))
        emf = ocv(curve, soc) - vp * math.exp(-window.dt / params.tau)
        current = min(
            abs(direction.current_limit(soa)), abs(emf - direction.vt_cutoff(soa)) / params.r0
        )
        if direction is DIS:
            current = min(current, emf / (2.0 * params.r0))
        bound = current * (emf - direction.sign * current * params.r0)
        assume(bound > 0.0)
        over = bound * (1.0 + 1e-9)
        assert not _cp_window_feasible(over, state, params, curve, window, direction, soa)

    def test_stops_when_the_bracket_no_longer_splits(self, params, soa, monkeypatch):
        # A tolerance below one ulp of the answer is never met by the width
        # test: the search ends on the largest double it finds feasible, with
        # the next double up infeasible, within 100 probes.
        calls = [0]
        probe = modes._cp_probe

        def counting_probe(*args, **kwargs):
            calls[0] += 1
            return probe(*args, **kwargs)

        monkeypatch.setattr(modes, "_cp_probe", counting_probe)
        grid = itertools.product((0.2, 0.5, 0.8), (10, 30, 300), (DIS, CHG))
        for soc, steps, direction in grid:
            args = (BatteryState(soc), params, NMC_CURVE, Window(steps, 1.0), direction, soa)
            calls[0] = 0
            result, _ = sop_cp(*args, tol_watts=5e-324)
            assert calls[0] <= 100, (soc, steps, direction)
            assert _cp_window_feasible(result.sop, *args)
            assert not _cp_window_feasible(math.nextafter(result.sop, math.inf), *args)

    @settings(max_examples=300, deadline=None)
    @given(
        curve=monotone_ocv(),
        # Near the SOC bounds a window can cross the bound its direction moves
        # away from: only the opposite corner sees that violation.
        soc=st.one_of(st.floats(0.0, 1.0), st.floats(0.09, 0.11), st.floats(0.89, 0.91)),
        vp=st.floats(-0.6, 0.6),
        steps=st.sampled_from([1, 2, 10, 30, 60]),
        direction=st.sampled_from([DIS, CHG]),
        share=st.floats(0.0, 1.5),
    )
    @example(curve=NMC_CURVE, soc=0.905, vp=0.0, steps=30, direction=DIS, share=0.3)
    @example(curve=NMC_CURVE, soc=0.095, vp=0.0, steps=30, direction=CHG, share=0.3)
    # vp above the OCV: every step's root would charge the cell for a discharge.
    @example(curve=NMC_CURVE, soc=0.5, vp=5.0, steps=10, direction=DIS, share=0.01)
    def test_corner_verdict_matches_per_step_check(
        self, curve, soc, vp, steps, direction, share
    ):
        # The probe checks the SOA at the trace's two corner points only; the
        # re-simulation checks every step. Powers reach 1.5x the current limit
        # times the OCV (discharge) or vt_max (charge).
        params = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
        soa = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
        state, window = BatteryState(soc, vp), Window(steps, 1.0)
        top = ocv(curve, soc) if direction is DIS else soa.vt_max
        power = share * abs(direction.current_limit(soa)) * top
        args = (power, state, params, curve, window, direction, soa)
        lookup = modes.ecm.ocv_cursor(curve)
        ok, margins = modes._cp_probe(
            power, state, params, lookup, window, direction, soa, lookup(soc)
        )
        feasible, want = _cp_resimulate(*args)
        assert ok == feasible
        assert margins == want

    @pytest.mark.parametrize("direction", [DIS, CHG])
    def test_ocv_calls_per_solve(self, params, soa, monkeypatch, ocv_counter, direction):
        # One OCV lookup per trace step, step one's made once for every trace:
        # the bracket top reads step one's emf off the same lookup. Each probe
        # bisects once per OCV segment it enters, plus one at most. The probes
        # keep no rows, so a solve steps its accepted power once more: exactly
        # one trace more than it has probes.
        steps = 300
        window = Window(steps, 1.0)
        probes, traces = [0], [0]
        probe, trace = modes._cp_probe, modes._trace

        def counting_probe(*args):
            probes[0] += 1
            bisections, looked_up = ocv_counter.bisections, len(ocv_counter.socs)
            result = probe(*args)
            entered = ocv_counter.segments(NMC_CURVE, ocv_counter.socs[looked_up:])
            assert ocv_counter.bisections - bisections <= entered + 1
            return result

        def counting_trace(*args):
            traces[0] += 1
            return trace(*args)

        monkeypatch.setattr(modes, "_cp_probe", counting_probe)
        monkeypatch.setattr(modes, "_trace", counting_trace)
        for soc in (0.15, 0.5, 0.85):
            for vp in (-0.2, 0.0, 0.2):
                probes[0] = traces[0] = 0
                ocv_counter.reset()
                result, _ = sop_cp(BatteryState(soc, vp), params, NMC_CURVE, window, direction, soa)
                assert result.feasible
                assert traces[0] == probes[0] + 1
                assert 0 < ocv_counter.lookups <= 1 + traces[0] * (steps - 1)
        # A window that leaves the SOA: the zero-power probe alone, whose
        # step-one lookup also gives the rested voltage that the result
        # reports. A refused window is never stepped again.
        for state in (BatteryState(0.95), BatteryState(0.95, -1.0), BatteryState(0.5, 1.5)):
            probes[0] = traces[0] = 0
            ocv_counter.reset()
            result, _ = sop_cp(state, params, NMC_CURVE, window, direction, soa)
            assert not result.feasible
            assert result.vt_end == ocv(NMC_CURVE, state.soc) - state.vp
            assert (probes[0], traces[0], ocv_counter.lookups) == (1, 1, steps)
            assert ocv_counter.bisections <= ocv_counter.segments(NMC_CURVE, ocv_counter.socs) + 1


class TestTraceKernel:
    """Every stepwise trace runs on modes._trace, whose state recurrence is
    ecm.step's."""

    @pytest.mark.parametrize(
        "soc, run",
        [
            (0.44, lambda *a: constant_current_trace(*a[:3], 10.0, a[3])),
            (0.44, find_mode_shift_kc),
            (0.44, sop_cv),
            (0.22, sop_cccv),  # CV_ONLY: voltage-governed from step one
            (0.38, sop_cccv),  # the shift falls inside the window
            (0.44, sop_cp),
        ],
    )
    def test_every_trace_runs_on_the_kernel(
        self, params, linear_curve, soa, window_10, monkeypatch, soc, run
    ):
        class KernelCalled(Exception):
            pass

        def kernel(*args):
            raise KernelCalled

        monkeypatch.setattr(modes, "_trace", kernel)
        with pytest.raises(KernelCalled):
            run(BatteryState(soc), params, linear_curve, window_10, DIS, soa)

    @pytest.mark.parametrize(
        "soc, current, window, clamped",
        [
            (0.5, 10.0, Window(30, 1.0), False),
            (0.5, -4.0, Window(30, 1.0), False),
            (0.02, 10.0, Window(60, 5.0), True),  # empties the cell mid-window
            (0.98, -4.0, Window(60, 5.0), True),  # fills it
        ],
    )
    def test_constant_current_state_is_ecm_step(self, params, soc, current, window, clamped):
        # The hold step samples vt before the interval and ecm.step after it,
        # but both advance (soc, vp) by one recurrence, bit for bit.
        state = BatteryState(soc, 0.1)
        trace = constant_current_trace(state, params, NMC_CURVE, current, window)
        assert (trace.steps[-1].soc in (0.0, 1.0)) == clamped
        for row in trace.steps:
            state = step(state, params, NMC_CURVE, current, window.dt).state
            assert (row.soc.hex(), row.vp.hex()) == (state.soc.hex(), state.vp.hex())

    def test_rest_on_an_empty_cell_keeps_negative_zero(self, params):
        # The trace and ecm.step clamp the SOC by comparisons, which keep a
        # -0.0 SOC as min(max(soc, 0.0), 1.0) keeps it.
        state = BatteryState(-0.0, 0.1)
        trace = constant_current_trace(state, params, NMC_CURVE, 0.0, Window(5, 1.0))
        assert len(trace.steps) == 5
        for row in trace.steps:
            state = step(state, params, NMC_CURVE, 0.0, 1.0).state
            assert math.copysign(1.0, row.soc) == math.copysign(1.0, state.soc) == -1.0


class TestRowFreeTraces:
    """``_trace`` builds rows only for a caller that asks; the rows move
    nothing else, and ``sop_cp`` returns the rows of its accepted probe."""

    @staticmethod
    def _grid(curves, seed):
        rng = random.Random(seed)
        for curve, steps, direction in itertools.product(curves, (1, 10, 60), (DIS, CHG)):
            for _ in range(3):
                state = BatteryState(rng.uniform(0.05, 0.95), rng.uniform(-0.4, 0.4))
                yield state, curve, Window(steps, 1.0), direction

    @staticmethod
    def _corners(run, monkeypatch, rows):
        """The corners of every ``_trace`` call that ``run()`` makes, each
        traced with rows or without them. A caller that needs rows which were
        not built ends the run there."""
        trace = modes._trace
        seen = []

        class NoRows(Exception):
            pass

        def forced(state, params, lookup, window, drive, v_oc, wanted=None):
            kept = ([] if wanted is None else wanted) if rows else None
            corners = trace(state, params, lookup, window, drive, v_oc, kept)
            seen.append(repr(corners))
            if wanted is not None and kept is None:
                raise NoRows
            return corners

        with monkeypatch.context() as m:
            m.setattr(modes, "_trace", forced)
            try:
                run()
            except NoRows:
                pass
        return seen

    @pytest.mark.parametrize("engine", [sop_cv, sop_cccv, sop_cp])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_rows_do_not_move_the_corners(self, params, linear_curve, soa, monkeypatch, engine, seed):
        for state, curve, window, direction in self._grid((linear_curve, NMC_CURVE), seed):

            def run():
                engine(state, params, curve, window, direction, soa)

            with_rows = self._corners(run, monkeypatch, True)
            assert with_rows
            assert self._corners(run, monkeypatch, False) == with_rows

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sop_cp_returns_the_accepted_probe(self, params, linear_curve, soa, monkeypatch, seed):
        accepted = {}  # power magnitude -> margins of each feasible probe
        probe = modes._cp_probe

        def recording_probe(power_abs, *args):
            ok, margins = probe(power_abs, *args)
            if ok:
                accepted[power_abs] = margins
            return ok, margins

        monkeypatch.setattr(modes, "_cp_probe", recording_probe)
        answered = 0
        for state, curve, window, direction in self._grid((linear_curve, NMC_CURVE), seed):
            accepted.clear()
            result, trace = sop_cp(state, params, curve, window, direction, soa)
            if not accepted:  # refused at zero power: no trace
                assert (result.feasible, trace.steps) == (False, ())
                continue
            answered += result.feasible
            # The rows of the probe's own trace at the reported power.
            lookup = modes.ecm.ocv_cursor(curve)
            drive = modes._cp_drive(result.sop * direction.sign, params.r0)
            rows = []
            modes._trace(state, params, lookup, window, drive, lookup(state.soc), rows)
            assert repr(trace.steps) == repr(tuple(rows))
            # The accepted probe's margins are those of the returned rows.
            sign = direction.sign
            margins = (
                min((row.vt - direction.vt_cutoff(soa)) * sign for row in rows),
                min((row.soc - direction.soc_bound(soa)) * sign for row in rows),
                min((direction.current_limit(soa) - row.current) * sign for row in rows),
            )
            assert repr(accepted[result.sop]) == repr(margins)
            # dominant: the first bound with the smallest share of its
            # zero-power margin left (a margin of 0 or less there: its own units).
            shares = [m / (z if z > 0.0 else 1.0) for m, z in zip(margins, accepted[0.0])]
            assert result.dominant == ("voltage", "soc", "current")[shares.index(min(shares))]
        assert answered >= 18  # half the grid


class TestCccvShiftDecision:
    """sop_cccv decides a pre-window shift from step one; the public
    full-window classifier must agree with that decision."""

    @settings(max_examples=200, deadline=None)
    @given(
        curve=monotone_ocv(),
        soc=st.floats(0.0, 1.0),
        vp=st.floats(-0.6, 0.6),
        steps=st.sampled_from([1, 2, 10, 30, 60]),
        dt=st.sampled_from([0.1, 1.0, 5.0]),
        direction=st.sampled_from([DIS, CHG]),
    )
    def test_step_one_decision_matches_find_mode_shift_kc(
        self, curve, soc, vp, steps, dt, direction
    ):
        params = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
        soa = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
        args = (BatteryState(soc, vp), params, curve, Window(steps, dt), direction, soa)
        result, trace = sop_cccv(*args)
        cv_only = find_mode_shift_kc(*args).case is CcCvCase.CV_ONLY
        if cv_only:
            assert (result, trace) == sop_cv(*args)
        if not trace.steps:  # the trace left the SOA box: no power, no shift
            assert not result.feasible and trace.mode_shift_index is None
            return
        # The reported decision is the classifier's. (Equal outputs alone would
        # not show it: K = 1 or a window clipped to zero SOC headroom can coincide.)
        assert (result.dominant == "voltage") == cv_only
        if not cv_only:
            assert (result.dominant == "current") == (trace.mode_shift_index is None)

    def test_no_pre_pass_on_acceptance_grid(self, params, linear_curve, soa, monkeypatch):
        grid = [
            (BatteryState(round(0.1 * i, 1)), Window(steps, 1.0), direction)
            for i in range(1, 10)
            for steps in (1, 10, 30, 60)
            for direction in (DIS, CHG)
        ]
        expected = [
            sop_cccv(state, params, linear_curve, window, direction, soa)
            for state, window, direction in grid
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("sop_cccv must not simulate a pre-pass")

        monkeypatch.setattr(modes, "find_mode_shift_kc", forbidden)
        got = [
            sop_cccv(state, params, linear_curve, window, direction, soa)
            for state, window, direction in grid
        ]
        assert got == expected

    @pytest.mark.parametrize("engine", [sop_cv, sop_cccv])
    @pytest.mark.parametrize("direction", [DIS, CHG])
    def test_ocv_calls_per_window(self, params, soa, ocv_counter, engine, direction):
        # Algorithmic work, not wall time: one OCV lookup per step, the level
        # or shift decision included, and one bisection per OCV segment the
        # window enters, plus one at most.
        steps = 300
        window = Window(steps, 1.0)
        states = [BatteryState(soc, vp) for soc in (0.15, 0.5, 0.85) for vp in (-0.2, 0.0, 0.2)]
        shifts = {
            find_mode_shift_kc(state, params, NMC_CURVE, window, direction, soa).case
            for state in states
        }
        assert CcCvCase.CV_ONLY in shifts and len(shifts) > 1  # both step-one decisions
        for state in states:
            ocv_counter.reset()
            engine(state, params, NMC_CURVE, window, direction, soa)
            assert ocv_counter.lookups == steps
            assert ocv_counter.bisections <= ocv_counter.segments(NMC_CURVE, ocv_counter.socs) + 1
        # A window that leaves the SOA reports the rested voltage from step
        # one's lookup: no lookup more.
        for state in (BatteryState(0.95), BatteryState(0.95, -1.0), BatteryState(0.5, 1.5)):
            ocv_counter.reset()
            result, _ = engine(state, params, NMC_CURVE, window, direction, soa)
            assert not result.feasible
            assert result.vt_end == ocv(NMC_CURVE, state.soc) - state.vp
            assert ocv_counter.lookups == steps
            assert ocv_counter.bisections <= ocv_counter.segments(NMC_CURVE, ocv_counter.socs) + 1


class TestHoldEngine:
    """CV and CC-CV are one hold engine that differs only in how step one
    sets the level."""

    @settings(max_examples=300, deadline=None)
    @given(
        curve=monotone_ocv(),
        soc=st.floats(0.0, 1.0),
        vp=st.floats(-0.6, 0.6),
        steps=st.sampled_from([1, 2, 10, 30, 60]),
        dt=st.sampled_from([0.1, 1.0, 5.0]),
        direction=st.sampled_from([DIS, CHG]),
    )
    def test_cv_and_cccv_share_the_hold(self, curve, soc, vp, steps, dt, direction):
        params = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
        soa = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
        args = (BatteryState(soc, vp), params, curve, Window(steps, dt), direction, soa)
        limit, cutoff, sign = direction.current_limit(soa), direction.vt_cutoff(soa), direction.sign
        cv, cccv = sop_cv(*args), sop_cccv(*args)
        # Voltage-governed: the current limit already passes the cut-off at
        # step one, so both engines hold the cut-off from there on.
        emf = ocv(curve, soc) - vp * math.exp(-dt / params.tau)
        if (cutoff - (emf - limit * params.r0)) * sign > 0.0:
            assert cv == cccv
            assert cv[0].dominant == "voltage" and cv[1].mode_shift_index is None
        # A cut-off never reached (by a margin), no SOC bound crossed and a
        # trace inside the box: CC-CV is the constant current at the limit.
        reference = constant_current_trace(args[0], params, curve, limit, args[3])
        bound = direction.soc_bound(soa)
        if (
            all((cutoff - row.vt) * sign < -1e-9 for row in reference.steps)
            and all((row.soc - bound) * sign > 1e-9 for row in reference.steps)
            and not check_trace(reference.steps, soa)
        ):
            assert cccv[1] == reference
            assert cccv[0].dominant == "current" and cccv[0].i_mc == limit
