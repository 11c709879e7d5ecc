"""Mode-engine tests: CV hold, CC-CV shift dispatch, CP peak-power search."""

import itertools
import math
import random
import statistics
from bisect import bisect_right
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import soplab.modes as modes
from answer_shift import seeded_windows
from support import (
    NMC_CURVE,
    constant_current_trace,
    monotone_ocv,
    reference_sop_hold,
    seeded_monotone_ocv,
)
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
from soplab.oracle import _newton_law

DIS = Direction.DISCHARGE
CHG = Direction.CHARGE


class Traced(NamedTuple):
    rows: int  # the rows the trace stepped
    looked_up: list  # the SOCs whose OCV it read
    with_rows: bool  # whether its caller asked for the rows
    searches: int  # the table searches it ran itself


class WorkCounter:
    """Counts the engines' work where it does not ride on a call per step:
    the table searches (calls of ``ecm.bisect_right``) and the ``ecm._window``
    calls. Each trace is run with rows, whether its caller asked for them or
    not (rows move nothing else), and recorded as a ``Traced``."""

    def __init__(self, monkeypatch):
        self.searches = 0
        self.traces = []
        trace = modes.ecm._window

        def counting_search(socs, soc):
            self.searches += 1
            return bisect_right(socs, soc)

        def counting_trace(state, params, curve, window, law, start, wanted=None):
            rows = [] if wanted is None else wanted
            before = self.searches
            result = trace(state, params, curve, window, law, start, rows)
            # Step j > 1 reads the OCV at step j - 1's SOC, a refused step's too.
            stepped = rows if result is None else rows[:-1]
            looked_up = [state.soc, *(row.soc for row in stepped)]
            searched = self.searches - before
            self.traces.append(Traced(len(rows), looked_up, wanted is not None, searched))
            return result

        monkeypatch.setattr(modes.ecm, "bisect_right", counting_search)
        monkeypatch.setattr(modes.ecm, "_window", counting_trace)

    def reset(self):
        self.searches = 0
        self.traces.clear()

    def check_searches(self, curve):
        """One search for step one's segment, made once per window or solve
        by its caller, and in each trace one per segment it enters past step
        one's. The table's ends are in no segment: a SOC there searches
        nothing."""
        first, last = curve.socs[0], curve.socs[-1]
        in_traces = 0
        for traced in self.traces:
            entered = {bisect_right(curve.socs, s) for s in traced.looked_up if first < s < last}
            starts_inside = first < traced.looked_up[0] < last
            assert traced.searches <= len(entered) - starts_inside, traced
            in_traces += traced.searches
        assert self.searches - in_traces <= 1


@pytest.fixture
def work(monkeypatch):
    return WorkCounter(monkeypatch)


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
        "soc, direction, want, stepped",
        [
            (0.22, DIS, (CcCvCase.CV_ONLY, None), 1),
            (0.38, DIS, (CcCvCase.TRANSITIONAL, 9), 9),
            (0.5, CHG, (CcCvCase.CC_ONLY, None), 300),
        ],
    )
    def test_stops_at_the_crossing(
        self, params, linear_curve, soa, work, soc, direction, want, stepped
    ):
        # Algorithmic work: one trace, stepped up to the crossing, not K (the
        # crossing step reads its OCV but leaves no row), and one search, for
        # step one's segment, on the table's one segment.
        window = Window(300, 1.0)
        assert find_mode_shift_kc(BatteryState(soc), params, linear_curve, window, direction, soa) == want
        (traced,) = work.traces
        assert len(traced.looked_up) == stepped
        assert traced.rows == (stepped if want[0] is CcCvCase.CC_ONLY else stepped - 1)
        assert work.searches == 1
        work.check_searches(linear_curve)

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
        start = modes.ecm._seek(linear_curve, 0.5)
        for params in (params, BatteryParams(1e-300, 0.03, 10.0, 2.0, 1.0)):
            with pytest.raises(PowerInfeasibleError, match="against") as refused:
                solve_cp_step(state, params, linear_curve, 1.0, DIS)
            assert "exceeds the step ceiling" not in str(refused.value)
            assert _newton_law(params.r0, 1.0)(1, math.nan, 3.6 - 5.0) is None
            window = Window(10, 1.0)
            probe = modes._cp_probe(1.0, state, params, linear_curve, window, DIS, soa, start)
            assert probe == (False, None, None)

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

    def test_i_mc_is_the_peak_current(self, params, soa):
        # i_mc is the trace's largest |current|, on bms-tick-cp-like ticks.
        # The last step's current (discharge) or the first's (charge), which
        # i_mc used to be, is not that peak on some of them.
        rng = random.Random(1)
        elsewhere = 0
        for _ in range(100):
            state = BatteryState(rng.uniform(0.15, 0.85), rng.uniform(0.01, 0.2) * rng.choice((-1.0, 1.0)))
            window = Window(rng.choice((10, 30, 300)), 1.0)
            for direction in (DIS, CHG):
                result, trace = sop_cp(state, params, NMC_CURVE, window, direction, soa)
                assert trace.steps
                peak = max(trace.steps, key=lambda row: abs(row.current)).current
                assert repr(result.i_mc) == repr(peak)
                elsewhere += peak != trace.steps[-1 if direction is DIS else 0].current
        assert elsewhere > 0

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
        # directions, counting the zero-power and top probes. The search
        # takes 4.977 probes per solve here (at most 11); without a margin
        # for a ceiling probe and the steps past an estimate it took 5.158
        # (at most 12), and Illinois-weighted regula falsi 6.24 (at most 22).
        # The bounds leave about 5% on the mean and three probes on the
        # maximum. The costliest class, K = 300 discharging, and the
        # re-traces (a solve whose accepted probe kept no rows) are pinned.
        probes, with_rows = [0, 0], [0]
        probe, trace = modes._cp_probe, modes.ecm._window

        def counting_probe(*args):
            probes[0] += 1
            probes[1] += len(args) > 8 and args[8] is not None
            return probe(*args)

        def counting_trace(*args):
            with_rows[0] += len(args) > 6 and args[6] is not None
            return trace(*args)

        monkeypatch.setattr(modes, "_cp_probe", counting_probe)
        monkeypatch.setattr(modes.ecm, "_window", counting_trace)
        rng = random.Random(1)
        per_solve, k300_discharge = [], []
        for _ in range(100):
            for steps in rng.sample((10, 30, 300), 3):
                soc = rng.uniform(0.15, 0.85)
                vp = rng.uniform(0.01, 0.2) * rng.choice((-1.0, 1.0))
                state, window = BatteryState(soc, vp), Window(steps, 1.0)
                for direction in (DIS, CHG):
                    probes[0] = 0
                    sop_cp(state, params, NMC_CURVE, window, direction, soa)
                    per_solve.append(probes[0])
                    if steps == 300 and direction is DIS:
                        k300_discharge.append(probes[0])
        assert statistics.mean(per_solve) <= 5.2
        assert max(per_solve) <= 14
        assert (len(k300_discharge), sum(k300_discharge)) == (100, 781)  # 7.81 per solve
        assert with_rows[0] - probes[1] == 455  # re-traces: 0.758 per solve

    @staticmethod
    def _probe_sequence(state, curve, window, direction, tol):
        """Every probe of one solve on the conftest cell and SOA, as (power,
        holds), in order."""
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
            sop_cp(state, params, curve, window, direction, soa, tol)
        return probes

    @staticmethod
    def _assert_halves_in_any_three(probes, tol):
        # The search's worst case: whatever the interpolation does, the
        # bracket [lo, hi] at least halves over any three probes, so a solve
        # runs at most three times the probes plain bisection needs from the
        # top down to tol, besides the zero-power and top probes.
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
        probes = self._probe_sequence(BatteryState(soc, vp), curve, Window(steps, 1.0), direction, tol)
        assume(len(probes) > 2)
        self._assert_halves_in_any_three(probes, tol)

    def test_bracket_halves_in_any_three_probes_on_a_seeded_grid(self):
        # The same guarantee replayed over every probe of 2,000 seeded solves
        # drawn as above (about 1,350 probe inside the bracket). A break can
        # be rare. Before the search aimed past a free estimate, capping the
        # step past a one-sided estimate at the midpoint alone, without its
        # floor at hi less half the bracket of two probes before, broke the
        # halving on 2 of these solves (2 and 3 for seeds 2 and 3), which
        # this grid catches and the 100 examples above did not.
        rng = random.Random(1)
        replayed = 0
        for _ in range(2000):
            curve = seeded_monotone_ocv(rng)
            state = BatteryState(rng.uniform(0.1, 0.9), rng.uniform(-0.6, 0.6))
            window, direction = Window(rng.randint(1, 300), 1.0), rng.choice((DIS, CHG))
            tol = rng.choice((1e-6, 1e-9))
            probes = self._probe_sequence(state, curve, window, direction, tol)
            if len(probes) > 2:
                self._assert_halves_in_any_three(probes, tol)
                replayed += 1
        assert replayed > 1000

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

    def test_estimate_through_a_power_ceiling(self, linear_curve, monkeypatch):
        # The top probe and the next one hit a power ceiling here. Each is
        # remembered with g = -1, so no estimate has fewer than two points,
        # and one lands off the midpoint by the secant through a ceiling
        # probe. The answer still agrees with the oracle (51.7308 W).
        params = BatteryParams(r0=0.01, r1=0.03, tau=10.0, capacity_ah=2.0)
        soa = Soa(1.8, 16.0, 100.0, -4.0, 0.05, 0.95)
        args = (BatteryState(0.3, 0.05), params, linear_curve, Window(10, 10.0), DIS, soa)
        seen = []  # (points, lo, hi, estimate) of each estimate
        estimate = modes._cp_estimate

        def recording_estimate(points, lo, hi):
            out = estimate(points, lo, hi)
            seen.append((list(points), lo, hi, out))
            return out

        monkeypatch.setattr(modes, "_cp_estimate", recording_estimate)
        result, _ = sop_cp(*args)
        assert min(len(points) for points, *_ in seen) >= 2
        assert any(
            out is not None and out != 0.5 * (lo + hi) and -1.0 in [g for _, g in points[-2:]]
            for points, lo, hi, out in seen
        )
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
        start = modes.ecm._seek(curve, soc)
        ok, margins, peak = modes._cp_probe(power, state, params, curve, window, direction, soa, start)
        feasible, want = _cp_resimulate(*args)
        assert ok == feasible
        assert margins == want
        assert (peak is None) == (want is None)

    @pytest.mark.parametrize("direction", [DIS, CHG])
    def test_ocv_calls_per_solve(self, params, soa, monkeypatch, work, direction):
        # Algorithmic work, not wall time. A probe steps rows exactly when it
        # would close the bracket by holding (hi - P <= tol); a solve steps
        # its accepted power once more, with rows, exactly when that probe
        # kept none. Step one's segment is sought once per solve, and every
        # trace starts in it: the bracket top reads step one's emf off that
        # same seek.
        steps, tol = 300, 1e-6
        window = Window(steps, 1.0)
        probes = []  # (power, held) of each probe
        probe = modes._cp_probe

        def recording_probe(*args):
            out = probe(*args)
            probes.append((args[0], out[0]))
            return out

        monkeypatch.setattr(modes, "_cp_probe", recording_probe)
        retraced = 0
        for soc in (0.15, 0.5, 0.85):
            for vp in (-0.2, 0.0, 0.2):
                probes.clear()
                work.reset()
                result, _ = sop_cp(BatteryState(soc, vp), params, NMC_CURVE, window, direction, soa)
                assert result.feasible
                (top, top_ok), traces = probes[1], work.traces
                lo, hi = (top, top) if top_ok else (0.0, top)
                want_rows = [False, False]
                for power, held in probes[2:]:
                    want_rows.append(hi - power <= tol)
                    lo, hi = (power, hi) if held else (lo, power)
                assert [traced.with_rows for traced in traces[: len(probes)]] == want_rows
                kept = want_rows[-1] and probes[-1][1]
                assert len(traces) == len(probes) + (not kept)
                assert traces[-1].with_rows and traces[-1].rows == steps
                retraced += not kept
                work.check_searches(NMC_CURVE)
        assert 0 < retraced < 9  # each path runs on this grid
        # A window that leaves the SOA: the zero-power probe alone, a rest
        # that searches nothing past step one's seek, whose OCV also gives
        # the rested voltage that the result reports. A refused window is
        # never stepped again.
        for state in (BatteryState(0.95), BatteryState(0.95, -1.0), BatteryState(0.5, 1.5)):
            probes.clear()
            work.reset()
            result, _ = sop_cp(state, params, NMC_CURVE, window, direction, soa)
            assert (len(probes), len(work.traces)) == (1, 1)
            assert work.searches == 1
            work.check_searches(NMC_CURVE)
            assert not result.feasible
            assert result.vt_end == ocv(NMC_CURVE, state.soc) - state.vp


class TestTraceKernel:
    """Every stepwise trace runs on ecm._window, whose state recurrence is
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

        monkeypatch.setattr(modes.ecm, "_window", kernel)
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
    """``ecm._window`` builds rows only for a caller that asks; the rows move
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
        """The corners of every ``ecm._window`` call that ``run()`` makes, each
        traced with rows or without them. A caller that needs rows which were
        not built gets them from a second, unrecorded call."""
        trace = modes.ecm._window
        seen = []

        def forced(state, params, curve, window, law, start, wanted=None):
            kept = ([] if wanted is None else wanted) if rows else None
            corners = trace(state, params, curve, window, law, start, kept)
            seen.append(repr(corners))
            if wanted is not None and kept is None:
                trace(state, params, curve, window, law, start, wanted)
            return corners

        with monkeypatch.context() as m:
            m.setattr(modes.ecm, "_window", forced)
            run()
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
        # Its rows come from the probe that closed the bracket by holding, or
        # from one more trace where the accepted probe kept none: either way,
        # those of ecm._window at the reported power.
        accepted = {}  # power magnitude -> (margins, kept rows) of each feasible probe
        probe = modes._cp_probe

        def recording_probe(power_abs, *args):
            out = probe(power_abs, *args)
            if out[0]:
                accepted[power_abs] = out[1], len(args) > 7 and args[7] is not None
            return out

        monkeypatch.setattr(modes, "_cp_probe", recording_probe)
        answered, paths = 0, set()
        for state, curve, window, direction in self._grid((linear_curve, NMC_CURVE), seed):
            accepted.clear()
            result, trace = sop_cp(state, params, curve, window, direction, soa)
            if not accepted:  # refused at zero power: no trace
                assert (result.feasible, trace.steps) == (False, ())
                continue
            answered += result.feasible
            paths.add(accepted[result.sop][1])
            # The rows of the probe's own trace at the reported power.
            rows = []
            power = result.sop * direction.sign
            modes.ecm._window(state, params, curve, window, power, modes.ecm._seek(curve, state.soc), rows)
            assert repr(trace.steps) == repr(tuple(rows))
            # i_mc is the trace's peak |current|, signed.
            peak = max if direction is DIS else min
            assert repr(result.i_mc) == repr(peak(row.current for row in rows))
            # The accepted probe's margins are those of the returned rows.
            sign = direction.sign
            margins = (
                min((row.vt - direction.vt_cutoff(soa)) * sign for row in rows),
                min((row.soc - direction.soc_bound(soa)) * sign for row in rows),
                min((direction.current_limit(soa) - row.current) * sign for row in rows),
            )
            assert repr(accepted[result.sop][0]) == repr(margins)
            # dominant: the first bound with the smallest share of its
            # zero-power margin left (a margin of 0 or less there: its own units).
            shares = [m / (z if z > 0.0 else 1.0) for m, z in zip(margins, accepted[0.0][0])]
            assert result.dominant == ("voltage", "soc", "current")[shares.index(min(shares))]
        assert answered >= 18  # half the grid
        assert paths == {True, False}  # rows kept by the closing probe, and re-traced


class TestRestTrace:
    """A zero-power window without rows is a rest: ``ecm._window`` steps only
    vp, with no OCV past step one's, and takes its corners from steps one and
    K. The same zero current handed in as a step callback is stepped every
    step through the OCV, so the two must agree by repr, signed zeros
    included. A zero-power window with rows takes the constant-power root:
    where every step's emf is > 0 its rows and corners are the callback's by
    repr, and elsewhere it abandons the window."""

    @staticmethod
    def _check(state, params, curve, window, power):
        """The rest's corners and those of the window with rows (None where
        it abandoned the window)."""

        def no_seek(curve, soc):
            raise AssertionError(f"a rest looked up the OCV at soc {soc!r}")

        emfs = []

        def zero_current(j, soc, emf):
            emfs.append(emf)
            return power, emf - power * params.r0

        start = modes.ecm._seek(curve, state.soc)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(modes.ecm, "_seek", no_seek)
            rest = modes.ecm._window(state, params, curve, window, power, start)
        rows, stepped_rows = [], []
        stepped = modes.ecm._window(state, params, curve, window, zero_current, start, stepped_rows)
        traced = modes.ecm._window(state, params, curve, window, power, start, rows)
        case = (state, params, curve, window, power)
        assert len(stepped_rows) == window.steps
        assert repr(rest) == repr(stepped), case
        if all(emf > 0.0 for emf in emfs):
            assert repr(rows) == repr(stepped_rows), case
            assert repr(traced) == repr(stepped), case
        else:
            assert traced is None, case
        return rest, traced

    @pytest.mark.parametrize("power", [0.0, -0.0])
    def test_seeded_grid(self, params, linear_curve, power):
        rng = random.Random(5)
        traced = set()
        for _ in range(200):
            state = BatteryState(rng.uniform(0.0, 1.0), rng.uniform(-2.0, 6.0))
            curve = rng.choice((linear_curve, NMC_CURVE))
            window = Window(rng.choice((1, 2, 10, 30, 300)), rng.choice((0.1, 1.0, 5.0, 60.0)))
            traced.add(self._check(state, params, curve, window, power)[1] is not None)
        assert traced == {True, False}  # windows stepped with rows, and abandoned

    @pytest.mark.parametrize("steps", [1, 300])
    @pytest.mark.parametrize("soc", [-0.0, 0.0, 0.1, 0.9, 1.0])
    @pytest.mark.parametrize("vp", [-0.0, 0.0, -0.3, 0.3])
    @pytest.mark.parametrize("power", [0.0, -0.0])
    def test_edges(self, params, steps, soc, vp, power):
        # soc at both ends of a table that spans [0.1, 0.9], and past them.
        curve = OcvCurve(((0.1, 3.3), (0.5, 3.7), (0.9, 4.1)))
        rest, traced = self._check(BatteryState(soc, vp), params, curve, Window(steps, 1.0), power)
        assert traced is not None  # every emf is at least 3.0 V
        # A charge rest turns a -0.0 SOC into +0.0 on step one, as the loop does.
        charge = math.copysign(1.0, power) < 0.0
        soc_sign = 1.0 if charge else math.copysign(1.0, soc)
        low, high = rest
        assert math.copysign(1.0, low[2]) == math.copysign(1.0, high[2]) == soc_sign

    @pytest.mark.parametrize("steps", [1, 300])
    @pytest.mark.parametrize("vp", [-0.0, 0.0, 0.2])
    @pytest.mark.parametrize("power", [0.0, -0.0])
    def test_alpha_rounds_to_one(self, steps, vp, power):
        # dt / tau = 1e-18: exp rounds alpha to 1.0, so vp never decays and a
        # -0.0 vp turns +0.0 only by the discharge's +0.0 current term.
        params = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
        window = Window(steps, 1e-17)
        assert math.exp(-window.dt / params.tau) == 1.0
        _, traced = self._check(BatteryState(0.5, vp), params, NMC_CURVE, window, power)
        assert traced is not None

    def test_vt_falling_to_zero_meets_positive_zero_first(self):
        # A -0.0 V first knot at soc 0 and a negative vp that underflows:
        # vt is 5e-324, then +0.0 as vp relaxes to -0.0, then -0.0 once a
        # discharge's +0.0 current term has made vp +0.0. The stepped zero
        # current keeps the first +0.0 as its minimum, and so must the rest.
        params = BatteryParams(r0=0.05, r1=0.03, tau=1.0, capacity_ah=2.0)
        curve = OcvCurve(((0.0, -0.0), (1.0, 4.2)))
        state, window = BatteryState(0.0, -2e-323), Window(3, 1.2)
        start = modes.ecm._seek(curve, 0.0)
        stepped_rows = []
        modes.ecm._window(state, params, curve, window, lambda j, soc, emf: (0.0, emf), start, stepped_rows)
        assert [row.vt.hex() for row in stepped_rows] == ["0x0.0000000000001p-1022", "0x0.0p+0", "-0x0.0p+0"]
        # With rows, the constant-power root refuses step 2, whose emf is +0.0.
        rows = []
        assert modes.ecm._window(state, params, curve, window, 0.0, start, rows) is None
        assert [row.vt.hex() for row in rows] == ["0x0.0000000000001p-1022"]
        (low, _), traced = self._check(state, params, curve, window, 0.0)
        assert low[0].hex() == "0x0.0p+0"
        assert traced is None


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
        # A binding step that ends on the SOC bound names it, whichever bound
        # governs; a voltage-governed window still reports no shift.
        binding = min(trace.steps, key=lambda row: abs(row.power))
        if binding.soc == direction.soc_bound(soa):
            assert result.dominant == "soc"
            assert trace.mode_shift_index is None or not cv_only
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
    def test_ocv_calls_per_window(self, params, soa, work, engine, direction):
        # Algorithmic work, not wall time: one trace of K rows per window, the
        # level or shift decision included, and one search for step one's
        # segment plus one per segment the window enters past it.
        steps = 300
        window = Window(steps, 1.0)
        states = [BatteryState(soc, vp) for soc in (0.15, 0.5, 0.85) for vp in (-0.2, 0.0, 0.2)]
        shifts = {
            find_mode_shift_kc(state, params, NMC_CURVE, window, direction, soa).case
            for state in states
        }
        assert CcCvCase.CV_ONLY in shifts and len(shifts) > 1  # both step-one decisions
        for state in states:
            work.reset()
            engine(state, params, NMC_CURVE, window, direction, soa)
            assert [traced.rows for traced in work.traces] == [steps]
            work.check_searches(NMC_CURVE)
        # A window that leaves the SOA reports the rested voltage from step
        # one's OCV: no trace more.
        for state in (BatteryState(0.95), BatteryState(0.95, -1.0), BatteryState(0.5, 1.5)):
            work.reset()
            result, _ = engine(state, params, NMC_CURVE, window, direction, soa)
            assert [traced.rows for traced in work.traces] == [steps]
            work.check_searches(NMC_CURVE)
            assert not result.feasible
            assert result.vt_end == ocv(NMC_CURVE, state.soc) - state.vp


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
            # ... and name the voltage, unless the binding step ends on the SOC bound.
            rows = cv[1].steps
            on_bound = rows and min(rows, key=lambda row: abs(row.power)).soc == direction.soc_bound(soa)
            assert cv[0].dominant == ("soc" if on_bound else "voltage")
            assert cv[1].mode_shift_index is None
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


class TestInlineHoldLaw:
    """``ecm._window`` steps the hold law inline, its step-one decision made before
    the loop and its binding step found by comparisons. It must match the
    step callback it replaced (``support.reference_sop_hold``) by repr: the
    result, every row and the mode shift, for CV and CC-CV."""

    @staticmethod
    def _windows(linear_curve):
        rng = random.Random(7)
        curves = (linear_curve, NMC_CURVE)
        for _ in range(800):
            yield (
                BatteryState(rng.uniform(0.02, 0.98), rng.uniform(-0.6, 0.6)),
                rng.choice(curves),
                Window(rng.choice((1, 2, 10, 30, 300)), rng.choice((0.1, 1.0, 5.0, 60.0))),
                rng.choice((DIS, CHG)),
            )
        # SOCs on, inside and past the box's SOC bounds (no headroom: zero
        # power), signed zeros, K = 1, and dt / tau = 1e-18, where alpha
        # rounds to 1 and no SOC moves: every step alike, so every |power| ties.
        for curve, soc, vp, steps, dt, direction in itertools.product(
            curves, (-0.0, 0.0, 0.05, 0.1, 0.5, 0.9, 0.95, 1.0), (-0.0, 0.0, 0.3), (1, 10),
            (1.0, 1e-17), (DIS, CHG),
        ):
            yield BatteryState(soc, vp), curve, Window(steps, dt), direction

    def test_matches_the_step_callback(self, params, linear_curve, soa, monkeypatch):
        # Tied rows of least |power| are alike on this grid, so the result
        # alone cannot tell which binds: the trace's binding step is read too.
        bindings = []
        run_trace = modes.ecm._window

        def recording_trace(*args):
            corners = run_trace(*args)
            if isinstance(args[4], modes._Hold):
                bindings.append(corners[2])
            return corners

        monkeypatch.setattr(modes.ecm, "_window", recording_trace)
        seen = {"dual": 0, "current": 0, "voltage": 0, "soc": 0, "refused": 0, "zero": 0, "ties": 0}
        for state, curve, window, direction in self._windows(linear_curve):
            for engine, cv in ((sop_cv, True), (sop_cccv, False)):
                args = (state, params, curve, window, direction, soa)
                got = engine(*args)
                want = reference_sop_hold(*args, cv)
                assert repr(got) == repr(want), (args, cv)
                result, trace = got
                if not trace.steps:
                    seen["refused"] += 1
                    continue
                binding = min(trace.steps, key=lambda row: abs(row.power))
                assert bindings[-1] == binding.index, (args, cv)
                seen[result.dominant] += 1
                least = [abs(row.power) for row in trace.steps].count(result.sop)
                seen["zero"] += result.sop == 0.0
                seen["ties"] += least > 1
        assert all(count >= 20 for count in seen.values()), seen


class TestHoldSocLabel:
    """The hold engines name ``soc`` when their binding step ends on the
    direction's SOC bound, which on the answer digest's window draw happens
    exactly where that step's current is the loop's SOC-headroom clip."""

    @pytest.mark.parametrize("engine", [sop_cv, sop_cccv])
    def test_soc_names_the_headroom_clip(self, engine):
        labelled = answered = 0
        for args in seeded_windows(2000, 2, (1, 2, 10, 30, 300)):
            state, params, _, window, direction, soa = args
            result, trace = engine(*args)
            if not trace.steps:
                continue
            answered += 1
            rows = trace.steps
            k = min(range(len(rows)), key=lambda i: abs(rows[i].power))  # the first least binds
            before = state.soc if k == 0 else rows[k - 1].soc
            div = window.dt * params.soc_per_amp_second
            clipped = div > 0.0 and rows[k].current == (before - direction.soc_bound(soa)) / div
            assert (result.dominant == "soc") == clipped, (args, rows[k])
            assert (result.dominant == "soc") == (rows[k].soc == direction.soc_bound(soa)), args
            labelled += clipped
        # 176 CV and 372 CC-CV windows of about 1,700 answered each.
        assert labelled >= 150 and answered >= 1500, (labelled, answered)
