"""SOA box and compliance-check tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soplab import (
    BatteryParams,
    BatteryState,
    ConfigurationError,
    Direction,
    OcvCurve,
    Soa,
    Window,
    brute_peak_current_cc,
    brute_peak_power_cp,
    check_point,
    check_trace,
    find_mode_shift_kc,
    sop_cc,
    sop_cccv,
    sop_cp,
    sop_cv,
    step,
)


def test_soa_invariants():
    with pytest.raises(ConfigurationError):
        Soa(4.3, 2.8, 10.0, -4.0, 0.1, 0.9)
    with pytest.raises(ConfigurationError):
        Soa(2.8, 4.3, -10.0, -4.0, 0.1, 0.9)
    with pytest.raises(ConfigurationError):
        Soa(2.8, 4.3, 10.0, 4.0, 0.1, 0.9)
    with pytest.raises(ConfigurationError):
        Soa(2.8, 4.3, 10.0, -4.0, 0.9, 0.1)


@pytest.mark.parametrize("vt_min", [0.0, -0.0, -1.0, -5e-324])
def test_soa_needs_a_positive_cut_off(vt_min):
    # A cell's lower cut-off voltage is positive; sop_cp's power bound needs
    # step one's emf, which lies above it, to be positive too.
    with pytest.raises(ConfigurationError, match="vt_min"):
        Soa(vt_min, 4.3, 10.0, -4.0, 0.1, 0.9)
    assert Soa(5e-324, 4.3, 10.0, -4.0, 0.1, 0.9).vt_min == 5e-324


@pytest.mark.parametrize(
    "vt_max, i_max_dis, i_max_chg",
    [
        (1.7e308, 10.0, -1e300),
        (1.7e308, 1e300, -4.0),
        (9.0, 1e307, -4.0),
        (9.0, 10.0, -1e307),
        # emf**2 overflowed to inf, the root with it, and sop_cp reported
        # 1.5e201 W over rows of 0 A (OCV 1e200..2e200 V).
        (1e250, 10.0, -4.0),
        # 4 r0 P overflowed on a charge step: -5.5e307 W over a row of -0.0 A
        # (r0 1 ohm, OCV 1e153..1.1e153 V), with vt_max**2 still finite.
        (1.3e154, 10.0, -6.9e153),
    ],
)
def test_soa_rejects_a_power_bound_that_overflows(vt_max, i_max_dis, i_max_chg):
    # The CP bracket tops (sop_cp's, and the oracle's |i_lim| * vt_max) and
    # the step current's 2 * power stay finite only if this product does:
    # 2 * 1e307 * 9 is beyond the floats, 2 * 1e307 * 8 is not. A CP step's
    # discriminant stays below 5 * vt_max**2 in the box: 8 * vt_max**2 must
    # be finite too.
    with pytest.raises(ConfigurationError, match="overflows"):
        Soa(2.8, vt_max, i_max_dis, i_max_chg, 0.1, 0.9)
    assert Soa(2.8, 8.0, 1e307, -1e307, 0.1, 0.9).i_max_dis == 1e307
    assert Soa(2.8, 4.7e153, 10.0, -4.0, 0.1, 0.9).vt_max == 4.7e153


@pytest.mark.parametrize("direction", list(Direction))
def test_soa_rejects_a_power_bound_that_underflows(direction):
    # The CP oracle's default top |i_lim| * vt_max was 5e-324 * 1e-9 = 0, and
    # brute_peak_power_cp refused its own default with a bare ValueError.
    with pytest.raises(ConfigurationError, match="underflows to 0"):
        Soa(1e-11, 1e-9, 5e-324, -4.0, 0.1, 0.9)
    with pytest.raises(ConfigurationError, match="underflows to 0"):
        Soa(1e-11, 1e-9, 4.0, -5e-324, 0.1, 0.9)
    # The smallest such product the box accepts is a bracket top the oracle takes.
    soa = Soa(1e-11, 1e-9, 1e-300, -1e-300, 0.1, 0.9)
    curve = OcvCurve(((0.0, 1e-10), (1.0, 2e-10)))
    params = BatteryParams(0.05, 0.03, 10.0, 2.0)
    found = brute_peak_power_cp(BatteryState(0.5), params, curve, Window(10, 1.0), direction, soa)
    assert 0.0 <= found.watts <= 1e-300 * 1e-9


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize(
    "entry",
    [
        sop_cc,
        sop_cv,
        sop_cccv,
        sop_cp,
        find_mode_shift_kc,
        brute_peak_current_cc,
        brute_peak_power_cp,
    ],
    ids=lambda entry: entry.__name__,
)
def test_polarization_load_that_overflows_is_refused(entry, direction):
    # 2 * r1 * 10 A is beyond the floats, so the polarization's load term
    # current * r1 is not finite at a current the box admits. Each engine and
    # oracle refuses the cell before it simulates anything: unchecked, sop_cp
    # raised IndexError, sop_cv and sop_cccv reported power over NaN rows,
    # sop_cc and the CP oracle answered, and find_mode_shift_kc found no shift.
    params = BatteryParams(0.05, 1.7e308, 10.0, 1.7e304)
    curve = OcvCurve(((0.0, 3.0), (1.0, 4.2)))
    soa = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
    with pytest.raises(ConfigurationError, match=r"2 \* r1 \* max"):
        entry(BatteryState(0.5, 0.1), params, curve, Window(3, 1e-300), direction, soa)


@pytest.mark.parametrize("field", ["vt_min", "vt_max", "i_max_dis", "i_max_chg", "soc_min", "soc_max"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_soa_rejects_non_finite_limit(field, bad):
    limits = dict(vt_min=2.8, vt_max=4.3, i_max_dis=10.0, i_max_chg=-4.0, soc_min=0.1, soc_max=0.9)
    limits[field] = bad
    with pytest.raises(ConfigurationError, match=field):
        Soa(**limits)


class TestCheckPoint:
    def test_interior_point(self, soa):
        assert check_point(3.5, 0.0, 0.5, soa) == []

    def test_bounds_inclusive(self, soa):
        assert check_point(soa.vt_min, 0.0, 0.5, soa) == []
        assert check_point(soa.vt_max, 0.0, 0.5, soa) == []
        assert check_point(3.5, soa.i_max_dis, 0.5, soa) == []
        assert check_point(3.5, soa.i_max_chg, 0.5, soa) == []
        assert check_point(3.5, 0.0, soa.soc_min, soa) == []
        assert check_point(3.5, 0.0, soa.soc_max, soa) == []

    def test_unit_current_excess(self, soa):
        violations = check_point(3.5, soa.i_max_dis + 1.0, 0.5, soa)
        assert len(violations) == 1
        assert violations[0].kind == "current_high_dis"
        assert violations[0].magnitude == pytest.approx(1.0, abs=1e-12)

    def test_each_kind_detected(self, soa):
        kinds = {v.kind for v in check_point(2.0, 20.0, 0.05, soa)}
        assert kinds == {"voltage_low", "current_high_dis", "soc_low"}
        kinds = {v.kind for v in check_point(5.0, -20.0, 0.95, soa)}
        assert kinds == {"voltage_high", "current_high_chg", "soc_high"}

    @settings(max_examples=100, deadline=None)
    @given(current=st.floats(min_value=-30.0, max_value=30.0))
    def test_sign_correct(self, current):
        soa = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
        kinds = {v.kind for v in check_point(3.5, current, 0.5, soa)}
        if current < 0:
            assert "current_high_dis" not in kinds
        if current > 0:
            assert "current_high_chg" not in kinds


class TestCheckTrace:
    def test_compliant_cc_trace(self, params, linear_curve, soa):
        state = BatteryState(0.5)
        rows = []
        for j in range(1, 11):
            state, vt = step(state, params, linear_curve, 5.0, 1.0)
            rows.append(_Row(j, 5.0, vt, state.soc))
        assert check_trace(rows, soa) == []

    def test_empty_trace(self, soa):
        assert check_trace([], soa) == []

    def test_first_violation_index_at_crossing(self, params, linear_curve, soa):
        # Overdrive the window at 1.05x the brute-force peak current and find
        # the crossing step by direct simulation; check_trace must agree.
        window = Window(10, 1.0)
        state = BatteryState(0.3)
        peak = brute_peak_current_cc(state, params, linear_curve, window, Direction.DISCHARGE, soa)
        current = 1.05 * peak
        rows = []
        sim = state
        crossing = None
        for j in range(1, window.steps + 1):
            sim, vt = step(sim, params, linear_curve, current, window.dt)
            rows.append(_Row(j, current, vt, sim.soc))
            if crossing is None and vt < soa.vt_min:
                crossing = j
        violations = check_trace(rows, soa)
        assert violations, "overdriven trace must violate"
        assert crossing is not None
        assert violations[0].kind == "voltage_low"
        assert violations[0].step_index == crossing

    @settings(max_examples=50, deadline=None)
    @given(current=st.floats(min_value=-6.0, max_value=12.0), soc0=st.floats(0.2, 0.8))
    def test_trace_empty_iff_every_point_empty(self, current, soc0):
        params_ = BatteryParams(0.05, 0.03, 10.0, 2.0, 1.0)
        curve = OcvCurve(((0.0, 3.0), (1.0, 4.2)))
        soa = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
        state = BatteryState(soc0)
        rows = []
        for j in range(1, 9):
            state, vt = step(state, params_, curve, current, 1.0)
            rows.append(_Row(j, current, vt, state.soc))
        per_point = [check_point(r.vt, r.current, r.soc, soa) for r in rows]
        assert (check_trace(rows, soa) == []) == all(p == [] for p in per_point)


class _Row:
    def __init__(self, index, current, vt, soc):
        self.index = index
        self.current = current
        self.vt = vt
        self.soc = soc
