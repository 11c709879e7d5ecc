"""Model-core tests: OCV services, single steps, window prediction, replay."""

import math
import re
from bisect import bisect_right
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soplab import (
    BatteryParams,
    BatteryState,
    ConfigurationError,
    Direction,
    InputError,
    OcvCurve,
    Soa,
    Window,
    ocv,
    predict_cc,
    simulate_profile,
    step,
    window_terms,
)
import soplab.ecm as ecm
from soplab.ecm import ocv_cursor
from support import monotone_ocv


class TestOcv:
    def test_knot_socs_derived_once(self, knee_curve):
        assert knee_curve.socs == (0.0, 0.5, 1.0)
        assert "socs" not in repr(knee_curve)
        assert knee_curve == OcvCurve(((0.0, 3.0), (0.5, 3.5), (1.0, 4.2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_knot_rejected(self, bad):
        # A NaN knot passes the ordering checks, since every comparison with it is false.
        with pytest.raises(ConfigurationError):
            OcvCurve(((0.0, 3.0), (0.5, bad), (1.0, 4.2)))
        with pytest.raises(ConfigurationError):
            OcvCurve(((0.0, 3.0), (bad, 3.5), (1.0, 4.2)))

    def test_midpoint_interpolation(self, linear_curve):
        assert ocv(linear_curve, 0.5) == pytest.approx(3.6, abs=1e-15)

    def test_knot_exactness(self, linear_curve, knee_curve):
        assert ocv(linear_curve, 1.0) == 4.2
        assert ocv(linear_curve, 0.0) == 3.0
        assert ocv(knee_curve, 0.5) == 3.5

    def test_segment_interpolation(self, knee_curve):
        assert ocv(knee_curve, 0.75) == pytest.approx(3.85, abs=1e-15)

    def test_clamped_extrapolation(self):
        curve = OcvCurve(((0.2, 3.2), (0.8, 4.0)))
        assert ocv(curve, 0.05) == 3.2
        assert ocv(curve, 0.95) == 4.0

    def test_non_monotone_soc_rejected(self):
        with pytest.raises(ConfigurationError):
            OcvCurve(((0.0, 3.0), (0.0, 3.1), (1.0, 4.2)))
        with pytest.raises(ConfigurationError):
            OcvCurve(((0.5, 3.0), (0.2, 3.5)))

    def test_decreasing_voltage_rejected(self):
        with pytest.raises(ConfigurationError):
            OcvCurve(((0.0, 3.5), (1.0, 3.0)))

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            OcvCurve(((0.5, 3.6),))

    def test_nan_soc_rejected(self, linear_curve, knee_curve):
        # NaN fails every comparison: neither end clamps it, and an unguarded
        # search would interpolate it into a silent NaN voltage.
        for curve in (linear_curve, knee_curve):
            with pytest.raises(InputError, match="soc must not be NaN"):
                ocv(curve, math.nan)


@st.composite
def soc_walks(draw, curve):
    """SOC walks over ``curve``: pieces of equal steps, each one way (or at
    rest), starting anywhere in or beyond the knot range, on a knot or at an
    end."""
    socs = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(
            st.one_of(
                st.floats(-0.2, 1.2),
                st.sampled_from(curve.socs),
                st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0, math.inf, -math.inf]),
            )
        )
        delta = draw(st.one_of(st.just(0.0), st.floats(-0.08, 0.08)))
        socs.extend(start + j * delta for j in range(draw(st.integers(1, 40))))
    return socs


class TestOcvCursor:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), curve=monotone_ocv())
    def test_equals_ocv_bit_for_bit(self, data, curve):
        lookup = ocv_cursor(curve)
        for soc in data.draw(soc_walks(curve)):
            assert lookup(soc).hex() == ocv(curve, soc).hex()
        # NaN raises as in ocv, and leaves the cursor answering as before.
        with pytest.raises(InputError, match="soc must not be NaN"):
            lookup(math.nan)
        for soc in data.draw(soc_walks(curve)):
            assert lookup(soc).hex() == ocv(curve, soc).hex()

    def test_bisects_once_per_segment_entered(self, knee_curve, monkeypatch):
        # A walk down both segments of the knee table, at rest on its middle
        # knot for three steps: one search per segment. The knot opens the
        # upper segment, so the rest on it searches nothing.
        walk = [0.9, 0.8, 0.7, 0.6, 0.5, 0.5, 0.5, 0.4, 0.3]
        want = [ocv(knee_curve, soc) for soc in walk]
        calls = []

        def counting_bisect(socs, soc):
            calls.append(soc)
            return bisect_right(socs, soc)

        monkeypatch.setattr(ecm, "bisect_right", counting_bisect)
        lookup = ocv_cursor(knee_curve)
        assert [lookup(soc) for soc in walk] == want
        assert calls == [0.9, 0.4]

    def test_first_knot_keeps_a_negative_zero_voltage(self):
        # ocv clamps at the first knot to its own voltage, -0.0 here; the
        # segment's expression would answer -0.0 + 0.0 = +0.0.
        curve = OcvCurve(((0.0, -0.0), (0.5, 1.0), (1.0, 2.0)))
        lookup = ocv_cursor(curve)
        for soc in (0.25, 0.0, 5e-324, 0.0, -0.0, 0.25, 0.0):
            assert lookup(soc).hex() == ocv(curve, soc).hex()
        assert lookup(0.0).hex() == "-0x0.0p+0"

    def test_only_ecm_bisects(self):
        # One cursor for every window loop: no other module keeps a segment.
        package = Path(ocv.__code__.co_filename).parent
        bisecting = sorted(
            path.name
            for path in package.glob("*.py")
            if re.search(r"\bbisect_(left|right)\b", path.read_text())
        )
        assert bisecting == ["ecm.py"]


class TestOcvSlope:
    """The window OCV slope of ``peak_cc.window_terms``: the start segment's
    slope, then the secant to the SOC its candidate current reaches."""

    @staticmethod
    def _kappa(curve, soc, capacity_ah, window=Window(1, 1.0)):
        # A cut-off of 0.1 V binds none of these windows: the candidate
        # current is the 10 A discharge limit, or on a 1e-4 Ah cell the
        # current that empties it, so its SOC reach is soc - 10 * K * dt /
        # (3600 * capacity_ah), or 0.
        params = BatteryParams(0.05, 0.03, 10.0, capacity_ah)
        soa = Soa(0.1, 100.0, 10.0, -10.0, 0.0, 1.0)
        state = BatteryState(soc)
        return window_terms(state, params, curve, window, Direction.DISCHARGE, soa).kappa

    def test_linear_curve_constant_slope(self, linear_curve):
        for soc in (1.0, 0.31, 0.9):
            for capacity_ah in (1e-4, 1e12):  # secant and segment slope
                assert self._kappa(linear_curve, soc, capacity_ah) == pytest.approx(1.2, abs=1e-12)

    def test_degenerate_pair_falls_back_to_segment(self, knee_curve):
        # 1e12 Ah: the window moves the SOC by 2.8e-15, short of the secant's 1e-6.
        assert self._kappa(knee_curve, 0.25, 1e12) == pytest.approx(1.0, abs=1e-15)
        assert self._kappa(knee_curve, 0.75, 1e12) == pytest.approx(1.4, abs=1e-15)
        # At the knot, the segment to its right.
        assert self._kappa(knee_curve, 0.5, 1e12) == pytest.approx(1.4, abs=1e-15)
        for soc in (0.25, 0.5, 0.75, 1.0):
            (x0, v0), (x1, v1) = ecm._segment(knee_curve, soc)
            assert self._kappa(knee_curve, soc, 1e12) == (v1 - v0) / (x1 - x0)

    def test_secant_across_knee(self, knee_curve):
        # hand evaluation: ocv(0.4)=3.4, ocv(0.6)=3.64, secant over 0.2; a
        # 10 A discharge over 72 s at 1 Ah moves the SOC from 0.6 to 0.4.
        kappa = self._kappa(knee_curve, 0.6, 1.0, Window(72, 1.0))
        assert kappa == pytest.approx(1.2, abs=1e-12)

    def test_nan_soc_rejected(self, params, linear_curve, soa, window_10):
        # A state whose SOC is NaN, past BatteryState's own check: the start
        # OCV raises before either slope pass.
        state = SimpleNamespace(soc=math.nan, vp=0.0)
        with pytest.raises(InputError, match="soc must not be NaN"):
            window_terms(state, params, linear_curve, window_10, Direction.DISCHARGE, soa)


class TestStep:
    def test_zero_current_relaxation(self, params, linear_curve):
        state = BatteryState(soc=0.5, vp=0.2)
        result = step(state, params, linear_curve, 0.0, 1.0)
        decayed = 0.2 * math.exp(-1.0 / 10.0)
        assert result.state.vp == pytest.approx(decayed, abs=1e-15)
        assert result.state.soc == 0.5
        assert result.vt == pytest.approx(3.6 - decayed, abs=1e-12)

    def test_soc_decrement_direct_substitution(self, params, linear_curve):
        result = step(BatteryState(0.5, 0.0), params, linear_curve, 2.0, 1.0)
        assert 0.5 - result.state.soc == pytest.approx(2.0 / 7200.0, abs=1e-15)

    def test_hand_evaluated_polarization(self, params, linear_curve):
        # 10 A for 1 s from rest: vp' = 10 * 0.03 * (1 - exp(-0.1))
        result = step(BatteryState(0.5, 0.0), params, linear_curve, 10.0, 1.0)
        assert result.state.vp == pytest.approx(0.028548774589212143, abs=1e-15)

    def test_clamp_reported_not_fatal(self, params, linear_curve):
        result = step(BatteryState(0.0, 0.0), params, linear_curve, 100.0, 100.0)
        assert result.state.soc == 0.0
        # The voltage is read at the clamped SOC.
        assert result.vt == ocv(linear_curve, 0.0) - result.state.vp - 100.0 * params.r0

    def test_bad_dt_rejected(self, params, linear_curve):
        with pytest.raises(InputError):
            step(BatteryState(0.5), params, linear_curve, 1.0, 0.0)


class TestPredictCc:
    def test_zero_current(self, params, linear_curve, window_10):
        state = BatteryState(soc=0.4, vp=0.1)
        pred = predict_cc(state, params, linear_curve, 1.2, 0.0, window_10)
        assert pred.vt_end == pytest.approx(
            ocv(linear_curve, 0.4) - 0.1 * math.exp(-1.0), abs=1e-15
        )
        assert pred.soc_end == 0.4

    def test_hand_evaluated_fixture(self, params, linear_curve, state_half, window_10):
        pred = predict_cc(state_half, params, linear_curve, 1.2, 10.0, window_10)
        assert pred.eff_r1 == pytest.approx(0.03 * (1 - math.exp(-1.0)), abs=1e-15)
        assert pred.vt_end == pytest.approx(2.8936971656847663, abs=1e-12)

    def test_matches_step_iteration(self, params, linear_curve, state_half, window_10):
        pred = predict_cc(state_half, params, linear_curve, 1.2, 10.0, window_10)
        sim = state_half
        for _ in range(window_10.steps):
            sim, vt = step(sim, params, linear_curve, 10.0, window_10.dt)
        assert abs(pred.vt_end - vt) <= 1e-12
        assert abs(pred.soc_end - sim.soc) <= 1e-15

    def test_full_relaxation_limit(self, params, linear_curve):
        state = BatteryState(soc=0.5, vp=0.3)
        pred = predict_cc(state, params, linear_curve, 1.2, 0.0, Window(2000, 1.0))
        assert pred.vt_end == pytest.approx(3.6, abs=1e-9)

    def test_self_consistency_invariant(self, params, linear_curve, state_half, window_10):
        pred = predict_cc(state_half, params, linear_curve, 1.2, 7.0, window_10)
        recomposed = pred.ocv_end - pred.vp_relax_end - 7.0 * pred.eff_r1 - 7.0 * params.r0
        assert pred.vt_end == recomposed

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.integers(min_value=1, max_value=120),
        current=st.floats(min_value=-40.0, max_value=40.0),
        soc0=st.floats(min_value=0.0, max_value=1.0),
        vp0=st.floats(min_value=-0.5, max_value=0.5),
    )
    def test_closed_form_iterative_agreement(self, steps, current, soc0, vp0):
        # Agreement is claimed on the unclamped domain; skip trajectories that
        # leave [0, 1].
        params = BatteryParams(0.05, 0.03, 10.0, 2.0, 1.0)
        curve = OcvCurve(((0.0, 3.0), (1.0, 4.2)))
        end = soc0 - current * steps / 7200.0
        if not (0.0 <= end <= 1.0):
            return
        window = Window(steps, 1.0)
        state = BatteryState(soc0, vp0)
        pred = predict_cc(state, params, curve, 1.2, current, window)
        sim = state
        for _ in range(steps):
            unclamped = sim.soc - current * 1.0 * params.soc_per_amp_second
            sim, vt = step(sim, params, curve, current, 1.0)
            assert sim.soc == unclamped
        assert abs(pred.vt_end - vt) <= 1e-12
        assert abs(pred.soc_end - sim.soc) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(steps=st.integers(min_value=1, max_value=120))
    def test_eff_r1_monotone_and_bounded(self, steps):
        params = BatteryParams(0.05, 0.03, 10.0, 2.0, 1.0)
        curve = OcvCurve(((0.0, 3.0), (1.0, 4.2)))
        state = BatteryState(0.5)
        this = predict_cc(state, params, curve, 1.2, 1.0, Window(steps, 1.0)).eff_r1
        nxt = predict_cc(state, params, curve, 1.2, 1.0, Window(steps + 1, 1.0)).eff_r1
        assert 0.0 < this < nxt < params.r1


class TestStepProperties:
    @settings(max_examples=60, deadline=None)
    @given(vp0=st.floats(min_value=1e-6, max_value=1.0), n=st.integers(1, 30))
    def test_relaxation_strictly_monotone(self, vp0, n):
        params = BatteryParams(0.05, 0.03, 10.0, 2.0, 1.0)
        curve = OcvCurve(((0.0, 3.0), (1.0, 4.2)))
        state = BatteryState(0.5, vp0)
        for _ in range(n):
            nxt, _ = step(state, params, curve, 0.0, 1.0)
            assert nxt.vp < state.vp
            state = nxt

    @settings(max_examples=60, deadline=None)
    @given(current=st.floats(min_value=0.1, max_value=20.0), n=st.integers(1, 40))
    def test_charge_symmetry_at_unit_efficiency(self, current, n):
        params = BatteryParams(0.05, 0.03, 10.0, 2.0, 1.0)
        curve = OcvCurve(((0.0, 3.0), (1.0, 4.2)))
        dis = chg = BatteryState(0.5)
        for _ in range(n):
            dis, _ = step(dis, params, curve, current, 1.0)
            chg, _ = step(chg, params, curve, -current, 1.0)
            if {dis.soc, chg.soc} & {0.0, 1.0}:  # clamped
                return
        # Exact in real arithmetic; iterated rounding leaves a few ulp.
        assert dis.soc - 0.5 == pytest.approx(-(chg.soc - 0.5), abs=1e-14)


class TestSimulateProfile:
    def test_single_row_profile(self, params, linear_curve, state_half):
        trace = simulate_profile(state_half, params, linear_curve, [(0.0, 5.0)])
        assert len(trace) == 1
        assert trace[0].soc == 0.5
        assert trace[0].vt == pytest.approx(3.6 - 5.0 * 0.05, abs=1e-12)

    def test_constant_current_matches_prediction(self, params, linear_curve, state_half):
        profile = [(float(t), 10.0) for t in range(11)]
        trace = simulate_profile(state_half, params, linear_curve, profile)
        assert len(trace) == 11
        pred = predict_cc(state_half, params, linear_curve, 1.2, 10.0, Window(10, 1.0))
        assert abs(trace[-1].vt - pred.vt_end) <= 1e-12
        assert abs(trace[-1].soc - pred.soc_end) <= 1e-15

    def test_zero_current_soc_constant(self, params, linear_curve, state_half):
        profile = [(float(t), 0.0) for t in range(6)]
        trace = simulate_profile(state_half, params, linear_curve, profile)
        assert all(s.soc == 0.5 for s in trace)

    def test_non_increasing_times_rejected(self, params, linear_curve, state_half):
        with pytest.raises(InputError):
            simulate_profile(state_half, params, linear_curve, [(0.0, 1.0), (0.0, 1.0)])

    @pytest.mark.parametrize(
        "profile", [[(0.0, 0.0), (1.0, 2.0)], [(0.0, -2.0)]], ids=["minus-inf", "plus-inf"]
    )
    def test_overflowing_ohmic_drop_rejected(self, linear_curve, state_half, profile):
        # current * r0 overflows: the sample's terminal voltage was +-inf.
        params = BatteryParams(1.7e308, 0.03, 10.0, 2.0)
        with pytest.raises(InputError, match="terminal voltage -?inf is not finite"):
            simulate_profile(state_half, params, linear_curve, profile)

    def test_malformed_row_rejected(self, params, linear_curve, state_half):
        with pytest.raises(InputError):
            simulate_profile(state_half, params, linear_curve, [(0.0, "x")])
        with pytest.raises(InputError):
            simulate_profile(state_half, params, linear_curve, [])
        with pytest.raises(InputError, match="non-finite profile row"):
            simulate_profile(state_half, params, linear_curve, [(0.0, 1.0), (1.0, math.nan)])

    def test_one_ocv_cursor_per_replay(self, params, knee_curve, monkeypatch):
        # Discharge across the knot at 0.5, charge, rest: 100 rows. Each row's
        # voltage is read through one OCV cursor, so ecm.ocv runs once per
        # step (inside ecm.step) and at most once per segment the replay
        # enters, not once more per row (199 calls before); the rows are
        # ecm.step's plus an ecm.ocv lookup, bit for bit.
        profile = [(float(t), 30.0 if t < 50 else -20.0 if t < 80 else 0.0) for t in range(100)]
        state = sim = BatteryState(0.56, 0.05)
        want = []
        for j, (t, current) in enumerate(profile):
            if j:
                sim = step(sim, params, knee_curve, profile[j - 1][1], 1.0).state
            vt = ocv(knee_curve, sim.soc) - sim.vp - current * params.r0
            want.append((t, current, sim.soc, sim.vp, vt))
        socs, lookup = [], ecm.ocv

        def counted(curve, soc):
            socs.append(soc)
            return lookup(curve, soc)

        monkeypatch.setattr(ecm, "ocv", counted)
        trace = simulate_profile(state, params, knee_curve, profile)
        assert [tuple(row) for row in trace] == want
        segments = [bisect_right(knee_curve.socs, row.soc) for row in trace]
        entered = 1 + sum(a != b for a, b in zip(segments, segments[1:]))
        assert entered == 2
        assert len(socs) <= (len(profile) - 1) + entered + 1


class TestValidation:
    def test_params_invariants(self):
        with pytest.raises(ConfigurationError):
            BatteryParams(0.0, 0.03, 10.0, 2.0, 1.0)
        with pytest.raises(ConfigurationError):
            BatteryParams(0.05, -0.01, 10.0, 2.0, 1.0)
        with pytest.raises(ConfigurationError):
            BatteryParams(0.05, 0.03, 10.0, 2.0, 1.5)
        with pytest.raises(ConfigurationError):
            BatteryParams(0.05, 0.03, 10.0, -2.0, 1.0)

    @pytest.mark.parametrize("field", ["r0", "r1", "tau", "capacity_ah"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_params_reject_non_finite(self, field, bad):
        values = dict(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
        values[field] = bad
        with pytest.raises(ConfigurationError, match=field):
            BatteryParams(**values)

    def test_state_invariants(self):
        with pytest.raises(ConfigurationError):
            BatteryState(1.0001)
        with pytest.raises(ConfigurationError):
            BatteryState(0.5, float("nan"))

    def test_window_invariants(self):
        with pytest.raises(ConfigurationError):
            Window(0, 1.0)
        with pytest.raises(ConfigurationError):
            Window(10, 0.0)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_window_rejects_non_finite_dt(self, dt):
        with pytest.raises(ConfigurationError):
            Window(10, dt)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, "3"])
    def test_window_rejects_non_integral_steps(self, steps):
        with pytest.raises(ConfigurationError):
            Window(steps, 1.0)

    def test_window_accepts_numpy_integer_steps(self):
        np = pytest.importorskip("numpy")
        assert Window(np.int64(7), 1.0).duration == 7.0
