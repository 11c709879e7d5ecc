"""Constant-current closed-form tests: per-constraint peaks and composition."""

import collections
import itertools
import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soplab.peak_cc as peak_cc
from support import (
    NMC_CURVE,
    monotone_ocv,
    reference_ocv_slope,
    reference_peak,
    reference_sop_cc,
    reference_window_terms,
)
from soplab import (
    AnalyticDomainError,
    BatteryParams,
    BatteryState,
    Direction,
    OcvCurve,
    Soa,
    Window,
    WindowTerms,
    brute_peak_current_cc,
    check_point,
    predict_cc,
    sop_cc,
    step,
)

DIS = Direction.DISCHARGE
CHG = Direction.CHARGE


class TestCurrentConstraint:
    def test_passthrough(self, params, linear_curve, soa, state_half, window_10):
        assert sop_cc(state_half, params, linear_curve, window_10, DIS, soa).i_current_limit == 10.0
        assert sop_cc(state_half, params, linear_curve, window_10, CHG, soa).i_current_limit == -4.0

    def test_symmetric_soa(self, params, linear_curve, state_half, window_10):
        soa = Soa(2.8, 4.3, 7.5, -7.5, 0.1, 0.9)
        dis = sop_cc(state_half, params, linear_curve, window_10, DIS, soa)
        chg = sop_cc(state_half, params, linear_curve, window_10, CHG, soa)
        assert dis.i_current_limit == -chg.i_current_limit


class TestVoltageConstraint:
    def test_hand_evaluated_fixture(self, params, linear_curve, soa, state_half, window_10):
        terms = peak_cc.window_terms(state_half, params, linear_curve, window_10, DIS, soa)
        terms = terms._replace(kappa=1.2)
        assert peak_cc.cutoff_current(terms) == pytest.approx(11.32658629036377, abs=1e-9)

    def test_matches_bisection_oracle(self, params, linear_curve, window_10):
        # Widen the current limit so the voltage constraint is the binding one.
        soa = Soa(2.8, 4.3, 100.0, -100.0, 0.0, 1.0)
        state = BatteryState(0.5)
        terms = peak_cc.window_terms(state, params, linear_curve, window_10, DIS, soa)
        terms = terms._replace(kappa=1.2)
        brute = brute_peak_current_cc(state, params, linear_curve, window_10, DIS, soa)
        assert peak_cc.cutoff_current(terms) == pytest.approx(brute, abs=1e-6)

    def test_zero_numerator(self, params, linear_curve, soa, window_10):
        # vp chosen so the relaxed rested voltage equals the cut-off exactly
        vp = (3.6 - soa.vt_min) / math.exp(-window_10.duration / params.tau)
        state = BatteryState(0.5, vp)
        terms = peak_cc.window_terms(state, params, linear_curve, window_10, DIS, soa)
        terms = terms._replace(kappa=1.2)
        assert peak_cc.cutoff_current(terms) == pytest.approx(0.0, abs=1e-12)
        result = sop_cc(state, params, linear_curve, window_10, DIS, soa)
        assert result.i_voltage_limit == pytest.approx(0.0, abs=1e-12)

    def test_huge_r0_limit(self, linear_curve, soa, state_half, window_10):
        params = BatteryParams(1e6, 0.03, 10.0, 2.0, 1.0)
        terms = peak_cc.window_terms(state_half, params, linear_curve, window_10, DIS, soa)
        terms = terms._replace(kappa=1.2)
        assert 0.0 < peak_cc.cutoff_current(terms) < 1e-5

    def test_sign_disagreement_returns_zero(self, params, linear_curve, soa, window_10):
        # Rested below the discharge cut-off: no discharge current is feasible.
        # 3.6 - 2.5 * exp(-1) = 2.68 < 2.8, so the numerator is negative.
        state = BatteryState(0.5, 2.5)
        terms = peak_cc.window_terms(state, params, linear_curve, window_10, DIS, soa)
        terms = terms._replace(kappa=1.2)
        assert peak_cc.cutoff_current(terms) < 0.0
        assert sop_cc(state, params, linear_curve, window_10, DIS, soa).i_voltage_limit == 0.0

    def test_nonpositive_denominator_raises(self, params, linear_curve, soa, state_half, window_10):
        terms = peak_cc.window_terms(state_half, params, linear_curve, window_10, DIS, soa)
        terms = terms._replace(kappa=-1e3)
        with pytest.raises(AnalyticDomainError):
            peak_cc.cutoff_current(terms)


class TestSocConstraint:
    def test_hand_arithmetic(self, params, linear_curve, soa, state_half, window_10):
        terms = peak_cc.window_terms(state_half, params, linear_curve, window_10, DIS, soa)
        terms = terms._replace(kappa=1.2)
        current = peak_cc.soc_bound_current(terms)
        assert current == pytest.approx(288.0, abs=1e-12)
        # Simulating that current for the window lands exactly on the bound.
        sim = state_half
        for _ in range(window_10.steps):
            sim, _ = step(sim, params, linear_curve, current, window_10.dt)
        assert sim.soc == pytest.approx(soa.soc_min, abs=1e-12)

    def test_at_bound_returns_zero(self, params, linear_curve, soa, window_10):
        for soc in (soa.soc_min, 0.5 * soa.soc_min):  # on the bound, and past it
            result = sop_cc(BatteryState(soc), params, linear_curve, window_10, DIS, soa)
            assert result.i_soc_limit == 0.0

    def test_inverse_proportional_to_window(self, params, linear_curve, soa, state_half):
        one, two = (
            peak_cc.soc_bound_current(
                peak_cc.window_terms(state_half, params, linear_curve, window, DIS, soa)
            )
            for window in (Window(10, 1.0), Window(20, 1.0))
        )
        assert one == pytest.approx(2.0 * two, rel=1e-14)

    @pytest.mark.parametrize("steps, dt", [(1, 5e-324), (3, 1e-320)])
    @pytest.mark.parametrize("direction", [DIS, CHG])
    def test_underflowed_throughput_cannot_bind(
        self, params, linear_curve, soa, state_half, steps, dt, direction
    ):
        # K*dt*soc_per_amp_second is 0 or a subnormal the division overflows:
        # no SOC moves, so the current limit binds, as in the stepwise modes.
        result = sop_cc(state_half, params, linear_curve, Window(steps, dt), direction, soa)
        assert result.i_soc_limit == math.inf * direction.sign
        assert result.i_mc == direction.current_limit(soa)
        assert result.dominant == "current"
        assert result.feasible


class TestSopCcComposition:
    def test_fixture_discharge(self, params, linear_curve, soa, state_half, window_10):
        result = sop_cc(state_half, params, linear_curve, window_10, DIS, soa)
        assert result.i_current_limit == 10.0
        assert result.i_voltage_limit == pytest.approx(11.32658629036377, abs=1e-9)
        assert result.i_soc_limit == pytest.approx(288.0, abs=1e-12)
        assert result.dominant == "current"
        assert result.i_mc == 10.0
        assert result.vt_end == pytest.approx(2.8936971656847663, abs=1e-9)
        assert result.sop == pytest.approx(28.936971656847664, abs=1e-9)
        assert result.feasible

    def test_exhausted_capacity(self, params, linear_curve, soa, window_10):
        result = sop_cc(BatteryState(soa.soc_min), params, linear_curve, window_10, DIS, soa)
        assert result.sop == 0.0
        assert result.dominant == "soc"
        assert not result.feasible

    def test_overflowing_power_raises(self, params, linear_curve, soa, window_10):
        # i_mc * vt_end overflows: the report said sop_w=inf, feasible=true.
        state = BatteryState(0.5, 1.7e308)
        with pytest.raises(AnalyticDomainError, match="not finite"):
            sop_cc(state, params, linear_curve, window_10, CHG, soa)

    def test_power_rounding_to_zero_is_infeasible(self, params, linear_curve):
        # A 1e-300 V cut-off lands the end voltage on 0 V under a nonzero
        # current: the result read sop 0, feasible True.
        soa = Soa(1e-300, 4.3, 10.0, -4.0, 0.1, 0.9)
        state = BatteryState(0.7571737717791172, 3.9086085271349407)
        result = sop_cc(state, params, linear_curve, Window(1, 1.0), DIS, soa)
        assert result.i_mc > 0.0
        assert (result.vt_end, result.sop, result.feasible) == (0.0, 0.0, False)

    def test_three_way_tie_prefers_voltage(self):
        # Flat OCV and r1=0 make every quantity exact: all three constraint
        # currents equal 1 A, so the label follows the fixed priority.
        params = BatteryParams(0.5, 0.0, 1.0, 1.0, 1.0)
        curve = OcvCurve(((0.0, 3.0), (1.0, 3.0)))
        soa = Soa(2.5, 3.5, 1.0, -1.0, 0.0, 1.0)
        result = sop_cc(BatteryState(1.0), params, curve, Window(1, 3600.0), DIS, soa)
        assert result.i_voltage_limit == 1.0
        assert result.i_soc_limit == 1.0
        assert result.i_current_limit == 1.0
        assert result.dominant == "voltage"

    def test_soc_current_tie_prefers_soc(self):
        params = BatteryParams(0.5, 0.0, 1.0, 1.0, 1.0)
        curve = OcvCurve(((0.0, 3.0), (1.0, 3.0)))
        soa = Soa(2.0, 3.5, 1.0, -1.0, 0.0, 1.0)  # voltage headroom now 2 A
        result = sop_cc(BatteryState(1.0), params, curve, Window(1, 3600.0), DIS, soa)
        assert result.i_voltage_limit == 2.0
        assert result.dominant == "soc"

    def test_min_magnitude_invariant(self, params, linear_curve, soa):
        for soc in (0.15, 0.3, 0.5, 0.7, 0.9):
            for direction in (DIS, CHG):
                r = sop_cc(BatteryState(soc), params, linear_curve, Window(30, 1.0), direction, soa)
                mags = [abs(r.i_current_limit), abs(r.i_voltage_limit), abs(r.i_soc_limit)]
                assert abs(r.i_mc) == pytest.approx(min(mags), abs=1e-15)
                if r.feasible:
                    assert r.i_mc * direction.sign > 0.0

    def test_charge_direction_fixture(self, params, linear_curve, soa, state_half, window_10):
        result = sop_cc(state_half, params, linear_curve, window_10, CHG, soa)
        assert result.i_mc == -4.0
        assert result.dominant == "current"
        assert result.power_signed < 0.0
        assert result.sop == -result.power_signed


class TestBoundaryConditions:
    def test_voltage_dominant_binds_at_window_end(self, params, linear_curve, soa):
        window = Window(10, 1.0)
        state = BatteryState(0.3)
        result = sop_cc(state, params, linear_curve, window, DIS, soa)
        assert result.dominant == "voltage"
        assert abs(result.vt_end - soa.vt_min) <= 1e-9
        # The simulated trace stays above the cut-off until the last step.
        sim = state
        vts = []
        for _ in range(window.steps):
            sim, vt = step(sim, params, linear_curve, result.i_mc, window.dt)
            vts.append(vt)
        assert abs(vts[-1] - soa.vt_min) <= 1e-9
        assert all(v > soa.vt_min for v in vts[:-1])

    def test_soc_dominant_lands_on_bound(self, params, linear_curve, soa):
        window = Window(60, 1.0)
        state = BatteryState(0.2)
        # Raise the current limit so the SOC constraint dominates.
        wide = Soa(2.0, 4.5, 100.0, -100.0, soa.soc_min, soa.soc_max)
        result = sop_cc(state, params, linear_curve, window, DIS, wide)
        assert result.dominant == "soc"
        sim = state
        for _ in range(window.steps):
            sim, _ = step(sim, params, linear_curve, result.i_mc, window.dt)
        assert abs(sim.soc - wide.soc_min) <= 1e-12

    def test_simulated_trace_stays_in_soa(self, params, linear_curve, soa):
        # Boundary steps may sit on a cut-off to within float noise; anything
        # beyond 1e-9 is a real violation.
        for soc in (0.2, 0.5, 0.8):
            for direction in (DIS, CHG):
                window = Window(30, 1.0)
                state = BatteryState(soc)
                result = sop_cc(state, params, linear_curve, window, direction, soa)
                sim = state
                for _ in range(window.steps):
                    sim, vt = step(sim, params, linear_curve, result.i_mc, window.dt)
                    for v in check_point(vt, result.i_mc, sim.soc, soa):
                        assert v.magnitude <= 1e-9

    def test_voltage_limit_shrinks_with_window(self, params, linear_curve, soa):
        state = BatteryState(0.5)
        previous = math.inf
        for steps in (1, 5, 10, 30, 60, 120):
            window = Window(steps, 1.0)
            terms = peak_cc.window_terms(state, params, linear_curve, window, DIS, soa)
            terms = terms._replace(kappa=1.2)
            current = peak_cc.cutoff_current(terms)
            assert current < previous
            previous = current

    def test_discharge_power_declines_along_window(self, params, linear_curve, soa):
        # The end-of-window power is the smallest over every prefix window.
        window = Window(30, 1.0)
        state = BatteryState(0.4)
        result = sop_cc(state, params, linear_curve, window, DIS, soa)
        for prefix in range(1, window.steps + 1):
            pred = predict_cc(state, params, linear_curve, 1.2, result.i_mc, Window(prefix, 1.0))
            assert result.sop <= abs(result.i_mc * pred.vt_end) + 1e-12


class TestClosedFormSopSelfConsistency:
    """The per-constraint reference-power products must equal i_mc * vt_end
    from the window prediction, evaluated through independent arithmetic."""

    @staticmethod
    def _window_terms(params, window):
        alpha_k = math.exp(-window.duration / params.tau)
        eff_r1 = params.r1 * (1.0 - alpha_k)
        y = window.duration * params.soc_per_amp_second
        return alpha_k, eff_r1, y

    def test_current_bound_product(self, params, linear_curve, soa, state_half, window_10):
        result = sop_cc(state_half, params, linear_curve, window_10, DIS, soa)
        assert result.dominant == "current"
        alpha_k, eff_r1, y = self._window_terms(params, window_10)
        i = result.i_mc
        closed = i * (3.6 - state_half.vp * alpha_k) - i * i * (1.2 * y + params.r0 + eff_r1)
        assert abs(closed - result.i_mc * result.vt_end) <= 1e-10

    def test_voltage_bound_product(self, params, linear_curve, soa, window_10):
        state = BatteryState(0.3)
        result = sop_cc(state, params, linear_curve, window_10, DIS, soa)
        assert result.dominant == "voltage"
        alpha_k, eff_r1, y = self._window_terms(params, window_10)
        f = 3.0 + 1.2 * state.soc
        denom = 1.2 * y + params.r0 + eff_r1
        closed = soa.vt_min * (f - state.vp * alpha_k - soa.vt_min) / denom
        assert abs(closed - result.i_mc * result.vt_end) <= 1e-10

    def test_soc_bound_product(self, params, linear_curve, window_10):
        # soc headroom of 0.02 caps the current at 14.4 A, well under the
        # voltage-constraint current of about 21 A at a 2.0 V cut-off.
        wide = Soa(2.0, 4.5, 1000.0, -1000.0, 0.38, 0.9)
        state = BatteryState(0.4)
        result = sop_cc(state, params, linear_curve, window_10, DIS, wide)
        assert result.dominant == "soc"
        alpha_k, eff_r1, y = self._window_terms(params, window_10)
        i = (state.soc - wide.soc_min) / y
        ocv_at_bound = 3.0 + 1.2 * wide.soc_min
        closed = i * (ocv_at_bound - state.vp * alpha_k) - i * i * (params.r0 + eff_r1)
        assert abs(closed - result.i_mc * result.vt_end) <= 1e-10


class TestCostFlatInK:
    """The end-of-window report is O(1) in K: no simulated window, at most
    three OCV lookups, and at most three table searches (``ecm.bisect_right``
    calls): the start OCV, the start segment's slope and the secant's far
    end."""

    @pytest.mark.parametrize("direction", [DIS, CHG])
    def test_no_window_loop(self, params, soa, monkeypatch, direction):
        def forbidden(*args, **kwargs):
            raise AssertionError("sop_cc walked the window")

        monkeypatch.setattr(peak_cc.ecm, "predict_cc", forbidden)
        monkeypatch.setattr(peak_cc.ecm, "step", forbidden)
        calls = {"ocv": 0, "bisect_right": 0}
        for name in calls:
            original = getattr(peak_cc.ecm, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(peak_cc.ecm, name, counting)
        window = Window(300, 1.0)
        for soc in (0.15, 0.5, 0.85):
            for vp in (-0.2, 0.0, 0.2):
                calls.update(ocv=0, bisect_right=0)
                sop_cc(BatteryState(soc, vp), params, NMC_CURVE, window, direction, soa)
                assert 0 < calls["ocv"] <= 3
                assert 0 < calls["bisect_right"] <= 3

    @settings(max_examples=200, deadline=None)
    @given(
        curve=monotone_ocv(),
        soc=st.floats(0.0, 1.0),
        vp=st.floats(-0.5, 0.5),
        steps=st.sampled_from([1, 10, 30, 300]),
        dt=st.sampled_from([0.1, 1.0, 5.0]),
        direction=st.sampled_from([DIS, CHG]),
    )
    def test_vt_end_is_the_model_prediction(self, curve, soc, vp, steps, dt, direction):
        # The conftest cell and SOA, built here: hypothesis reuses fixtures across examples.
        params = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
        soa = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
        state, window = BatteryState(soc, vp), Window(steps, dt)
        result = sop_cc(state, params, curve, window, direction, soa)
        # The second-pass slope that sop_cc's reported figures use.
        kappa = peak_cc.window_terms(state, params, curve, window, direction, soa).kappa
        pred = predict_cc(state, params, curve, kappa, result.i_mc, window)
        assert abs(result.vt_end - pred.vt_end) <= 1e-12


# --- bit for bit against the builtins reference -------------------------------

REF_SOAS = (Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9), Soa(0.5, 5.0, 1e3, -1e3, 0.0, 1.0))
REF_PARAMS = tuple(
    BatteryParams(r0, 0.03, 10.0, capacity)
    for r0 in (1e-9, 0.05, 5.0)
    for capacity in (1e-3, 2.0, 1e300)
)
# dt 1e-300 s at 1e300 Ah underflows y = K*dt*eta/(3600*C_a) to 0 at every K.
REF_WINDOWS = tuple(
    Window(k, dt) for k in (1, 10, 300, 100_000) for dt in (1e-300, 0.1, 1.0, 60.0)
)
REF_SOCS = (0.0, 0.05, 0.1, 0.5, 0.9, 0.95, 1.0)
REF_VPS = (0.0, -0.0, 0.1, -0.1, 0.6, -0.6)


def _outcome(produce, *args):
    """The answer's repr, or the refusal's class and message."""
    try:
        return repr(produce(*args))
    except Exception as exc:  # any refusal must match too, message included
        return f"{type(exc).__name__}: {exc}"


def _reference_grid(curve, seed, n):
    """``n`` seeded windows on ``curve``: edge and drawn states, every cell,
    box and window above, both directions."""
    rng = random.Random(seed)
    for _ in range(n):
        soc = rng.choice(REF_SOCS) if rng.random() < 0.5 else rng.random()
        vp = rng.choice(REF_VPS) if rng.random() < 0.5 else rng.uniform(-0.6, 0.6)
        yield (
            BatteryState(soc, vp),
            rng.choice(REF_PARAMS),
            curve,
            rng.choice(REF_WINDOWS),
            rng.choice((DIS, CHG)),
            rng.choice(REF_SOAS),
        )


def _tie_grid():
    """Constraint currents of exactly 0.5 or 1 A, in every combination: a flat
    3 V table, r1 = 0, 1 Ah and K*dt = 3600 s make y = 1 and every closed form
    exact, at K from 1 to 65536."""
    params = BatteryParams(0.5, 0.0, 1.0, 1.0)
    curve = OcvCurve(((0.0, 3.0), (1.0, 3.0)))
    for k in (1, 2, 64, 65536):
        window = Window(k, 3600.0 / k)
        for i_v, i_soc, i_lim in itertools.product((0.5, 1.0), repeat=3):
            for vp in (0.0, -0.0):
                dis = Soa(3.0 - 0.5 * i_v, 3.5, i_lim, -1.0, 1.0 - i_soc, 1.0)
                chg = Soa(2.5, 3.0 + 0.5 * i_v, 1.0, -i_lim, 0.0, i_soc)
                yield BatteryState(1.0, vp), params, curve, window, DIS, dis
                yield BatteryState(0.0, vp), params, curve, window, CHG, chg


class TestBitForBitReference:
    """``window_terms`` and ``sop_cc`` compose by comparisons; the builtins
    reference in support.py gives the same repr, refusals and messages
    included."""

    @staticmethod
    def _check(scenarios) -> collections.Counter:
        covered = collections.Counter()
        for scenario in scenarios:
            for produce, reference in (
                (peak_cc.window_terms, reference_window_terms),
                (sop_cc, reference_sop_cc),
            ):
                assert _outcome(produce, *scenario) == _outcome(reference, *scenario), scenario
            state, params, curve, window, direction, soa = scenario
            covered[direction] += 1
            covered["vp -0.0"] += state.vp == 0.0 and math.copysign(1.0, state.vp) < 0.0
            try:
                terms = reference_window_terms(*scenario)
                result = reference_sop_cc(*scenario)
            except AnalyticDomainError:
                covered["refused"] += 1
                continue
            first = terms._replace(kappa=reference_ocv_slope(curve, state.soc, state.soc))
            i_mc = reference_peak(first, direction)[2]
            reach = state.soc - i_mc * window.duration * params.soc_per_amp_second
            covered["reach < 0"] += reach < 0.0
            covered["reach > 1"] += reach > 1.0
            covered["y = 0"] += terms.y == 0.0
            limits = (result.i_voltage_limit, result.i_soc_limit, result.i_current_limit)
            covered[f"{sum(abs(c) == abs(result.i_mc) for c in limits)}-way"] += 1
        return covered

    @pytest.mark.parametrize("curve", [OcvCurve(((0.0, 3.0), (1.0, 4.2))), NMC_CURVE])
    def test_fixed_tables(self, curve):
        covered = self._check(_reference_grid(curve, 25, 3000))
        for case in (DIS, CHG, "vp -0.0", "reach < 0", "reach > 1", "y = 0"):
            assert covered[case] > 0, (case, covered)

    def test_exact_ties(self):
        covered = self._check(_tie_grid())
        assert (covered["1-way"], covered["2-way"], covered["3-way"]) == (48, 48, 32)

    @pytest.mark.parametrize("direction", [DIS, CHG])
    def test_below_the_first_knot(self, params, soa, direction):
        # A table that starts above SOC 0: the start SOC lies left of every
        # knot, so the one search clamps its index onto the first segment. A
        # 1e-4 s window moves the SOC less than SLOPE_SECANT_EPS, so kappa
        # keeps that segment's slope.
        curve = OcvCurve(((0.1, 3.3), (0.5, 3.7), (1.0, 4.2)))
        scenario = (BatteryState(0.05), params, curve, Window(1, 1e-4), direction, soa)
        assert bisect_right(curve.socs, 0.05) == 0
        terms = peak_cc.window_terms(*scenario)
        assert repr(terms) == repr(reference_window_terms(*scenario))
        assert terms.f_soc == 3.3
        assert terms.kappa == 1.0000000000000009  # (3.7 - 3.3) / (0.5 - 0.1)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(curve=monotone_ocv(), seed=st.integers(0, 2**32))
    def test_monotone_tables(self, curve, seed):
        self._check(_reference_grid(curve, seed, 100))

    @pytest.mark.parametrize("direction", [DIS, CHG])
    def test_peak_on_edge_terms(self, direction):
        # Non-finite and signed-zero terms, which the value types keep out of
        # window_terms: the composition still matches min(key=abs).
        base = WindowTerms(0.5, 3.6, 0.0, 0.05, 1.2, 0.01, 2.8, 0.1, 10.0)
        edges = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300)
        for field, value in itertools.product(WindowTerms._fields, edges):
            terms = base._replace(**{field: value})
            got = _outcome(peak_cc._peak, terms, direction)
            assert got == _outcome(reference_peak, terms, direction), (field, value)
