"""Oracle tests: the ITP-placed validators, their certificate against
plain bisection, their agreement with the closed forms, and the oracle
module's independence from them."""

import ast
import decimal
import itertools
import math
import random
import statistics
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import seed as hypothesis_seed
from hypothesis import strategies as st

import answer_shift
import soplab.oracle as oracle_module
import support
from soplab import (
    BatteryParams,
    BatteryState,
    BrutePower,
    ConfigurationError,
    Direction,
    InfeasibleStateError,
    OcvCurve,
    Soa,
    Window,
    brute_peak_current_cc,
    brute_peak_power_cp,
    check_point,
    ecm,
    ocv,
    sop_cc,
    solve_cp_step,
    sop_cp,
    step,
)
from soplab.oracle import _newton_law
from support import (
    NMC_CURVE,
    bisect_peak_current_cc,
    bisect_peak_power_cp,
    cc_window_feasible,
    cc_window_probe,
    cp_window_feasible,
    cp_window_probe,
    monotone_ocv,
)

DIS = Direction.DISCHARGE
CHG = Direction.CHARGE
SRC = Path(oracle_module.__file__).parent


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
        assert cc_window_feasible(peak - 2 * tol, state, params, linear_curve, window_10, soa)
        assert not cc_window_feasible(peak + 2 * tol, state, params, linear_curve, window_10, soa)
        assert cc_window_feasible(peak, state, params, linear_curve, window_10, soa)
        assert not cc_window_feasible(peak + tol, state, params, linear_curve, window_10, soa)

    def test_tolerance_below_float_spacing_ends(self, params, linear_curve, soa):
        # Bisection never closed a bracket narrower than the float spacing at
        # the peak; the search now stops once the bracket cannot be split.
        state, window = BatteryState(0.15), Window(60, 1.0)
        peak = brute_peak_current_cc(state, params, linear_curve, window, DIS, soa, tol_amps=1e-300)
        assert cc_window_feasible(peak, state, params, linear_curve, window, soa)
        assert not cc_window_feasible(
            math.nextafter(peak, math.inf), state, params, linear_curve, window, soa
        )

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
    @staticmethod
    def _assert_agrees(direction, state, params, curve, window, soa):
        # The power magnitude against the CP oracle, each at tol 1e-6.
        tol = 1e-6
        args = (state, params, curve, window, direction, soa)
        result, _ = sop_cp(*args, tol_watts=tol)
        brute = brute_peak_power_cp(*args, tol_watts=tol)
        assert not brute.saturated
        assert abs(result.sop - brute.watts) <= tol

    def test_agrees_with_cp_engine(self, params, linear_curve, soa, state_half, window_10):
        self._assert_agrees(DIS, state_half, params, linear_curve, window_10, soa)

    def test_charge_agreement(self, params, linear_curve, soa, state_half, window_10):
        self._assert_agrees(CHG, state_half, params, linear_curve, window_10, soa)

    def test_low_bracket_saturates(self, params, linear_curve, soa, state_half, window_10):
        brute = brute_peak_power_cp(
            state_half, params, linear_curve, window_10, DIS, soa, p_hi=1.0
        )
        assert brute.saturated
        assert brute.watts == 1.0

    def test_default_top_bounds_the_peak(self, params, linear_curve, soa):
        # The default top used to be |i_lim| * OCV(soc) when discharging. This
        # window sustains 10 A * 3.36 V, so the oracle returned 33.6 W,
        # saturated, below the 34.029 W peak. |i_lim| * vt_max bounds every
        # step's power in the box.
        args = (BatteryState(0.3, -0.6), params, linear_curve, Window(1, 1.0), DIS, soa)
        tol = 1e-6
        brute = brute_peak_power_cp(*args, tol_watts=tol)
        assert not brute.saturated
        assert abs(brute.watts - 34.029024) <= tol
        result, _ = sop_cp(*args, tol_watts=tol)
        assert abs(result.sop - brute.watts) <= 2 * tol

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

    @pytest.mark.parametrize("direction", [DIS, CHG])
    def test_bracketing_postcondition(self, params, linear_curve, soa, direction):
        tol = 1e-6
        state, window = BatteryState(0.5, 0.1), Window(30, 1.0)
        args = (state, params, linear_curve, window, direction, soa)
        brute = brute_peak_power_cp(*args, tol_watts=tol)
        assert not brute.saturated
        assert cp_window_feasible(brute.watts, *args)
        assert not cp_window_feasible(brute.watts + tol, *args)


def test_zero_load_window_out_of_soa_raises(params, linear_curve, window_10):
    # The rested 3.4 V is inside, but relaxing towards the 3.6 V OCV the
    # window crosses vt_max = 3.5 V at zero load, and charging only raises
    # the voltage: no charge current or power is certified.
    soa = Soa(2.8, 3.5, 10.0, -4.0, 0.0, 1.0)
    state = BatteryState(0.5, 0.2)
    for oracle in (brute_peak_current_cc, brute_peak_power_cp):
        with pytest.raises(InfeasibleStateError):
            oracle(state, params, linear_curve, window_10, CHG, soa)


def test_a_sustained_top_wins_before_the_zero_load_refusal(params, linear_curve, window_10):
    # The window of the test above leaves the SOA at zero load, but a
    # discharge at the bracket top pulls the voltage back inside: the search
    # probes the top first, and a sustained top is the answer.
    soa = Soa(2.8, 3.5, 10.0, -4.0, 0.0, 1.0)
    args = (BatteryState(0.5, 0.2), params, linear_curve, window_10, DIS, soa)
    assert not cc_window_feasible(0.0, *args[:4], soa)
    assert brute_peak_current_cc(*args) == 10.0
    assert brute_peak_power_cp(*args, p_hi=20.0) == (20.0, True)


def test_a_tolerance_as_wide_as_the_bracket_answers_zero_load(
    params, linear_curve, soa, monkeypatch
):
    # The bracket top (10 A, 43 W) drains the SOC past its bound within 300 s.
    # A tolerance at least the top ends the search with no probe inside the
    # bracket: the answer is the zero load, unsaturated.
    args = (BatteryState(0.2), params, linear_curve, Window(300, 1.0), DIS, soa)
    cc_probes = _probe_spy(monkeypatch, "_cc_feasible")
    cp_probes = _probe_spy(monkeypatch, "_cp_feasible")
    assert brute_peak_current_cc(*args, tol_amps=20.0) == 0.0
    assert brute_peak_power_cp(*args, tol_watts=100.0) == BrutePower(0.0, False)
    assert cc_probes == [10.0, 0.0]
    assert cp_probes == [10.0 * soa.vt_max, 0.0]


def _probe_spy(mp, name):
    """Record the first argument of every whole-window simulation ``name``."""
    seen = []
    original = getattr(oracle_module, name)

    def spy(value, *args):
        seen.append(value)
        return original(value, *args)

    mp.setattr(oracle_module, name, spy)
    return seen


def _probe_budget(bracket, tol):
    """Bisection's probe count for the bracket plus ITP's slack; the two
    bracket-setting probes (zero and the bracket top) come on top."""
    return 2 + math.ceil(math.log2(bracket / tol)) + oracle_module.ITP_N0


@settings(max_examples=60, deadline=None)
# Near soc_min the slack's kink misleads interpolation; without the projection
# this CP solve took 59 probes where the budget allows 38.
@example(
    curve=OcvCurve(((0.0, 3.0), (1.0, 4.2))), soc=0.1015625, vp=-0.3, steps=1, direction=DIS
)
@given(
    curve=monotone_ocv(),
    soc=st.floats(0.1, 0.9),
    vp=st.floats(-0.6, 0.6),
    steps=st.sampled_from([1, 2, 10, 30, 60]),
    direction=st.sampled_from([DIS, CHG]),
)
def test_oracles_match_bisection_within_the_probe_budget(curve, soc, vp, steps, direction):
    params = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
    soa = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
    assume(soa.vt_min <= ocv(curve, soc) - vp <= soa.vt_max)
    state, window, tol = BatteryState(soc, vp), Window(steps, 1.0), 1e-9
    args = (state, params, curve, window, direction, soa)
    sign = direction.sign
    with pytest.MonkeyPatch.context() as mp:
        cc_probes = _probe_spy(mp, "_cc_feasible")
        cp_probes = _probe_spy(mp, "_cp_feasible")
        peak = brute_peak_current_cc(*args, tol_amps=tol)
        power = brute_peak_power_cp(*args, tol_watts=tol)

    assert abs(peak - bisect_peak_current_cc(*args, tol)) <= tol
    reference = bisect_peak_power_cp(*args, tol)
    assert power.saturated == reference.saturated
    assert abs(power.watts - reference.watts) <= tol

    assert cc_window_feasible(peak, *args[:4], soa)
    if abs(peak) < abs(direction.current_limit(soa)):
        assert not cc_window_feasible(peak + sign * tol, *args[:4], soa)
        assert len(cc_probes) <= _probe_budget(abs(cc_probes[0]), tol)
    else:
        assert len(cc_probes) == 1
    assert cp_window_feasible(power.watts, *args)
    if not power.saturated:
        assert not cp_window_feasible(power.watts + tol, *args)
        assert len(cp_probes) <= _probe_budget(cp_probes[0], tol)


def test_probe_count_on_validate_grid_like_states(monkeypatch):
    # 200 seeded validate-grid-like states (linear table, K in {1, 10, 30,
    # 60, 300}), both directions, tol 1e-9, counting the top and zero-load
    # probes. The CC oracle takes 2.975 probes per solve here (at most 14)
    # and the CP oracle 9.182 (at most 39, its budget); with ITP's
    # truncation alone they took about 4.2 and 10.6. The bounds leave about
    # 5% on the means; every solve stays within its budget.
    tol = 1e-9
    cc_probes = _probe_spy(monkeypatch, "_cc_feasible")
    cp_probes = _probe_spy(monkeypatch, "_cp_feasible")
    per_solve = {"cc": [], "cp": []}
    for scenario in answer_shift.grid_scenarios(200, 1):
        for name, probes, solve in (
            ("cc", cc_probes, lambda: brute_peak_current_cc(*scenario, tol_amps=tol)),
            ("cp", cp_probes, lambda: brute_peak_power_cp(*scenario, tol_watts=tol)),
        ):
            probes.clear()
            solve()
            assert len(probes) <= _probe_budget(abs(probes[0]), tol)
            per_solve[name].append(len(probes))
    assert len(per_solve["cc"]) == len(per_solve["cp"]) == 400
    assert statistics.mean(per_solve["cc"]) <= 3.12
    assert statistics.mean(per_solve["cp"]) <= 9.64


class TestWindowLoops:
    """The oracles' window loops, judged at their two SOA corners, answer
    exactly as their references, which check every step: ``ecm.step`` for
    the CC loop (holding its OCV segment, its constants hoisted), the per-step
    bisecting loop for the CP probe (``ecm._window`` under the oracle's
    Newton law)."""

    @staticmethod
    def _tables(seed, count=4):
        """``count`` tables drawn from ``monotone_ocv``, the same for a seed."""
        tables = []

        @hypothesis_seed(seed)
        @settings(max_examples=count, database=None, deadline=None)
        @given(monotone_ocv())
        def draw(curve):
            tables.append(curve)

        draw()
        return tables

    @staticmethod
    def _grid(curves, soa, seed):
        # soc beyond the SOC bounds and vp of 1.5 V put rested points outside
        # the box on either side of it.
        rng = random.Random(seed)
        for curve, vp, steps, direction in itertools.product(
            curves, (-1.5, -0.4, 0.0, 0.4, 1.5), (1, 10, 300), (DIS, CHG)
        ):
            limit = abs(direction.current_limit(soa))
            for dt in (1.0, 0.7, 0.3):
                state = BatteryState(rng.uniform(0.02, 0.98), vp)
                current = direction.sign * rng.uniform(0.0, 1.2 * limit)
                power = rng.uniform(0.0, 1.2 * limit * soa.vt_max)
                yield state, curve, Window(steps, dt), direction, current, power

    @pytest.mark.parametrize("seed", [1, 2])
    def test_identical_to_the_references(self, params, linear_curve, soa, seed, monkeypatch):
        left = set()  # (direction, face) of every step the references find outside

        def recording_check_point(*args):
            violations = check_point(*args)
            left.update((direction, violation.kind) for violation in violations)
            return violations

        monkeypatch.setattr(support, "check_point", recording_check_point)
        checked = set()
        curves = (linear_curve, NMC_CURVE, *self._tables(seed))
        for state, curve, window, direction, current, power in self._grid(curves, soa, seed):
            segment = ecm._seek(curve, state.soc)[1]
            got = oracle_module._cc_feasible(current, state, params, curve, window, soa, segment)
            assert repr(got) == repr(cc_window_probe(current, state, params, curve, window, soa))
            start = ecm._seek(curve, state.soc)
            got = oracle_module._cp_feasible(power, state, params, curve, window, direction, soa, start)
            assert repr(got) == repr(cp_window_probe(power, state, params, curve, window, direction, soa))
            checked.add((got.feasible, got.slack is None))
        assert checked == {(True, False), (False, False), (False, True)}  # every kind of probe
        # Every face is crossed, the one opposite the direction's cut-off too.
        faces = {"voltage_low", "voltage_high", "soc_low", "soc_high"}
        assert left == {(DIS, face) for face in faces | {"current_high_dis"}} | {
            (CHG, face) for face in faces | {"current_high_chg"}
        }

    def test_one_seek_per_solve(self, params, soa, monkeypatch):
        # Each solve seeks its rested SOC's OCV segment once, before its first
        # probe, and every probe starts its window loop from that seek: a CC
        # probe holds the segment, a CP probe also takes step one's OCV.
        seeks, starts, probing = [], [], [False]
        seek = ecm._seek

        def recording_seek(curve, soc):
            found = seek(curve, soc)
            if not probing[0]:
                seeks.append(found)
            return found

        def recording(feasible):
            def probe(*args):
                starts.append(args[-1])
                probing[0] = True
                try:
                    return feasible(*args)
                finally:
                    probing[0] = False

            return probe

        monkeypatch.setattr(oracle_module.ecm, "_seek", recording_seek)
        for name in ("_cc_feasible", "_cp_feasible"):
            monkeypatch.setattr(oracle_module, name, recording(getattr(oracle_module, name)))
        # 300 s at the 10 A limit would drain the SOC past its bound: neither top holds.
        args = (BatteryState(0.5, 0.1), params, NMC_CURVE, Window(300, 1.0), DIS, soa)
        brute_peak_current_cc(*args, 1e-9)
        assert len(seeks) == 1 and len(starts) > 2
        assert all(start is seeks[0][1] for start in starts)
        seeks.clear()
        starts.clear()
        brute_peak_power_cp(*args, 1e-9)
        assert len(seeks) == 1 and len(starts) > 2
        assert all(start is seeks[0] for start in starts)

    @pytest.mark.parametrize(
        "soc, current, window, end",
        [
            (-0.0, 0.0, Window(30, 1.0), -0.0),  # at rest on an empty cell
            (0.02, 10.0, Window(60, 5.0), 0.0),  # empties the cell mid-window
            (0.98, -4.0, Window(60, 5.0), 1.0),  # fills it
        ],
    )
    def test_cc_loop_soc_is_ecm_step(self, params, soa, soc, current, window, end, monkeypatch):
        # The loop clamps the SOC by comparisons, as ecm.step does: it looks up
        # ecm.step's SOC after every step, bit for bit, a -0.0 included. A seek
        # that hands back no segment makes the loop seek at every step.
        state, want = BatteryState(soc, 0.1), []
        for _ in range(window.steps):
            state = step(state, params, NMC_CURVE, current, window.dt).state
            want.append(state.soc.hex())
        assert want[-1] == end.hex()
        looked_up = []
        seek = ecm._seek

        def recording_seek(curve, soc):
            looked_up.append(soc.hex())
            return seek(curve, soc)[0], None

        monkeypatch.setattr(ecm, "_seek", recording_seek)
        oracle_module._cc_feasible(current, BatteryState(soc, 0.1), params, NMC_CURVE, window, soa, None)
        assert looked_up == want

    def test_cc_loop_reads_the_knot_it_lands_on(self, params, soa, monkeypatch):
        # A charge from soc 0.25 that lands on the 0.5 knot at its last step,
        # the window's highest vt. The lower segment's expression there is
        # 3.6000000000000005, not the knot's 3.6: the loop must read the knot
        # as ecm.step does, and both corners must be ecm.step's, bit for bit.
        curve = OcvCurve(((0.0, 1.2), (0.5, 3.6), (1.0, 4.2)))
        params = BatteryParams(params.r0, params.r1, params.tau, 1.0 / 3600.0)
        state, current, window = BatteryState(0.25, 0.1), -0.125, Window(2, 1.0)
        sim, vts, socs = state, [], []
        for _ in range(window.steps):
            sim, vt = step(sim, params, curve, current, window.dt)
            vts.append(vt)
            socs.append(sim.soc)
        assert socs == [0.375, 0.5] and max(vts) == vts[-1]
        corners, corner_probe = [], oracle_module._corner_probe

        def recording_corner_probe(low, high, soa):
            corners.append((low, high))
            return corner_probe(low, high, soa)

        monkeypatch.setattr(oracle_module, "_corner_probe", recording_corner_probe)
        segment = ecm._seek(curve, state.soc)[1]
        oracle_module._cc_feasible(current, state, params, curve, window, soa, segment)
        want = ((min(vts), current, min(socs)), (max(vts), current, max(socs)))
        assert repr(corners) == repr([want])

    @pytest.mark.parametrize("direction", [DIS, CHG])
    def test_cp_loop_keeps_negative_zero_at_rest(self, params, soa, direction, monkeypatch):
        # At or past the table's first knot no segment is held, so every step
        # seeks the OCV at its own SOC: the -0.0 that the Newton law's zero
        # current keeps, in either direction.
        looked_up = []
        seek = ecm._seek

        def recording_seek(curve, soc):
            looked_up.append(soc.hex())
            return seek(curve, soc)

        monkeypatch.setattr(ecm, "_seek", recording_seek)
        window, state = Window(30, 1.0), BatteryState(-0.0, 0.1)
        start = ecm._seek(NMC_CURVE, state.soc)
        oracle_module._cp_feasible(0.0, state, params, NMC_CURVE, window, direction, soa, start)
        assert looked_up == [(-0.0).hex()] * window.steps

    @pytest.mark.parametrize("current", [-4.0, 10.0])
    def test_cc_loop_raises_as_ecm_step(self, linear_curve, soa, current):
        # current * r1 overflows and 1 - alpha rounds to 0: the polarization is
        # NaN, which ecm.step's BatteryState refuses.
        params = BatteryParams(r0=0.05, r1=1.7e308, tau=1e300, capacity_ah=2.0)
        state, window = BatteryState(0.5, 0.1), Window(3, 1.0)
        with pytest.raises(ConfigurationError):
            cc_window_probe(current, state, params, linear_curve, window, soa)
        with pytest.raises(ConfigurationError):
            oracle_module._cc_feasible(
                current, state, params, linear_curve, window, soa, ecm._seek(linear_curve, 0.5)[1]
            )


def _exact_root(emf, r0, power):
    """The physical root of r0*I**2 - emf*I + power = 0 at the given floats,
    as a ``Decimal`` to 60 digits: the root nearest zero, 2P / (emf +
    sqrt(disc)) at emf > 0 and (emf - sqrt(disc)) / (2 r0) at emf <= 0."""
    with decimal.localcontext() as context:
        context.prec = 60
        e, r, p = decimal.Decimal(emf), decimal.Decimal(r0), decimal.Decimal(power)
        root = (e * e - 4 * r * p).sqrt()
        return 2 * p / (e + root) if e > 0 else (e - root) / (2 * r)


def _relative_error(current, root):
    """|current - root| / |root|, exactly but for the final rounding."""
    return float(abs(decimal.Decimal(current) - root) / abs(root))


class TestNewtonStep:
    @staticmethod
    def _passes_residual_test(current, emf, r0, power):
        return abs(current * (emf - current * r0) - power) <= 1e-12 * max(1.0, abs(power))

    @staticmethod
    def _check_exact(emf, r0, power):
        # Within 1e-12 of the root where it is a normal float; where it is
        # subnormal or zero, within the subnormals' spacing.
        step = _newton_law(r0, power)(1, math.nan, emf)
        assert step is not None
        root = _exact_root(emf, r0, power)
        if abs(root) >= sys.float_info.min:
            assert _relative_error(step[0], root) <= 1e-12
        else:
            assert abs(decimal.Decimal(step[0]) - root) <= decimal.Decimal(math.ulp(0.0))

    @settings(max_examples=300, deadline=None)
    # Started from a guess above the root (0.25 A), Newton's method overshot
    # past zero here: -5.4e-16 A for +2.3e-76 W.
    @example(emf=1.0, r0=1.0, share=9.339306341188799e-76)
    @given(emf=st.floats(0.1, 5.0), r0=st.floats(0.001, 1.0), share=st.floats(-3.0, 0.999))
    def test_finds_the_physical_root(self, emf, r0, share):
        vertex = emf / (2.0 * r0)
        power = share * emf * vertex / 2.0  # share of the power ceiling emf^2 / (4 r0)
        step = _newton_law(r0, power)(1, math.nan, emf)
        assert step is not None
        current = step[0]
        assert self._passes_residual_test(current, emf, r0, power)
        assert abs(current) <= vertex * (1.0 + 1e-9)
        assert current * power >= 0.0
        self._check_exact(emf, r0, power)

    @pytest.mark.parametrize(
        "emf, power",
        [(3.6, 32.5), (-0.1, 1.0), (0.0, 1.0), (math.nan, 1.0)],
        ids=["above-ceiling", "negative-emf", "zero-emf", "nan-emf"],
    )
    def test_no_root_beyond_the_power_vertex(self, emf, power):
        # At emf 3.6 V and r0 0.1 ohm the vertex is 18 A and the ceiling 32.4 W.
        assert _newton_law(0.1, power)(1, math.nan, emf) is None

    @pytest.mark.parametrize("power", [-1e-6, -1.0, -100.0])
    @pytest.mark.parametrize("vp", [3.6, 4.1, 5.0], ids=["emf0", "emf-0.5", "emf-1.4"])
    def test_charge_root_at_non_positive_emf(self, params, linear_curve, vp, power):
        # emf = 3.6 - vp <= 0: no discharge power has a root there, but a
        # charge power has one, a charge current, which solve_cp_step takes
        # (-28.70 A for -1 W at emf -1.4 V) by the same form, with no
        # cancellation. The law starts below it.
        state, r0 = BatteryState(0.5, vp), params.r0
        emf = ocv(linear_curve, 0.5) - vp
        assert emf <= 0.0
        step = _newton_law(r0, power)(1, math.nan, emf)
        assert step is not None
        current, vt = step
        assert self._passes_residual_test(current, emf, r0, power)
        assert current < 0.0 and vt == emf - current * r0
        # At emf <= 0 the root's textbook form adds two numbers of one sign.
        root = (emf - math.sqrt(emf * emf - 4.0 * r0 * power)) / (2.0 * r0)
        assert abs(current - root) <= 1e-12 * abs(root)
        want, want_vt = solve_cp_step(state, params, linear_curve, power, CHG)
        assert abs(current - want) <= 1e-12 * abs(want)
        # vt = emf - I*r0 cancels as |P| falls (1e-7 V at -1e-6 W, emf -0.5 V):
        # its bound is relative to the ohmic drop it is computed from.
        assert abs(vt - want_vt) <= 1e-12 * abs(want * r0)

    @pytest.mark.parametrize("power", [-1.0, -1e-6])
    def test_charge_root_with_a_large_current(self, params, linear_curve, power):
        # emf = 3.6 - 50 = -46.4 V: the root is near -928 A, and the
        # residual's two terms, each about |I*emf| = 4.3e4 W, round by more
        # than 1e-12 W. The law's bound there is 1e-14 * |I*emf| at its
        # start; a residual test at 1e-12 * max(1, |P|) refused both powers.
        r0 = params.r0
        emf = ocv(linear_curve, 0.5) - 50.0
        step = _newton_law(r0, power)(1, math.nan, emf)
        assert step is not None
        current, vt = step
        assert vt == emf - current * r0
        assert abs(current * (emf - current * r0) - power) <= 1e-14 * abs(current * emf)
        assert _relative_error(current, _exact_root(emf, r0, power)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        emf=st.floats(0.1, 5.0),
        r0=st.floats(0.001, 1.0),
        exponent=st.floats(-300.0, 4.0),
        charge=st.booleans(),
    )
    def test_finds_the_exact_root_at_any_scale(self, emf, r0, exponent, charge):
        # |P| log-uniform from 1e-300 W to 1e4 W, below 0.999 of the ceiling
        # for a discharge.
        power = -(10.0**exponent) if charge else 10.0**exponent
        assume(power <= 0.999 * emf * emf / (4.0 * r0))
        self._check_exact(emf, r0, power)

    def test_a_tiny_power_starts_at_the_stable_root(self):
        # 5e-10 W at emf 3.6 V and r0 0.05 ohm: the conjugate form (emf -
        # sqrt(disc)) / (2 r0) cancels and lies 8.3e-8 off the root, yet its
        # residual passes the absolute 1e-12 W bound, so the residual alone
        # cannot catch it; the stable form 2P / (emf + sqrt(disc)) does not
        # cancel.
        emf, r0, power = 3.6, 0.05, 5e-10
        root = _exact_root(emf, r0, power)
        conjugate = (emf - math.sqrt(emf * emf - 4.0 * r0 * power)) / (2.0 * r0)
        assert self._passes_residual_test(conjugate, emf, r0, power)
        assert _relative_error(conjugate, root) > 1e-8
        current, vt = _newton_law(r0, power)(1, math.nan, emf)
        assert _relative_error(current, root) <= 1e-12
        assert vt == emf - current * r0

    def test_the_vertex_is_accepted_and_one_ulp_past_it_refused(self):
        # emf 4 V and r0 0.25 ohm: the vertex is 8 A and the ceiling 16 W,
        # all exact in binary. The branch test accepts the vertex, whose
        # slope is 0, as solve_cp_step does.
        law = _newton_law(0.25, 16.0)
        assert law(1, math.nan, 4.0) == (8.0, 2.0)
        assert _newton_law(0.25, math.nextafter(16.0, math.inf))(1, math.nan, 4.0) is None

    def test_a_start_rounded_past_the_vertex_is_refused(self):
        # Just below the ceiling the stable form can round an ulp past the
        # vertex, where its residual still passes: the branch test refuses
        # it (149 of 199,944 seeded powers within 1e-14 of the ceiling).
        emf, r0, power = 4.502926230100557, 0.7817379948968134, 6.484379922074793
        start = 2.0 * power / (emf + math.sqrt(emf * emf - 4.0 * r0 * power))
        assert emf - 2.0 * start * r0 < 0.0
        assert self._passes_residual_test(start, emf, r0, power)
        assert _newton_law(r0, power)(1, math.nan, emf) is None

    def test_the_smallest_power_draws_its_rounded_root(self):
        # 5e-324 W at emf 3.6 V: the exact root, 1.4e-324 A, is below half
        # the smallest subnormal, so the nearest float is +0.0.
        emf, r0, power = 3.6, 0.05, 5e-324
        assert 0 < _exact_root(emf, r0, power) < decimal.Decimal(power) / 2
        assert _newton_law(r0, power)(1, math.nan, emf) == (0.0, emf)


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


@pytest.mark.parametrize("p_hi", [-5.0, 0.0, math.nan, math.inf])
def test_bad_power_bracket_top_rejected(params, linear_curve, soa, state_half, window_10, p_hi):
    # Unchecked, -5 W and 0 W came back as saturated answers, NaN as an
    # unsaturated 0 W, and inf raised OverflowError from the probe budget.
    with pytest.raises(ValueError, match="p_hi"):
        brute_peak_power_cp(state_half, params, linear_curve, window_10, DIS, soa, p_hi=p_hi)


class TestCompareReport:
    """A closed form against its oracle over a grid, compared as ``validate``
    compares them: one record per point, residual = analytic - oracle,
    passing when within tolerance, inclusively."""

    @staticmethod
    def _records(analytic, oracle, grid, params, curve, soa):
        records = []
        for soc, steps, direction in grid:
            point = (BatteryState(soc), params, curve, Window(steps, 1.0), direction, soa)
            a, b = analytic(*point), oracle(*point)
            records.append((soc, steps, direction, a - b))
        return records

    def test_grid_sweep_emits_one_record_per_point(self, params, linear_curve, soa):
        grid = list(itertools.product((0.2, 0.5, 0.8), (1, 10), (DIS,)))
        records = self._records(
            lambda *p: sop_cc(*p).i_mc, brute_peak_current_cc, grid, params, linear_curve, soa
        )
        assert [r[:3] for r in records] == grid
        assert all(abs(r[-1]) <= 1e-6 for r in records)

    def test_peak_power_case(self, params, linear_curve, soa):
        # A CP check compares the power magnitude against the CP oracle, in
        # both directions, off the mid-SOC point the agreement tests use.
        def oracle_watts(*point):
            brute = brute_peak_power_cp(*point)
            assert not brute.saturated
            return brute.watts

        grid = list(itertools.product((0.2, 0.5, 0.8), (1, 10), (DIS, CHG)))
        records = self._records(
            lambda *p: sop_cp(*p)[0].sop, oracle_watts, grid, params, linear_curve, soa
        )
        assert [r[:3] for r in records] == grid
        assert all(abs(r[-1]) <= 1e-6 for r in records)


# ecm's closed-form helper; the rest of ecm is the model the oracle shares.
ECM_CLOSED_FORMS = {"predict_cc"}


def _top_level_names(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def _validated_names():
    """Every top-level function and class of the modules the oracle
    validates, with ecm's closed forms: read from the source, so a new or
    renamed engine function is covered without editing this file."""
    modules = ("modes", "peak_cc", "error_lab")
    return set().union(*map(_top_level_names, modules), ECM_CLOSED_FORMS)


def test_oracle_module_does_not_call_closed_forms():
    # Dependency direction: the validators must not lean on the code they
    # validate. No name the engines and closed forms define appears in the
    # oracle's source, as a name, an attribute or an import.
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    referenced = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name)
    assert referenced & _validated_names() == set()


def test_validated_names_are_read_from_the_source():
    # Were the derivation to find nothing, the check above would pass on
    # nothing: it finds the engines' step, hold engine and search, the closed
    # form and the error calculus.
    assert {"solve_cp_step", "_sop_hold", "sop_cp", "window_terms", "_estimate"} <= _validated_names()


def _returns_own_function(function):
    """Whether ``function`` returns, by name, a function it defines itself."""
    own = {n.name for n in ast.walk(function) if isinstance(n, ast.FunctionDef)} - {function.name}
    return any(
        isinstance(n, ast.Return) and isinstance(n.value, ast.Name) and n.value.id in own
        for n in ast.walk(function)
    )


def test_oracle_hands_the_window_loop_only_its_own_laws():
    # The CP oracle shares the engines' window loop, but not their step: the
    # law it hands the loop is a function of its own (the Newton law), never
    # a float power, which the loop would step by the engines' closed-form
    # root, nor a hold law. A law is a function defined in oracle.py, or the
    # call of a top-level oracle.py function that returns one it defines.
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    top = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_window"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "ecm"
    ]
    assert calls, "the oracle no longer calls ecm._window: this guard checks nothing"
    for call in calls:
        law = next((k.value for k in call.keywords if k.arg == "law"), None)
        law = call.args[4] if law is None and len(call.args) > 4 else law
        where = f"line {call.lineno}: {ast.unparse(law) if law is not None else 'no law'}"
        if isinstance(law, ast.Call):
            assert isinstance(law.func, ast.Name) and law.func.id in top, where
            assert _returns_own_function(top[law.func.id]), where
        else:
            assert isinstance(law, ast.Name) and law.id in defined, where
