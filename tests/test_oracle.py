"""Oracle tests: the ITP-placed validators, their certificate against
plain bisection, their agreement with the closed forms, and the oracle
module's independence from them."""

import ast
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import seed as hypothesis_seed
from hypothesis import strategies as st

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
    sop_cp,
    step,
)
from soplab.oracle import _newton_cp_current
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
    cp_probes = _probe_spy(monkeypatch, "_cp_feasible_trace")
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
        cp_probes = _probe_spy(mp, "_cp_feasible_trace")
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


class TestWindowLoops:
    """The oracles' window loops, run on OCV cursors with their constants
    hoisted and judged at their two SOA corners, answer exactly as their
    references, which check every step: ``ecm.step`` for the CC loop, the
    per-step bisecting loop for the CP one."""

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
            lookup = ecm.ocv_cursor(curve)
            got = oracle_module._cc_feasible(current, state, params, lookup, window, soa)
            assert repr(got) == repr(cc_window_probe(current, state, params, curve, window, soa))
            got = oracle_module._cp_feasible_trace(power, state, params, lookup, window, direction, soa)
            assert repr(got) == repr(cp_window_probe(power, state, params, curve, window, direction, soa))
            checked.add((got.feasible, got.slack is None))
        assert checked == {(True, False), (False, False), (False, True)}  # every kind of probe
        # Every face is crossed, the one opposite the direction's cut-off too.
        faces = {"voltage_low", "voltage_high", "soc_low", "soc_high"}
        assert left == {(DIS, face) for face in faces | {"current_high_dis"}} | {
            (CHG, face) for face in faces | {"current_high_chg"}
        }

    @staticmethod
    def _looked_up(curve):
        """An OCV cursor on ``curve`` for a window loop, and the SOCs, as
        ``float.hex``, that the loop looks up through it."""
        socs = []
        lookup = ecm.ocv_cursor(curve)

        def recorded(soc):
            socs.append(soc.hex())
            return lookup(soc)

        return recorded, socs

    def test_one_cursor_per_solve(self, params, linear_curve, soa, monkeypatch):
        # Every probe of a solve reads the OCV through the solve's one
        # cursor, and so does the CC oracle's rested-point check.
        built = [0]
        cursor = ecm.ocv_cursor

        def counting_cursor(curve):
            built[0] += 1
            return cursor(curve)

        monkeypatch.setattr(oracle_module.ecm, "ocv_cursor", counting_cursor)
        args = (BatteryState(0.5, 0.1), params, linear_curve, Window(30, 1.0), DIS, soa)
        for oracle in (brute_peak_current_cc, brute_peak_power_cp):
            built[0] = 0
            oracle(*args, 1e-9)
            assert built[0] == 1

    @pytest.mark.parametrize(
        "soc, current, window, end",
        [
            (-0.0, 0.0, Window(30, 1.0), -0.0),  # at rest on an empty cell
            (0.02, 10.0, Window(60, 5.0), 0.0),  # empties the cell mid-window
            (0.98, -4.0, Window(60, 5.0), 1.0),  # fills it
        ],
    )
    def test_cc_loop_soc_is_ecm_step(self, params, soa, soc, current, window, end):
        # The loop clamps the SOC by comparisons, as ecm.step does: it looks up
        # ecm.step's SOC after every step, bit for bit, a -0.0 included.
        state, want = BatteryState(soc, 0.1), []
        for _ in range(window.steps):
            state = step(state, params, NMC_CURVE, current, window.dt).state
            want.append(state.soc.hex())
        assert want[-1] == end.hex()
        lookup, looked_up = self._looked_up(NMC_CURVE)
        oracle_module._cc_feasible(current, BatteryState(soc, 0.1), params, lookup, window, soa)
        assert looked_up == want

    @pytest.mark.parametrize("direction", [DIS, CHG])
    def test_cp_loop_keeps_negative_zero_at_rest(self, params, soa, direction):
        lookup, looked_up = self._looked_up(NMC_CURVE)
        window = Window(30, 1.0)
        args = (BatteryState(-0.0, 0.1), params, lookup, window, direction, soa)
        oracle_module._cp_feasible_trace(0.0, *args)
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
                current, state, params, ecm.ocv_cursor(linear_curve), window, soa
            )


class TestNewtonStep:
    @staticmethod
    def _passes_residual_test(current, emf, r0, power):
        return abs(current * (emf - current * r0) - power) <= 1e-12 * max(1.0, abs(power))

    @settings(max_examples=300, deadline=None)
    # Started from a guess above the root (0.25 A), Newton's method overshot
    # past zero here: -5.4e-16 A for +2.3e-76 W.
    @example(emf=1.0, r0=1.0, share=9.339306341188799e-76)
    @given(emf=st.floats(0.1, 5.0), r0=st.floats(0.001, 1.0), share=st.floats(-3.0, 0.999))
    def test_finds_the_physical_root(self, emf, r0, share):
        vertex = emf / (2.0 * r0)
        power = share * emf * vertex / 2.0  # share of the power ceiling emf^2 / (4 r0)
        current = _newton_cp_current(emf, r0, power)
        assert current is not None
        assert self._passes_residual_test(current, emf, r0, power)
        assert abs(current) <= vertex * (1.0 + 1e-9)
        assert current * power >= 0.0

    @pytest.mark.parametrize(
        "emf, power",
        [(3.6, 32.5), (-0.1, 1.0), (0.0, 1.0), (math.nan, 1.0)],
        ids=["above-ceiling", "negative-emf", "zero-emf", "nan-emf"],
    )
    def test_no_root_beyond_the_power_vertex(self, emf, power):
        # At emf 3.6 V and r0 0.1 ohm the vertex is 18 A and the ceiling 32.4 W.
        assert _newton_cp_current(emf, 0.1, power) is None


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
    # nothing: it finds the engines' step, trace and search, the closed form
    # and the error calculus.
    assert {"_cp_drive", "_trace", "sop_cp", "window_terms", "_estimate"} <= _validated_names()
