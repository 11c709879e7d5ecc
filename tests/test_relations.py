"""Relations between answers that need no oracle (metamorphic tests): a
longer window never claims more, a wider box never gives less, and a cell
scaled by two (half the resistances, twice the capacity and the current
limits) doubles every answer.

Each answer is one figure: ``sop_cc``'s |i_mc|, the stepwise engines' ``sop``,
the CC oracle's |current| and the CP oracle's watts. A refusal claims
nothing, so it reads 0 in the first two relations. On failure, a relation
prints both scenarios and both answers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from soplab import (
    AnalyticDomainError,
    BatteryParams,
    BatteryState,
    Direction,
    InfeasibleStateError,
    OcvCurve,
    Soa,
    Window,
    brute_peak_current_cc,
    brute_peak_power_cp,
    sop_cc,
    sop_cccv,
    sop_cp,
    sop_cv,
)
from support import NMC_CURVE

PARAMS = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
SOA = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
WIDE_SOA = Soa(2.7, 4.4, 12.0, -5.0, 0.05, 0.95)
# Two cells in parallel: half the resistances, twice the capacity and limits.
TWICE_PARAMS = BatteryParams(r0=0.025, r1=0.015, tau=10.0, capacity_ah=4.0)
TWICE_SOA = Soa(2.8, 4.3, 20.0, -8.0, 0.1, 0.9)
ORACLE_TOL = 1e-9
CP_TOL = 1e-6  # sop_cp's default tol_watts

# name -> (the answer's figure, the slack of a relation between two answers).
# The searches bracket each answer within their tolerance, so two answers
# may sit up to two tolerances out of line; the rest are exact.
PRODUCERS = {
    "sop_cc": (lambda *s: abs(sop_cc(*s).i_mc), 0.0),
    "sop_cv": (lambda *s: sop_cv(*s)[0].sop, 0.0),
    "sop_cccv": (lambda *s: sop_cccv(*s)[0].sop, 0.0),
    "sop_cp": (lambda *s: sop_cp(*s, tol_watts=CP_TOL)[0].sop, 2 * CP_TOL),
    "brute_peak_current_cc": (
        lambda *s: abs(brute_peak_current_cc(*s, tol_amps=ORACLE_TOL)),
        2 * ORACLE_TOL,
    ),
    "brute_peak_power_cp": (
        lambda *s: brute_peak_power_cp(*s, tol_watts=ORACLE_TOL).watts,
        2 * ORACLE_TOL,
    ),
}

scenarios = st.builds(
    lambda curve, soc, vp, steps, direction: (
        BatteryState(soc, vp), PARAMS, curve, Window(steps, 1.0), direction, SOA
    ),
    st.sampled_from([OcvCurve(((0.0, 3.0), (1.0, 4.2))), NMC_CURVE]),
    st.floats(0.12, 0.88),
    st.floats(-0.4, 0.4),
    st.sampled_from([1, 3, 10, 30]),
    st.sampled_from(list(Direction)),
)
relation = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def _answer(name, scenario):
    """The producer's figure, or None when it refuses the window."""
    try:
        return PRODUCERS[name][0](*scenario)
    except (AnalyticDomainError, InfeasibleStateError):
        return None


def _describe(name, first, a, second, b):
    return f"{name}: {a!r} for {first!r}, {b!r} for {second!r}"


def _never_more(names, first, second):
    """No producer in ``names`` answers ``second`` with more than ``first``."""
    for name in names:
        a, b = _answer(name, first), _answer(name, second)
        assert (b or 0.0) <= (a or 0.0) + PRODUCERS[name][1], _describe(name, first, a, second, b)


# sop_cc's longer window claims more on some windows: its closed form checks
# only the end-of-window voltage (ROADMAP item 6).
@relation
@given(scenarios, st.sampled_from([2, 3, 10]))
def test_a_longer_window_never_claims_more(scenario, factor):
    state, params, curve, window, direction, soa = scenario
    longer = (state, params, curve, Window(factor * window.steps, window.dt), direction, soa)
    _never_more([name for name in PRODUCERS if name != "sop_cc"], scenario, longer)
    for engine in (sop_cv, sop_cccv):
        short, long = engine(*scenario)[1].steps, engine(*longer)[1].steps
        if long:
            # The hold trace is causal: the shorter window's trace is a prefix.
            assert long[: window.steps] == short, _describe(
                engine.__name__, scenario, short, longer, long
            )


@relation
@given(scenarios)
def test_a_wider_box_never_gives_less(scenario):
    wider = (*scenario[:5], WIDE_SOA)
    _never_more(PRODUCERS, wider, scenario)


@relation
@given(scenarios)
def test_a_cell_scaled_by_two_doubles_every_answer(scenario):
    state, _, curve, window, direction, _ = scenario
    doubled = (state, TWICE_PARAMS, curve, window, direction, TWICE_SOA)
    for name, (_, slack) in PRODUCERS.items():
        a, b = _answer(name, scenario), _answer(name, doubled)
        if a is None or b is None:
            assert a is b, _describe(name, scenario, a, doubled, b)  # both refuse
        else:
            assert abs(b - 2 * a) <= slack, _describe(name, scenario, a, doubled, b)
