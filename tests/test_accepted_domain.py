"""Every call answers or refuses as documented, over the whole accepted domain.

A seeded property draws raw model inputs from ordinary values mixed with the
extremes 5e-324, 1e-300, 1e-9, 1e300 and 1.7e308 (vp also takes -1e300 and
-1.7e308). Only the value types' constructors filter them: a refusal there is
the documented ``ConfigurationError``. Every input they accept goes, in both
directions, through every engine, both oracles at their default arguments,
``simulate_profile`` and ``error_lab.sweep``. Each call returns finite answers
or raises an exception that the README documents for it; any other
exception, a NaN or an infinity is a fault.

Finite is not enough for ``sop_cp``: an answer over a trace of zero-current
rows raises nothing. So each row of its trace must carry |power| within
1e-9 * max(1, sop) of ``sop``, the benchmark's own ``cp_power`` rule.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from soplab import (
    AnalyticDomainError,
    BatteryParams,
    BatteryState,
    ConfigurationError,
    Direction,
    ErrorSource,
    InfeasibleStateError,
    InputError,
    OcvCurve,
    Soa,
    Window,
    brute_peak_current_cc,
    brute_peak_power_cp,
    build_true_context,
    find_mode_shift_kc,
    simulate_profile,
    sop_cc,
    sop_cccv,
    sop_cp,
    sop_cv,
    sweep,
)
from soplab.error_lab import CONSTRAINTS

EXTREMES = (5e-324, 1e-300, 1e-9, 1e300, 1.7e308)

# The documented refusals of each call: the load check (ConfigurationError),
# a figure past the floats (AnalyticDomainError), a zero-load window outside
# the box (InfeasibleStateError) and a profile sample with no finite voltage.
REFUSALS = {
    "sop_cc": (ConfigurationError, AnalyticDomainError),
    "sop_cv": (ConfigurationError, AnalyticDomainError),
    "sop_cccv": (ConfigurationError, AnalyticDomainError),
    "sop_cp": (ConfigurationError, AnalyticDomainError),
    "find_mode_shift_kc": (ConfigurationError,),
    "brute_peak_current_cc": (ConfigurationError, InfeasibleStateError),
    "brute_peak_power_cp": (ConfigurationError, InfeasibleStateError),
    "simulate_profile": (ConfigurationError, InputError),
    "sweep": (ConfigurationError, AnalyticDomainError),
}


def value(*ordinary, signed=False):
    """A float from the menu: ordinary values four times as often as the
    extremes (and, ``signed``, their negatives)."""
    extremes = EXTREMES + tuple(-x for x in EXTREMES) if signed else EXTREMES
    return st.sampled_from(ordinary * (4 * len(extremes) // len(ordinary)) + extremes)


@st.composite
def ocv_points(draw):
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=3))
    socs = sorted({0.0, 1.0, *inner})
    volts = [draw(value(3.0, 3.7))]
    for _ in socs[1:]:
        volts.append(volts[-1] + draw(value(0.6, 0.1, 1e-9, 0.0)))
    return tuple(zip(socs, volts))


@st.composite
def cases(draw):
    """Raw inputs, in the order of ``answers_or_refusals``'s arguments."""
    params = (
        draw(value(0.05, 0.01)),
        draw(value(0.03, 0.0)),
        draw(value(10.0, 100.0, 0.1)),
        draw(value(2.0, 50.0)),
        draw(value(1.0, 0.9)),
    )
    soa = (
        draw(value(2.8, 3.0, 0.1)),
        draw(value(4.3, 4.2)),
        draw(value(10.0, 4.0, 1.0)),
        -draw(value(4.0, 10.0)),
        draw(value(0.1, 0.0)),
        draw(value(0.9, 1.0)),
    )
    state = (draw(value(0.5, 0.2, 0.85, 0.0, 1.0)), draw(value(0.0, 0.1, 0.3, signed=True)))
    window = (draw(st.sampled_from((1, 2, 3, 10, 30))), draw(value(1.0, 0.1)))
    profile = tuple(
        (float(t), draw(value(2.0, 0.0, 3.0, signed=True))) for t in range(draw(st.integers(1, 4)))
    )
    return params, draw(ocv_points()), soa, state, window, profile


def _assert_finite(answer, *figures):
    assert all(math.isfinite(x) for x in figures), answer


def _check_result(result, trace=None):
    # A constraint that cannot bind reports an infinite current by design.
    _assert_finite(result, result.sop, result.power_signed, result.vt_end, result.i_mc)
    limits = (result.i_current_limit, result.i_voltage_limit, result.i_soc_limit)
    assert not any(math.isnan(x) for x in limits if x is not None), result
    for row in trace.steps if trace is not None else ():
        _assert_finite(row, row.current, row.vt, row.soc, row.vp, row.power)


def _check_stepwise(answer):
    _check_result(*answer)


def _check_cp(answer):
    result, trace = answer
    _check_result(result, trace)
    scale = max(1.0, result.sop)
    for row in trace.steps:
        assert abs(abs(row.power) - result.sop) <= 1e-9 * scale, (result, row)


def _check_samples(samples):
    for sample in samples:
        _assert_finite(sample, *sample)


def _sweep_rows(scenario):
    ctx = build_true_context(*scenario)
    grid = [0.0, 1e-9, -0.01, 1e300, -5e-324]
    return [
        row for source in ErrorSource for c in CONSTRAINTS for row in sweep(source, grid, ctx, c)
    ]


def _check_sweep_rows(rows):
    # A flagged row reads nan by design; an unflagged one must be finite.
    for row in rows:
        if row.in_domain:
            _assert_finite(row, row.analytic_dsop, row.empirical_dsop, row.residual)
        else:
            assert all(math.isnan(x) for x in row[1:4]), row


# name -> (call on a scenario, check of its answer).
CALLS = {
    "sop_cc": (sop_cc, _check_result),
    "sop_cv": (sop_cv, _check_stepwise),
    "sop_cccv": (sop_cccv, _check_stepwise),
    "sop_cp": (sop_cp, _check_cp),
    "find_mode_shift_kc": (find_mode_shift_kc, lambda shift: None),
    "brute_peak_current_cc": (brute_peak_current_cc, lambda amps: _assert_finite(amps, amps)),
    "brute_peak_power_cp": (brute_peak_power_cp, lambda power: _assert_finite(power, power.watts)),
    "sweep": (lambda *scenario: _sweep_rows(scenario), _check_sweep_rows),
}


def _answers_or_refuses(name, call, check):
    try:
        answer = call()
    except REFUSALS[name]:
        return
    check(answer)


def answers_or_refusals(params, points, soa, state, window, profile):
    """Build the value types from raw inputs, then call everything in both
    directions; each call answers or raises one of its ``REFUSALS``."""
    try:
        params = BatteryParams(*params)
        curve = OcvCurve(points)
        soa = Soa(*soa)
        state = BatteryState(*state)
        window = Window(*window)
    except ConfigurationError:
        return
    _answers_or_refuses(
        "simulate_profile", lambda: simulate_profile(state, params, curve, profile), _check_samples
    )
    for direction in Direction:
        scenario = (state, params, curve, window, direction, soa)
        for name, (call, check) in CALLS.items():
            _answers_or_refuses(name, lambda: call(*scenario), check)


README_PARAMS = (0.05, 0.03, 10.0, 2.0, 1.0)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=cases())
# The CP drive divided by 0: at emf < 0, disc == emf**2 once 4 r0 P vanishes
# beside it (ZeroDivisionError).
@example(case=(
    (1e-300, 0.03, 0.1, 1e300, 0.9),
    ((0.0, 0.5), (0.40840487680611315, 0.500000001),
     (0.6411499018016735, 1000.500000001), (1.0, 1000.500000002)),
    (0.1, 4.3, 10.0, -5e-324, 0.0, 1.0),
    (0.0, -1.0824074794006742),
    (300, 0.1),
    ((0.0, 1.0),),
))
# emf**2 and 4 r0 P both overflowed: a NaN step current, then IndexError in
# ecm.ocv. With the NaN refused, the answer rode on zero-current rows.
@example(case=(
    (1e300, 1e300, 0.1, 50.0, 0.9),
    ((0.0, 3.0), (0.02189759743386621, 3.000000001), (0.4346728401311236, 3.000000002),
     (0.8003574183638044, 3.100000002), (1.0, 1003.100000002)),
    (2.8, 1e300, 1.0, -5e-324, 0.0, 1.0),
    (0.8816095287418093, -1e300),
    (3, 0.1),
    ((0.0, 1.0),),
))
# The CP oracle's default top |i_lim| * vt_max underflowed to 0 and the
# oracle refused it with a bare ValueError.
@example(case=(
    README_PARAMS,
    ((0.0, 1e-10), (1.0, 2e-10)),
    (1e-11, 1e-9, 5e-324, -4.0, 0.1, 0.9),
    (0.5, 0.0),
    (10, 1.0),
    ((0.0, 1.0),),
))
# emf**2 overflowed to inf: sop_cp reported 1.5e201 W over rows of 0 A and 0 W.
@example(case=(
    README_PARAMS,
    ((0.0, 1e200), (1.0, 2e200)),
    (2.8, 1e250, 10.0, -4.0, 0.1, 0.9),
    (0.5, 0.0),
    (10, 1.0),
    ((0.0, 1.0),),
))
def test_every_call_answers_or_refuses(case):
    answers_or_refusals(*case)
