"""Brute-force oracles for the closed-form estimates, and nothing else.

Peak current and power are rediscovered over forward-simulated feasibility,
using only the single-step model and the safe-operation-area checks. Probes
are placed by the ITP method (interpolate, truncate, project) on the
oracle's own box-normalised slack, which never decides a verdict: each
window is judged by ``check_point`` at its two SOA corners, as the engines
judge theirs, and each answer is bracketed to the same tolerance as by
bisection, within bisection's probe count plus one. ITP's truncation is cut
to about the regula falsi estimate's error, which the slack's curvature
through the last three bracket points predicts; the projection keeps that
worst-case bound whatever the truncation. The CC oracle runs ``ecm.step``'s
recurrence inline and reads the OCV as ``ecm._window`` does, from the
segment it holds, seeking the rested SOC's once per solve and a new one only
when the SOC leaves it. The CP oracle steps its windows on ``ecm._window``,
the window loop the stepwise engines share, under its own step law: each
step's current by Newton's method, from Newton's first step from power /
emf (from below the charge root at emf <= 0), which rises monotonically to
the physical root, not the engines' closed-form root. It seeks step one's
OCV segment once per solve. The oracle imports only ``ecm``, ``soa`` and the
exceptions, nothing it validates.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import ecm
from .ecm import BatteryParams, BatteryState, OcvCurve, Window
from .exceptions import ConfigurationError, InfeasibleStateError
from .soa import Direction, Soa, check_load, check_point


# ITP probe placement (Oliveira & Takahashi 2020, ACM TOMS 47(1)): at most
# ceil(log2(bracket / tol)) + ITP_N0 probes, bisection's worst case plus
# ITP_N0. The truncation step is ITP_K1 * width**2 / (starting width), cut
# to ITP_ERROR_MARGIN times the interpolant's error that the slack's
# curvature predicts, but to no less than ITP_TOL_SHARE * tol. Measured on
# the validate-grid-like states of tests/answer_shift.py (linear table, 2,000
# solves each for seeds 1 and 7, tol 1e-9), probes per solve of the CC / CP
# oracle, seed 1 (seed 7 alike): ITP_K1 alone 4.21 / 10.61; with the cut,
# margin 2 and tol/4 2.88 / 9.23; tol/2 3.06 / 9.32; tol 3.40 / 9.66; tol/8
# as tol/4; margin 1 3.09 / 9.40 (a CC solve takes 37, the budget); margin 3
# 2.86 / 9.33; margin 4 2.85 / 9.39.
ITP_N0 = 1
ITP_K1 = 0.2
ITP_ERROR_MARGIN = 2.0
ITP_TOL_SHARE = 0.25

# Newton iterations per CP oracle step before the step counts as rootless.
NEWTON_MAX_ITER = 60


class BrutePower(NamedTuple):
    watts: float
    saturated: bool  # bracket top itself was feasible


class Probe(NamedTuple):
    """One whole-window simulation: whether every step lies inside the SOA,
    and the box-normalised slack that only places the next probe."""

    feasible: bool
    slack: float | None  # None when the window has no continuation


def _box_slack(low: tuple[float, ...], high: tuple[float, ...], soa: Soa) -> float:
    """Smallest distance from the window's two SOA corners, (min vt, max
    current, min soc) and (max vt, min current, max soc), to a face of the
    SOA box, each in units of the box's width along that axis: >= 0 inside
    the box, negative once a face is crossed."""
    (vt_lo, i_hi, soc_lo), (vt_hi, i_lo, soc_hi) = low, high
    v_width = soa.vt_max - soa.vt_min
    i_width = soa.i_max_dis - soa.i_max_chg
    soc_width = soa.soc_max - soa.soc_min
    return min(
        (vt_lo - soa.vt_min) / v_width,
        (soa.vt_max - vt_hi) / v_width,
        (soa.i_max_dis - i_hi) / i_width,
        (i_lo - soa.i_max_chg) / i_width,
        (soc_lo - soa.soc_min) / soc_width,
        (soa.soc_max - soc_hi) / soc_width,
    )


def _corner_probe(low: tuple[float, ...], high: tuple[float, ...], soa: Soa) -> Probe:
    """A window's probe from its two SOA corners, as in ``_box_slack``: the SOA
    is a box, so every step lies in it iff ``check_point`` passes both."""
    feasible = not (check_point(*low, soa) or check_point(*high, soa))
    return Probe(feasible, _box_slack(low, high, soa))


def _search(probe: Callable[[float], Probe], top: float, tol: float) -> tuple[float, bool]:
    """The largest load magnitude in ``[0, top]`` whose window ``probe``
    simulates feasible, with whether it saturated at ``top``.

    A sustained ``top`` wins outright. Otherwise the zero-load window must be
    feasible, or InfeasibleStateError is raised. Then the bracket is narrowed
    until ``hi - lo <= tol``, and ``lo``, which the last feasible probe
    simulated, is returned.

    Each probe is placed by ITP (interpolate, truncate, project) on the two
    ends' slacks: regula falsi through them gives x_f, which is moved
    toward the midpoint by a truncation delta. ITP's delta is
    ITP_K1 * width**2 / (starting width). Once the search has replaced an
    end, delta is cut to twice the interpolant's error that the slack's
    curvature predicts, |f[lo, hi, e] / f[lo, hi]| * (x_f - lo) * (hi - x_f)
    from the divided differences through lo, hi and the end e that the last
    probe replaced, but to no less than tol / 4: an estimate already close to
    the root is then overshot by about its error, not thrown past by
    ITP's delta. The projection keeps every probe within reach of the
    midpoint, whatever delta is, so the bracket after j probes is no wider
    than bisection's after j - ITP_N0. Only the verdicts move the ends.
    Without a slack for both ends, the probe is the midpoint. If the bracket
    can no longer be split in floating point, the search stops there.
    """
    high = probe(top)
    if high.feasible:
        return top, True
    low = probe(0.0)
    if not low.feasible:
        raise InfeasibleStateError("the zero-load window leaves the SOA")
    lo, slack_lo, hi, slack_hi = 0.0, low.slack, top, high.slack
    end, slack_end = math.nan, None  # the bracket end that the last probe replaced
    n_max = math.ceil(math.log2(hi - lo) - math.log2(tol)) + ITP_N0
    # A probe projected onto the exact edge of the budget can leave the last
    # bracket an ulp wider than tol, and cost one probe more: aim inside it.
    budget_tol = tol * (1.0 - 2.0**-10)
    k1 = ITP_K1 / (hi - lo)
    j = 0
    while hi - lo > tol:
        width = hi - lo
        mid = lo + 0.5 * width
        x = mid
        if slack_lo is not None and slack_hi is not None:
            above, below = max(slack_lo, 0.0), min(slack_hi, 0.0)
            if above > below:
                x_f = lo + width * above / (above - below)  # interpolate
                sigma = 1.0 if mid > x_f else -1.0
                delta = k1 * width * width
                if slack_end is not None:
                    # The interpolant's error at x_f from the slack's second
                    # divided difference through lo, hi and the replaced end.
                    first = (below - above) / width
                    second = ((slack_end - below) / (end - hi) - first) / (end - lo)
                    error = abs(second / first) * (x_f - lo) * (hi - x_f)
                    delta = min(delta, max(ITP_ERROR_MARGIN * error, ITP_TOL_SHARE * tol))
                x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid  # truncate
                reach = max(math.ldexp(budget_tol, n_max - j - 1) - 0.5 * width, 0.0)
                x = x_t if abs(x_t - mid) <= reach else mid - sigma * reach  # project
                # tol / 2 inside either end, a probe closes the bracket or
                # moves an end by at least tol / 2.
                x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < x < hi:
            x = mid
        if not lo < x < hi:  # the bracket no longer splits in floating point
            break
        result = probe(x)
        if result.feasible:
            end, slack_end = lo, slack_lo
            lo, slack_lo = x, result.slack
        else:
            end, slack_end = hi, slack_hi
            hi, slack_hi = x, result.slack
        j += 1
    return lo, False


def _cc_feasible(
    current: float,
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    soa: Soa,
    segment: tuple[float, ...] | None,
) -> Probe:
    """Simulate the whole window at a constant ``current`` and judge it at its
    two SOA corners; an infeasible window also runs to its end, so its slack
    extends a feasible one's. ``segment`` is the OCV segment held at the
    start, the rested SOC's from ``ecm._seek``, which every probe of one
    solve shares.

    Each step is ``ecm.step``'s recurrence inline, operation for operation,
    with the step's constants hoisted. The OCV is read as ``ecm._window``
    reads it: a SOC inside the held segment by ``ecm._seek``'s expression,
    any other by ``ecm._seek``, whose segment is then held; no Python call
    per step. Like the ``BatteryState`` that ``ecm.step`` builds, a
    polarization that is not finite raises ConfigurationError."""
    alpha = math.exp(-window.dt / params.tau)
    # Products stay left to right, as in ecm.step.
    one_minus_alpha = 1.0 - alpha
    r0, r1, dt, soc_per_as = params.r0, params.r1, window.dt, params.soc_per_amp_second
    soc, vp = state.soc, state.vp
    lo, x0, x1, y0, rise, run = ecm._NO_SEGMENT if segment is None else segment
    inf = math.inf
    vt_lo = soc_lo = inf
    vt_hi = soc_hi = -inf
    for _ in range(window.steps):
        vp = vp * alpha + current * r1 * one_minus_alpha
        soc = soc - current * dt * soc_per_as  # clamped to [0, 1] as ecm.step clamps
        if soc < 0.0:
            soc = 0.0
        elif soc > 1.0:
            soc = 1.0
        if lo <= soc < x1:
            v_oc = y0 + (soc - x0) * rise / run
        else:
            v_oc, entered = ecm._seek(curve, soc)
            if entered is not None:
                lo, x0, x1, y0, rise, run = entered
        vt = v_oc - vp - current * r0
        if not -inf < vp < inf:  # NaN fails every comparison
            raise ConfigurationError(f"vp must be finite, got {vp}")
        if vt < vt_lo:
            vt_lo = vt
        if vt > vt_hi:
            vt_hi = vt
        if soc < soc_lo:
            soc_lo = soc
        if soc > soc_hi:
            soc_hi = soc
    return _corner_probe((vt_lo, current, soc_lo), (vt_hi, current, soc_hi), soa)


def brute_peak_current_cc(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    direction: Direction,
    soa: Soa,
    tol_amps: float = 1e-6,
) -> float:
    """Largest constant current (by magnitude) whose simulated window stays
    inside the SOA, found by ``_search`` between zero and the current limit.

    The rested state must lie inside the SOA. Then a sustained current limit
    is the peak, exactly; else the zero-current window must stay inside the
    SOA; else ITP-placed probes narrow the bracket: the answer was simulated
    feasible and a current at most ``tol_amps`` larger was not.

    Raises InfeasibleStateError when the rested state lies outside the SOA,
    or when neither the limit nor zero current keeps the window inside it.
    """
    check_load(params, soa)
    if not (tol_amps > 0.0 and math.isfinite(tol_amps)):
        raise ValueError(f"tol_amps must be finite and > 0, got {tol_amps}")
    rested, segment = ecm._seek(curve, state.soc)
    if check_point(rested - state.vp, 0.0, state.soc, soa):
        raise InfeasibleStateError("rested state lies outside the SOA")
    sign = direction.sign

    def probe(magnitude: float) -> Probe:
        return _cc_feasible(sign * magnitude, state, params, curve, window, soa, segment)

    peak, _ = _search(probe, abs(direction.current_limit(soa)), tol_amps)
    return sign * peak


def _newton_law(
    r0: float, power: float
) -> Callable[[int, float, float], tuple[float, float] | None]:
    """The CP oracle's step law for ``ecm._window``: each step's
    physical-branch current with I*(emf - I*r0) = power, by Newton's method,
    and the step's terminal voltage; None when no root is reachable within
    ``NEWTON_MAX_ITER`` residuals. The iteration runs inside the law, one
    call per step; zero power has a law of its own, which draws no current
    whatever the emf.

    The residual f(I) = I*(emf - I*r0) - power is concave, so from a start
    where f <= 0 on the physical root's side the iterates rise
    monotonically to that root, the one nearest zero (Fourier's
    condition). At emf > 0 the iteration starts from Newton's first step
    from I = power / emf, taken without evaluating f there: f(power / emf)
    is -r0*(power / emf)**2 <= 0. At emf <= 0 only a charge has a root, and
    the start is emf/r0 - sqrt(-power/r0), where f = emf*sqrt(-power/r0) <=
    0; a discharge there has none. A slope emf - 2*I*r0 that is not > 0 puts
    the iterate at or past the power vertex: there is no root."""
    if power == 0.0:

        def drive(j: int, soc: float, emf: float) -> tuple[float, float] | None:
            return 0.0, emf  # no current, no ohmic drop

        return drive

    # 1e-12 * max(1.0, abs(power)) and abs(residual) <= f_tol by comparisons,
    # without builtin calls on every step; NaN compares as in those builtins.
    magnitude = power if power > 0.0 else -power
    f_tol = 1e-12 * magnitude if magnitude > 1.0 else 1e-12
    max_iter = NEWTON_MAX_ITER
    # A charge's start at emf <= 0 lies this far below emf / r0.
    charge_reach = (magnitude / r0) ** 0.5 if power < 0.0 else None

    def drive(j: int, soc: float, emf: float) -> tuple[float, float] | None:
        if emf > 0.0:
            # Newton's first step from power / emf, whose residual is known.
            current = power / emf
            slope = emf - 2.0 * current * r0
            if not slope > 0.0:
                return None
            current += current * current * r0 / slope
        elif charge_reach is not None:
            current = emf / r0 - charge_reach
        else:
            return None
        residual = current * (emf - current * r0) - power
        evaluations = 1  # a counted loop: no range iterator per step
        while not -f_tol <= residual <= f_tol:
            slope = emf - 2.0 * current * r0
            if evaluations == max_iter or not slope > 0.0:
                return None
            current -= residual / slope
            residual = current * (emf - current * r0) - power
            evaluations += 1
        return current, emf - current * r0

    return drive


def _cp_feasible(
    power_abs: float,
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    direction: Direction,
    soa: Soa,
    start: tuple[float, tuple[float, ...] | None],
) -> Probe:
    """Simulate the whole window at a constant power magnitude through
    ``ecm._window`` under ``_newton_law`` and judge it at its two SOA
    corners; ``start`` is step one's OCV and segment, which every probe of
    one solve shares. A step with no physical current ends the window
    without a slack."""
    corners = ecm._window(
        state, params, curve, window, _newton_law(params.r0, power_abs * direction.sign), start
    )
    if corners is None:
        return Probe(False, None)
    return _corner_probe(*corners, soa)


def brute_peak_power_cp(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    direction: Direction,
    soa: Soa,
    tol_watts: float = 1e-6,
    p_hi: float | None = None,
) -> BrutePower:
    """Largest sustainable constant power magnitude, with the per-step current
    recovered by Newton's method instead of the closed-form quadratic, found
    by ``_search`` between zero and ``p_hi``.

    A sustained ``p_hi`` is the answer, saturated; else the zero-power window
    must stay inside the SOA, or InfeasibleStateError is raised; else
    ITP-placed probes narrow the bracket: the answer was simulated feasible
    and a power at most ``tol_watts`` larger was not. The default ``p_hi``,
    the current limit times ``vt_max``, bounds every step's |power| in the
    box, so only a peak on the bound itself saturates."""
    check_load(params, soa)
    if not (tol_watts > 0.0 and math.isfinite(tol_watts)):
        raise ValueError(f"tol_watts must be finite and > 0, got {tol_watts}")
    if p_hi is None:
        p_hi = abs(direction.current_limit(soa)) * soa.vt_max
    if not (p_hi > 0.0 and math.isfinite(p_hi)):
        raise ValueError(f"p_hi must be finite and > 0, got {p_hi}")

    start = ecm._seek(curve, state.soc)

    def probe(power_abs: float) -> Probe:
        return _cp_feasible(power_abs, state, params, curve, window, direction, soa, start)

    return BrutePower(*_search(probe, p_hi, tol_watts))

