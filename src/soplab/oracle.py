"""Brute-force oracles for the closed-form estimates, and nothing else.

Peak current and power are rediscovered over forward-simulated feasibility,
using only the single-step model and the safe-operation-area checks. Probes
are placed by the ITP method (interpolate, truncate, project) on the
oracle's own box-normalised slack, which never decides a verdict: each
window is judged by ``check_point`` at its two SOA corners, as the engines
judge theirs, and each answer is bracketed to the same tolerance as by
bisection, within bisection's probe count plus one. The CC oracle runs
``ecm.step``'s recurrence inline. The CP oracle solves each step's current by
Newton's method from power / emf, which rises monotonically to the physical
root. Each oracle solve reads the OCV through one ``ecm.ocv_cursor``.
It imports only ``ecm``, ``soa`` and the exceptions, nothing it validates.
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
# ITP_N0. The truncation step is ITP_K1 * width**2 / (starting width).
ITP_N0 = 1
ITP_K1 = 0.2

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
    ends' slacks. The projection keeps every probe within reach of the
    midpoint, so the bracket after j probes is no wider than bisection's
    after j - ITP_N0. Only the verdicts move the ends. Without a slack for
    both ends, the probe is the midpoint. If the bracket can no longer be
    split in floating point, the search stops there.
    """
    high = probe(top)
    if high.feasible:
        return top, True
    low = probe(0.0)
    if not low.feasible:
        raise InfeasibleStateError("the zero-load window leaves the SOA")
    lo, slack_lo, hi, slack_hi = 0.0, low.slack, top, high.slack
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
            lo, slack_lo = x, result.slack
        else:
            hi, slack_hi = x, result.slack
        j += 1
    return lo, False


def _cc_feasible(
    current: float,
    state: BatteryState,
    params: BatteryParams,
    lookup: Callable[[float], float],
    window: Window,
    soa: Soa,
) -> Probe:
    """Simulate the whole window at a constant ``current`` on the solve's OCV
    cursor ``lookup`` and judge it at its two SOA corners; an infeasible
    window also runs to its end, so its slack extends a feasible one's.

    Each step is ``ecm.step``'s recurrence inline, operation for operation,
    with the step's constants hoisted; like the ``BatteryState`` that
    ``ecm.step`` builds, a polarization that is not finite raises
    ConfigurationError."""
    alpha = math.exp(-window.dt / params.tau)
    # Products stay left to right, as in ecm.step.
    one_minus_alpha = 1.0 - alpha
    r0, r1, dt, soc_per_as = params.r0, params.r1, window.dt, params.soc_per_amp_second
    soc, vp = state.soc, state.vp
    vt_lo = soc_lo = math.inf
    vt_hi = soc_hi = -math.inf
    for _ in range(window.steps):
        vp = vp * alpha + current * r1 * one_minus_alpha
        soc = soc - current * dt * soc_per_as  # clamped to [0, 1] as ecm.step clamps
        if soc < 0.0:
            soc = 0.0
        elif soc > 1.0:
            soc = 1.0
        vt = lookup(soc) - vp - current * r0
        if not math.isfinite(vp):
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
    lookup = ecm.ocv_cursor(curve)
    if check_point(lookup(state.soc) - state.vp, 0.0, state.soc, soa):
        raise InfeasibleStateError("rested state lies outside the SOA")
    sign = direction.sign

    def probe(magnitude: float) -> Probe:
        return _cc_feasible(sign * magnitude, state, params, lookup, window, soa)

    peak, _ = _search(probe, abs(direction.current_limit(soa)), tol_amps)
    return sign * peak


def _newton_cp_current(emf: float, r0: float, power: float) -> float | None:
    """Physical-branch current with I*(emf - I*r0) = power, by Newton's method
    from I = power / emf; None when no root is reachable.

    The residual f(I) = I*(emf - I*r0) - power is concave and -r0*I**2 <= 0 at
    the start, so the iterates rise monotonically to the physical root, the
    one nearest zero (Fourier's condition). A slope emf - 2*I*r0 that is not
    > 0 puts the iterate at or past the power vertex: there is no root."""
    if power == 0.0:
        return 0.0
    if not emf > 0.0:
        return None
    # 1e-12 * max(1.0, abs(power)) and abs(residual) <= f_tol by comparisons,
    # without builtin calls on every step; NaN compares as in those builtins.
    magnitude = power if power > 0.0 else -power
    f_tol = 1e-12 * magnitude if magnitude > 1.0 else 1e-12
    current = power / emf
    for _ in range(NEWTON_MAX_ITER):
        residual = current * (emf - current * r0) - power
        if -f_tol <= residual <= f_tol:
            return current
        slope = emf - 2.0 * current * r0
        if not slope > 0.0:
            return None
        current -= residual / slope
    return None


def _cp_feasible_trace(
    power_abs: float,
    state: BatteryState,
    params: BatteryParams,
    lookup: Callable[[float], float],
    window: Window,
    direction: Direction,
    soa: Soa,
) -> Probe:
    """Simulate the whole window at a constant power magnitude on the solve's
    OCV cursor ``lookup`` and judge it at its two SOA corners; each step's
    current is ``_newton_cp_current``'s.
    A step with no physical current ends the window without a slack."""
    alpha = math.exp(-window.dt / params.tau)
    # Products stay left to right, as in ecm.step.
    one_minus_alpha = 1.0 - alpha
    r0, r1, dt, soc_per_as = params.r0, params.r1, window.dt, params.soc_per_amp_second
    power = power_abs * direction.sign
    soc, vp = state.soc, state.vp
    vt_lo = i_lo = soc_lo = math.inf
    vt_hi = i_hi = soc_hi = -math.inf
    for _ in range(window.steps):
        vp_rel = vp * alpha
        emf = lookup(soc) - vp_rel
        current = _newton_cp_current(emf, r0, power)
        if current is None:
            return Probe(False, None)
        vt = emf - current * r0
        soc_next = soc - current * dt * soc_per_as  # clamped to [0, 1] as ecm.step clamps
        if soc_next < 0.0:
            soc_next = 0.0
        elif soc_next > 1.0:
            soc_next = 1.0
        if vt < vt_lo:
            vt_lo = vt
        if vt > vt_hi:
            vt_hi = vt
        if current < i_lo:
            i_lo = current
        if current > i_hi:
            i_hi = current
        if soc_next < soc_lo:
            soc_lo = soc_next
        if soc_next > soc_hi:
            soc_hi = soc_next
        vp = vp_rel + current * r1 * one_minus_alpha
        soc = soc_next
    return _corner_probe((vt_lo, i_hi, soc_lo), (vt_hi, i_lo, soc_hi), soa)


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

    lookup = ecm.ocv_cursor(curve)

    def probe(power_abs: float) -> Probe:
        return _cp_feasible_trace(power_abs, state, params, lookup, window, direction, soa)

    return BrutePower(*_search(probe, p_hi, tol_watts))

