"""Stepwise peak-operation-mode engines: CV, CC-CV, and CP windows.

Each engine returns the full per-step trace plus a SopResult whose ``sop`` is
the minimum per-step power magnitude across the window.

Every trace runs on one hold-style step, ``_trace``: entering step j the
polarization voltage relaxes by one interval, each mode's rule picks the step
current against that relaxed state, and the recorded terminal voltage carries
that current's ohmic drop. A voltage hold therefore pins the recorded voltage
exactly, and a current cap leaves it strictly inside the cut-off. ``_trace``
keeps the trace's two SOA corners as it steps; each engine checks the box at
those corners, not step by step, and a window that leaves the box delivers no
power. ``_trace`` builds the per-step rows only for a caller that asks: the CP
search's probes keep only the corners, and ``sop_cp`` steps the accepted power
once more with rows to return its trace.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple

from . import ecm
from .ecm import BatteryParams, BatteryState, OcvCurve, Window
from .exceptions import AnalyticDomainError, PowerInfeasibleError
from .peak_cc import SopResult, sop_result
from .soa import Direction, Soa, check_load, check_point


class PomStep(NamedTuple):
    index: int  # 1-based window step
    current: float
    vt: float
    soc: float
    vp: float
    power: float


class PomTrace(NamedTuple):
    steps: tuple[PomStep, ...]
    mode_shift_index: int | None = None


class CcCvCase(enum.Enum):
    CC_ONLY = "cc_only"  # shift falls beyond the window
    TRANSITIONAL = "transitional"  # shift inside the window
    CV_ONLY = "cv_only"  # shift completed before the window


class ModeShift(NamedTuple):
    case: CcCvCase
    k_c: int | None  # populated only for TRANSITIONAL


def _trace(
    state: BatteryState,
    params: BatteryParams,
    lookup: Callable[[float], float],
    window: Window,
    drive: Callable[[int, float, float], tuple[float, float] | None],
    v_oc: float,
    rows: list[PomStep] | None = None,
) -> tuple[tuple[float, float, float], tuple[float, float, float]] | None:
    """Run the hold step across the window: one OCV lookup per step through
    the caller's ``ecm.ocv_cursor`` (step one's is ``v_oc``, made by the
    caller), then ``drive(j, soc, emf)``, emf being the OCV less the relaxed
    vp, returns the step's ``(current, vt)``, or None to abandon the window
    (and return None). Returns the trace's two SOA corners, (min vt, max
    current, min soc) and (max vt, min current, max soc): the SOA is a box, so
    every step lies in it iff both corners do. Each step's ``PomStep`` is
    appended to ``rows`` only when the caller passes a list: a caller that
    needs only the corners builds none."""
    alpha = math.exp(-window.dt / params.tau)
    # Products stay left to right, never pre-multiplied (current * r1 * (1 - alpha),
    # current * dt * soc_per_as): the state then matches ecm.step's bit for bit.
    one_minus_alpha = 1.0 - alpha
    r1, dt, soc_per_as = params.r1, window.dt, params.soc_per_amp_second
    append = None if rows is None else rows.append
    row = tuple.__new__  # PomStep(...) would add a Python frame per row
    soc, vp = state.soc, state.vp
    vt_lo = soc_lo = i_lo = math.inf
    vt_hi = soc_hi = i_hi = -math.inf
    for j in range(1, window.steps + 1):
        if j > 1:  # step one's lookup is the caller's
            v_oc = lookup(soc)
        vp_rel = vp * alpha
        step = drive(j, soc, v_oc - vp_rel)
        if step is None:
            return None
        current, vt = step
        vp = vp_rel + current * r1 * one_minus_alpha
        # min(max(soc, 0.0), 1.0) by comparisons, without two builtin calls
        # per step; like max and min it keeps -0.0 and NaN.
        soc = soc - current * dt * soc_per_as
        if soc < 0.0:
            soc = 0.0
        elif soc > 1.0:
            soc = 1.0
        if append is not None:
            append(row(PomStep, (j, current, vt, soc, vp, current * vt)))
        if vt < vt_lo:
            vt_lo = vt
        if vt > vt_hi:
            vt_hi = vt
        if current < i_lo:
            i_lo = current
        if current > i_hi:
            i_hi = current
        if soc < soc_lo:
            soc_lo = soc
        if soc > soc_hi:
            soc_hi = soc
    return (vt_lo, i_hi, soc_lo), (vt_hi, i_lo, soc_hi)


def _sop_hold(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    direction: Direction,
    soa: Soa,
    cv: bool,
) -> tuple[SopResult, PomTrace]:
    """Hold a voltage level across the window, each step's hold current
    clipped to the direction's sign, the current limit and the SOC headroom;
    a clipped step carries its own ohmic drop.

    Step one decides which bound governs: if the current limit keeps that
    step's terminal voltage short of the cut-off, the window is "current"-
    governed, otherwise "voltage"-governed. The level is the cut-off, except
    that a current-governed ``cv`` window runs step one at the limit itself
    and holds the voltage that results. The first step of minimum |power|
    binds. Without ``cv``, a current-governed window whose hold current goes
    unclipped at some step is "dual"-governed and reports that step as its
    mode shift. A trace that leaves the SOA box gives the zero result."""
    check_load(params, soa)
    r0 = params.r0
    headroom_div = window.dt * params.soc_per_amp_second
    i_lim, bound = direction.current_limit(soa), direction.soc_bound(soa)
    sign = direction.sign
    discharge = direction is Direction.DISCHARGE
    unbounded = math.inf if discharge else -math.inf
    v_star, governed, k_c = direction.vt_cutoff(soa), None, None

    def drive(j: int, soc: float, emf: float) -> tuple[float, float]:
        nonlocal v_star, governed, k_c
        hold = (emf - v_star) / r0
        if governed is None:  # step one: v_star is still the cut-off
            vt_lim = emf - i_lim * r0
            governed = "voltage"
            if (v_star - vt_lim) * sign <= 0.0:
                governed = "current"
                if cv:
                    hold, v_star = i_lim, vt_lim
        # max(0.0, min(hold, i_lim, headroom)) and its charge mirror, inlined.
        # dt * soc_per_amp_second may underflow to 0: then no SOC moves.
        headroom = (soc - bound) / headroom_div if headroom_div else unbounded
        current = hold
        if discharge:
            if i_lim < current:
                current = i_lim
            if headroom < current:
                current = headroom
            if not current > 0.0:
                current = 0.0
        else:
            if i_lim > current:
                current = i_lim
            if headroom > current:
                current = headroom
            if not current < 0.0:
                current = 0.0
        if current == hold:
            vt = v_star
            if k_c is None:
                k_c = j
        else:
            vt = emf - current * r0
        return current, vt

    lookup = ecm.ocv_cursor(curve)
    v_oc = lookup(state.soc)
    rows: list[PomStep] = []
    low, high = _trace(state, params, lookup, window, drive, v_oc, rows)
    if check_point(*low, soa) or check_point(*high, soa):
        return _no_power(state, v_oc)
    steps = tuple(rows)
    binding = min(steps, key=lambda row: abs(row.power))  # the first minimum binds
    if cv or governed == "voltage":
        dominant, k_c = governed, None
    else:
        dominant = "current" if k_c is None else "dual"
    result = sop_result(binding.current, dominant, steps[-1].vt, binding.power)
    return result, PomTrace(steps, mode_shift_index=k_c)


def _no_power(state: BatteryState, v_oc: float) -> tuple[SopResult, PomTrace]:
    """The result of a window with no SOA-compliant continuation: zero power at
    the rested terminal voltage (step one's OCV lookup less vp), no trace. A
    rested voltage past the floats raises AnalyticDomainError, as ``sop_cc``'s
    end voltage does."""
    vt_rest = v_oc - state.vp
    if not math.isfinite(vt_rest):
        raise AnalyticDomainError(f"rested voltage {vt_rest} V not finite")
    return sop_result(0.0, "voltage", vt_rest, 0.0), PomTrace(())


def sop_cv(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    direction: Direction,
    soa: Soa,
) -> tuple[SopResult, PomTrace]:
    """Constant-terminal-voltage window.

    Level selection is two-phase, decided at step one: if the current limit
    keeps the terminal voltage short of the cut-off there, the region is
    current-governed -- the first step runs at the limit and its resulting
    voltage becomes the hold level for the rest of the window. Otherwise the
    cut-off itself is held throughout. A window whose hold trace leaves the
    SOA box anywhere (a polarization that drives the voltage past either
    cut-off, say) delivers no power: ``sop_cp``'s zero result. The hold trace
    alone decides this: a rested point outside the box does not refuse a
    window whose trace stays inside (one rule for every engine is ROADMAP
    item 3).
    """
    return _sop_hold(state, params, curve, window, direction, soa, True)


def find_mode_shift_kc(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    direction: Direction,
    soa: Soa,
) -> ModeShift:
    """Locate the CC-to-CV shift step for a CC-CV window.

    Simulates the current limit until the first step whose voltage reaches
    the cut-off: that step is the shift. No crossing means the window is
    current-governed throughout; a crossing already at step one means the
    shift predates the window and the whole window is voltage-governed.
    """
    check_load(params, soa)
    i_lim = direction.current_limit(soa)
    cutoff = direction.vt_cutoff(soa)
    sign = direction.sign
    r0 = params.r0
    crossing = None  # (step, signed overshoot) of the first crossing

    def drive(j: int, soc: float, emf: float) -> tuple[float, float] | None:
        nonlocal crossing
        vt = emf - i_lim * r0  # a constant-current step at the limit
        overshoot = (cutoff - vt) * sign
        if overshoot >= 0.0:  # cut-off reached or crossed: stop here
            crossing = (j, overshoot)
            return None
        return i_lim, vt

    lookup = ecm.ocv_cursor(curve)
    _trace(state, params, lookup, window, drive, lookup(state.soc))
    if crossing is None:
        return ModeShift(CcCvCase.CC_ONLY, None)
    k_c, overshoot = crossing
    if k_c == 1 and overshoot > 0.0:
        return ModeShift(CcCvCase.CV_ONLY, None)
    return ModeShift(CcCvCase.TRANSITIONAL, k_c)


def sop_cccv(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    direction: Direction,
    soa: Soa,
) -> tuple[SopResult, PomTrace]:
    """Constant-current / constant-voltage window with an in-window shift.

    Each step takes the smaller of the current limit and the cut-off hold
    current, so the current binds up to the shift and the voltage from the
    shift step onward; a never-reached cut-off reproduces the CC trace at the
    current limit. A shift that predates the window (``CcCvCase.CV_ONLY``:
    the current limit already past the cut-off at step one) makes the window
    the voltage-governed CV window, with no shift step. The trace decides this
    at step one; ``find_mode_shift_kc`` remains a public helper but is not
    called here. As in ``sop_cv``, the hold trace alone decides feasibility:
    a trace that leaves the SOA box gives ``sop_cp``'s zero result, and a
    rested point outside the box does not refuse a window whose trace stays
    inside (ROADMAP item 3).
    """
    return _sop_hold(state, params, curve, window, direction, soa, False)


def _cp_drive(
    power: float, r0: float
) -> Callable[[int, float, float], tuple[float, float] | None]:
    """The constant-power step for ``_trace``: ``drive(j, soc, emf)`` returns
    the smaller-magnitude root of R0*I^2 - emf*I + power = 0, continuous
    through I = 0 as power -> 0, with its terminal voltage; None, the one
    refusal of a CP step, where no current flows toward the power: above the
    step's power ceiling emf^2 / (4 R0), or a discharge at emf < 0. The
    products that depend on ``power`` alone are made once per window."""
    if power == 0.0:  # no power, no current (with the sign of zero), whatever the emf

        def drive(j: int, soc: float, emf: float) -> tuple[float, float] | None:
            return power, emf - power * r0

        return drive
    four_r0_power, two_power = 4.0 * r0 * power, 2.0 * power
    sqrt = math.sqrt

    def drive(j: int, soc: float, emf: float) -> tuple[float, float] | None:
        disc = emf * emf - four_r0_power
        if not disc >= 0.0:  # past the ceiling, or NaN from inf - inf
            return None
        root = emf + sqrt(disc)
        if not root > 0.0:  # the current would flow against the power, or divide by 0
            return None
        current = two_power / root
        return current, emf - current * r0

    return drive


def solve_cp_step(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    power: float,
    direction: Direction,
) -> tuple[float, float]:
    """Current and terminal voltage delivering ``power`` at this state.

    Solves R0*I^2 - (V_oc - V_p)*I + P = 0 on the physical branch: the
    smaller-magnitude root, continuous through I = 0 as P -> 0. The caller
    passes the step's relaxed state (``vp`` already decayed). Raises
    PowerInfeasibleError where ``_cp_drive`` finds no current toward the
    power: above the step's power ceiling, or where the root would flow
    against it (a discharge at emf < 0). Raises it too where 4*R0*P is not
    finite: the root's 2P / (emf + sqrt(disc)) then carries no power (0 or
    NaN). The engines never ask for such a power; their box bounds it.
    """
    if power * direction.sign < 0.0:
        raise PowerInfeasibleError(
            f"power {power} has the wrong sign for {direction.value}"
        )
    if not math.isfinite(4.0 * params.r0 * power):
        raise PowerInfeasibleError(
            f"power {power} W is out of range: 4 * r0 * power is not finite"
        )
    emf = ecm.ocv(curve, state.soc) - state.vp
    step = _cp_drive(power, params.r0)(1, state.soc, emf)
    if step is None:
        if emf * emf - 4.0 * params.r0 * power >= 0.0:  # the drive's discriminant
            raise PowerInfeasibleError(
                f"power {power} W has no physical current at emf {emf} V: the root flows against it"
            )
        raise PowerInfeasibleError(
            f"power {power} W exceeds the step ceiling {emf * emf / (4.0 * params.r0)} W"
        )
    return step


def _cp_probe(
    power_abs: float,
    state: BatteryState,
    params: BatteryParams,
    lookup: Callable[[float], float],
    window: Window,
    direction: Direction,
    soa: Soa,
    v_oc: float,
) -> tuple[bool, tuple[float, float, float] | None]:
    """Simulate a constant-|power| window to its last step, without rows;
    ``v_oc`` is step one's OCV and ``lookup`` the OCV cursor, which every
    probe of one solve shares.

    Returns whether every step lies inside the safe operation area, with the
    window's smallest direction-signed margins, negative once crossed, to the
    voltage, soc and current bounds (that order breaks ties); ``(False, None)``
    when ``_cp_drive`` finds a step with no current toward the power: the
    window has no continuation there, as ``solve_cp_step`` refuses such a step.

    The SOA check is at ``_trace``'s two corners. The margins come from the
    corner on the direction's side; rounding ``x - c`` is monotone in x, so
    each equals its per-step minimum bit for bit.
    """
    drive = _cp_drive(power_abs * direction.sign, params.r0)
    corners = _trace(state, params, lookup, window, drive, v_oc)
    if corners is None:
        return False, None
    low, high = corners
    vt, current, soc = low if direction is Direction.DISCHARGE else high
    margins = (
        (vt - direction.vt_cutoff(soa)) * direction.sign,
        (soc - direction.soc_bound(soa)) * direction.sign,
        (direction.current_limit(soa) - current) * direction.sign,
    )
    return not (check_point(*low, soa) or check_point(*high, soa)), margins


def _normalised_margin(
    margins: tuple[float, ...] | None, scales: tuple[float, ...]
) -> tuple[float | None, str | None]:
    """g(P) = min_c m_c(P) / m_c(0), with the bound c that attains it first:
    g is 1 at zero power (0 if a bound is already reached there), 0 at the
    peak, negative once a directional bound fails; (None, None) without margins."""
    if margins is None:
        return None, None
    shares = [m / s for m, s in zip(margins, scales)]
    g = min(shares)
    return g, ("voltage", "soc", "current")[shares.index(g)]


def _cp_estimate(
    points: list[tuple[float, float]], lo: float, hi: float
) -> float | None:
    """The root of g estimated from the remembered probes, strictly inside (lo,
    hi): inverse quadratic interpolation through three points with distinct g,
    else the secant through the last two; None when neither lands inside.
    Both are in Newton's divided-difference form, so a division is only ever
    by a difference of distinct g, which is never 0."""
    if len(points) < 2:
        return None
    (b, gb), (c, gc) = points[-2:]
    if gb == gc:
        return None
    slope = (c - b) / (gc - gb)
    secant = c - gc * slope
    if len(points) == 3:
        a, ga = points[0]
        if ga != gb and ga != gc:
            curve = (slope - (b - a) / (gb - ga)) / (gc - ga)
            iqi = secant + gc * gb * curve
            if lo < iqi < hi:
                return iqi
    return secant if lo < secant < hi else None


def sop_cp(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    direction: Direction,
    soa: Soa,
    tol_watts: float = 1e-6,
) -> tuple[SopResult, PomTrace]:
    """Constant-power window: the largest sustainable power magnitude.

    The bracket starts at zero power and a bound on the peak: no feasible
    window's step one draws more than the current limit, the cut-off current
    or, discharging, the power vertex allows. A sustained bound is the peak (as
    in most one-step windows); otherwise whole-window probes keep a feasible
    ``lo`` and an infeasible ``hi`` until ``hi - lo <= tol_watts``, or until the
    bracket no longer splits in floating point, and return ``lo`` with its trace.
    A probe keeps only its trace's two SOA corners; the accepted ``lo`` is
    stepped once more, with rows, for the trace that is returned.

    Probes are placed on the normalised SOA margin g(P) = min_c m_c(P) /
    m_c(0), which is close to linear in P whichever constraint binds. The
    search remembers its last three probes with a margin (the zero-power and
    top probes seed them; a probe that hits a power ceiling has none and
    clears them). Each probe goes where the first of these lands strictly
    inside the bracket: inverse quadratic interpolation through the three
    (Brent 1973, ch. 4), the secant through the last two, the midpoint. A
    probe bisects outright when the infeasible end has no usable margin (it
    hit a power ceiling, or only an opposite-direction bound failed there), or
    when the last two probes did not halve the bracket; of any three probes
    one therefore halves it, which caps the count at about three times plain
    bisection's. An interpolated probe keeps tol/2 clear of both ends, so an
    estimate within tol/2 of the root closes the bracket on the next probe.

    The same g names ``dominant``: the bound with the smallest share of its
    zero-power margin left at ``lo`` (ties: voltage, then soc, then current).
    """
    check_load(params, soa)
    if not (tol_watts > 0.0 and math.isfinite(tol_watts)):
        raise ValueError(f"tol_watts must be finite and > 0, got {tol_watts}")

    lookup = ecm.ocv_cursor(curve)
    v_oc = lookup(state.soc)
    zero_ok, zero_margins = _cp_probe(0.0, state, params, lookup, window, direction, soa, v_oc)
    if not zero_ok:
        return _no_power(state, v_oc)
    # A bound already reached at zero power has no scale; its native units serve.
    scales = tuple(m if m > 0.0 else 1.0 for m in zero_margins)

    r0, sign = params.r0, direction.sign
    # Step one's emf: the zero-power trace's first vt, with no ohmic drop. That
    # trace is in the box (hence abs), so emf is above vt_min > 0.
    emf = v_oc - state.vp * math.exp(-window.dt / params.tau)
    i_top = min(abs(direction.current_limit(soa)), abs(emf - direction.vt_cutoff(soa)) / r0)
    if direction is Direction.DISCHARGE:
        i_top = min(i_top, emf / (2.0 * r0))
    top = i_top * (emf - sign * i_top * r0)
    top_ok, top_margins = _cp_probe(top, state, params, lookup, window, direction, soa, v_oc)

    g_zero, lo_bound = _normalised_margin(zero_margins, scales)
    g_hi, top_bound = _normalised_margin(top_margins, scales)
    lo, hi = 0.0, top
    if top_ok:  # |power| rises with |current| to i_top: top is the peak
        lo, lo_bound = top, top_bound
    # The last three probes with a margin, oldest first: (P, g(P)).
    points = [(0.0, g_zero)]
    if g_hi is not None:
        points.append((top, g_hi))
    half_tol = 0.5 * tol_watts
    widths = (math.inf, math.inf)  # bracket width before each of the last two probes
    while hi - lo > tol_watts:
        width = hi - lo
        p = None
        if g_hi is not None and g_hi < 0.0 and width <= 0.5 * widths[0]:
            p = _cp_estimate(points, lo, hi)
        if p is not None:
            p = min(max(p, lo + half_tol), hi - half_tol)
        if p is None or not lo < p < hi:
            p = 0.5 * (lo + hi)
        if not lo < p < hi:  # the bracket no longer splits in floating point
            break
        widths = (widths[1], width)
        ok, margins = _cp_probe(p, state, params, lookup, window, direction, soa, v_oc)
        g, bound = _normalised_margin(margins, scales)
        if g is None:  # a power ceiling: nothing to interpolate through
            points.clear()
        else:
            points.append((p, g))
            del points[:-3]
        if ok:
            lo, lo_bound = p, bound
        else:
            hi, g_hi = p, g

    # The probes kept no rows: step the accepted power once more to return its trace.
    rows: list[PomStep] = []
    _trace(state, params, lookup, window, _cp_drive(lo * sign, r0), v_oc, rows)
    lo_trace = tuple(rows)
    binding_current = lo_trace[-1].current if direction is Direction.DISCHARGE else lo_trace[0].current
    result = sop_result(binding_current, lo_bound, lo_trace[-1].vt, lo * sign)
    return result, PomTrace(lo_trace)
