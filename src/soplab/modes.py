"""Stepwise peak-operation-mode engines: CV, CC-CV, and CP windows.

Each engine returns the full per-step trace plus a SopResult whose ``sop`` is
the minimum per-step power magnitude across the window.

Every trace runs on ``ecm._window``, the window loop that the CP oracle
shares: entering step j the polarization voltage relaxes by one interval,
each mode's rule picks the step current against that relaxed state, and the
recorded terminal voltage carries that current's ohmic drop. A voltage hold
therefore pins the recorded voltage exactly, and a current cap leaves it
strictly inside the cut-off. Each engine seeks step one's OCV segment once
per window or CP solve (``ecm._seek``), hands it to the loop with its law,
and checks the SOA box at the two corners the loop returns: a window that
leaves the box delivers no power. The hold engines make their step-one
decision (the governing bound, the level) before the loop and hand it an
``ecm._Hold``; the CP engine hands it the constant power. A CP probe keeps
rows only when it would close the search's bracket by holding; ``sop_cp``
steps the accepted power once more, with rows, only when its probe kept none.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from . import ecm
from .ecm import BatteryParams, BatteryState, OcvCurve, PomStep, Window, _Hold
from .exceptions import AnalyticDomainError, PowerInfeasibleError
from .peak_cc import SopResult, sop_result
from .soa import Direction, Soa, check_load, check_point


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
    mode shift. A binding step that ends on the direction's SOC bound (its
    current is the SOC-headroom clip) is "soc"-governed instead, its mode
    shift kept. A trace that leaves the SOA box gives the zero result."""
    check_load(params, soa)
    r0 = params.r0
    i_lim, cutoff, sign = direction.current_limit(soa), direction.vt_cutoff(soa), direction.sign
    soc_bound = direction.soc_bound(soa)
    start = ecm._seek(curve, state.soc)
    v_oc = start[0]
    # Step one's decision, made on its emf as the trace's loop computes it.
    emf = v_oc - state.vp * math.exp(-window.dt / params.tau)
    vt_lim = emf - i_lim * r0
    level, first, governed = cutoff, (emf - cutoff) / r0, "voltage"
    if (cutoff - vt_lim) * sign <= 0.0:
        governed = "current"
        if cv:
            level, first = vt_lim, i_lim
    law = _Hold(level, first, i_lim, soc_bound, sign > 0)
    rows: list[PomStep] = []
    low, high, binding, k_c = ecm._window(state, params, curve, window, law, start, rows)
    if check_point(*low, soa) or check_point(*high, soa):
        return _no_power(state, v_oc)
    steps = tuple(rows)
    binding = steps[binding - 1]
    if cv or governed == "voltage":
        dominant, k_c = governed, None
    else:
        dominant = "current" if k_c is None else "dual"
    if binding.soc == soc_bound:
        dominant = "soc"
    result = sop_result(binding.current, dominant, steps[-1].vt, binding.power)
    return result, PomTrace(steps, mode_shift_index=k_c)


def _no_power(state: BatteryState, v_oc: float) -> tuple[SopResult, PomTrace]:
    """The result of a window with no SOA-compliant continuation: zero power at
    the rested terminal voltage (step one's OCV less vp), no trace. A
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

    ecm._window(state, params, curve, window, drive, ecm._seek(curve, state.soc))
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
    passes the step's relaxed state (``vp`` already decayed). Zero power
    draws no current, with the sign of that zero, whatever the emf. Raises
    PowerInfeasibleError where no current flows toward the power: above the
    step's power ceiling emf^2 / (4 R0), or where the root would flow against
    it (a discharge at emf < 0). Raises it too where 4*R0*P is not finite:
    the root's 2P / (emf + sqrt(disc)) then carries no power (0 or NaN). The
    engines never ask for such a power; their box bounds it. ``ecm._window`` steps
    a constant power by the same expressions, and the tests hold each trace
    to this step.
    """
    if power * direction.sign < 0.0:
        raise PowerInfeasibleError(
            f"power {power} has the wrong sign for {direction.value}"
        )
    r0 = params.r0
    if not math.isfinite(4.0 * r0 * power):
        raise PowerInfeasibleError(
            f"power {power} W is out of range: 4 * r0 * power is not finite"
        )
    emf = ecm.ocv(curve, state.soc) - state.vp
    if power == 0.0:
        return power, emf - power * r0
    disc = emf * emf - 4.0 * r0 * power
    if not disc >= 0.0:
        raise PowerInfeasibleError(
            f"power {power} W exceeds the step ceiling {emf * emf / (4.0 * r0)} W"
        )
    root = emf + math.sqrt(disc)
    if not root > 0.0:
        raise PowerInfeasibleError(
            f"power {power} W has no physical current at emf {emf} V: the root flows against it"
        )
    current = 2.0 * power / root
    return current, emf - current * r0


def _cp_probe(
    power_abs: float,
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    direction: Direction,
    soa: Soa,
    start: tuple[float, tuple[float, ...] | None],
    rows: list[PomStep] | None = None,
) -> tuple[bool, tuple[float, float, float] | None, float | None]:
    """Simulate a constant-|power| window to its last step; ``start`` is step
    one's OCV and segment, which every probe of one solve shares. The
    window's rows are appended to ``rows`` only when the caller passes a list.

    Returns whether every step lies inside the safe operation area, the
    window's smallest direction-signed margins, negative once crossed, to the
    voltage, soc and current bounds (that order breaks ties), and its peak
    |current|, signed; ``(False, None, None)`` when a step has no current
    toward the power: the window has no continuation there, as
    ``solve_cp_step`` refuses such a step.

    The SOA check is at ``ecm._window``'s two corners. The margins and the
    peak current come from the corner on the direction's side; rounding
    ``x - c`` is monotone in x, so each margin equals its per-step minimum bit
    for bit.
    """
    sign = direction.sign
    corners = ecm._window(state, params, curve, window, power_abs * sign, start, rows)
    if corners is None:
        return False, None, None
    low, high = corners
    vt, current, soc = low if sign > 0 else high
    margins = (
        (vt - direction.vt_cutoff(soa)) * sign,
        (soc - direction.soc_bound(soa)) * sign,
        (direction.current_limit(soa) - current) * sign,
    )
    return not (check_point(*low, soa) or check_point(*high, soa)), margins, current


def _normalised_margin(
    margins: tuple[float, ...] | None, scales: tuple[float, ...]
) -> tuple[float, str | None]:
    """g(P) = min_c m_c(P) / m_c(0), with the bound c that attains it first:
    g is 1 at zero power (0 if a bound is already reached there), 0 at the
    peak, negative once a directional bound fails. A window without margins
    (it hit a power ceiling) lies past the peak: (-1.0, None)."""
    if margins is None:
        return -1.0, None
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
    A probe keeps its trace's rows only when ``hi - P <= tol_watts``: if it
    holds, it closes the bracket, and its rows and its corner on the
    direction's side are the answer's. Otherwise it keeps only its two SOA
    corners, and the accepted ``lo`` is stepped once more, with rows, for the
    trace that is returned.

    Probes are placed on the normalised SOA margin g(P) = min_c m_c(P) /
    m_c(0), which is close to linear in P whichever constraint binds; a probe
    that hits a power ceiling lies past the peak and takes g = -1. The search
    remembers its last three probes (the zero-power and top probes seed
    them) and estimates the root by the first of these to land strictly
    inside the bracket: inverse quadratic interpolation through the three
    (Brent 1973, ch. 4), the secant through the last two. A probe goes to the
    estimate, kept tol/2 clear of both ends, so an estimate within tol/2 of
    the root closes the bracket on the next probe. Where a hold at the
    estimate would leave the next probe one-sided (see below), the probe aims
    past the estimate by a tenth of its distance from ``lo``, at least tol/2,
    so that an estimate just short of the root still brings ``hi`` down.
    Where the last two probes did not halve the bracket, the estimates
    converge from one side: the probe steps past the estimate by its
    distance from ``lo``, no further than the midpoint and no nearer ``lo``
    than ``hi`` less half the bracket of two probes before, so the bracket
    halves over these three probes whether it holds or not. A probe bisects
    when there is no estimate, or when the infeasible end has no usable
    margin (only an opposite-direction bound failed there). Of any three
    probes one therefore halves the bracket, which caps the count at about
    three times plain bisection's.

    The same g names ``dominant``: the bound with the smallest share of its
    zero-power margin left at ``lo`` (ties: voltage, then soc, then current).
    ``i_mc`` is the trace's peak |current|, read off its corner on the
    direction's side.
    """
    check_load(params, soa)
    if not (tol_watts > 0.0 and math.isfinite(tol_watts)):
        raise ValueError(f"tol_watts must be finite and > 0, got {tol_watts}")

    start = ecm._seek(curve, state.soc)
    v_oc = start[0]
    zero_ok, zero_margins, i_mc = _cp_probe(0.0, state, params, curve, window, direction, soa, start)
    if not zero_ok:
        return _no_power(state, v_oc)
    # A bound already reached at zero power has no scale; its native units serve.
    scales = tuple(m if m > 0.0 else 1.0 for m in zero_margins)

    r0, sign = params.r0, direction.sign
    # Step one's emf: the zero-power trace's first vt, with no ohmic drop. That
    # trace is in the box (hence abs), so emf is above vt_min > 0.
    emf = v_oc - state.vp * math.exp(-window.dt / params.tau)
    i_top = min(abs(direction.current_limit(soa)), abs(emf - direction.vt_cutoff(soa)) / r0)
    if sign > 0:
        i_top = min(i_top, emf / (2.0 * r0))
    top = i_top * (emf - sign * i_top * r0)
    top_ok, top_margins, top_peak = _cp_probe(top, state, params, curve, window, direction, soa, start)

    g_zero, lo_bound = _normalised_margin(zero_margins, scales)
    g_hi, top_bound = _normalised_margin(top_margins, scales)
    lo, hi = 0.0, top
    if top_ok:  # |power| rises with |current| to i_top: top is the peak
        lo, lo_bound, i_mc = top, top_bound, top_peak
    # The last three probes, oldest first: (P, g(P)).
    points = [(0.0, g_zero), (top, g_hi)]
    half_tol = 0.5 * tol_watts
    widths = (math.inf, math.inf)  # bracket width before each of the last two probes
    rows = None  # the accepted probe's rows, when it stepped them
    while hi - lo > tol_watts:
        width = hi - lo
        p = _cp_estimate(points, lo, hi) if g_hi < 0.0 else None
        if p is not None:
            if width <= 0.5 * widths[0]:
                if hi - p > 0.5 * widths[1]:  # a hold at p would leave the next probe one-sided
                    p += max(half_tol, 0.1 * (p - lo))
                p = min(max(p, lo + half_tol), hi - half_tol)
            else:  # one-sided: step past, halving the bracket whether p holds or not
                p = min(max(p + (p - lo), hi - 0.5 * widths[0]), 0.5 * (lo + hi))
        if p is None or not lo < p < hi:
            p = 0.5 * (lo + hi)
        if not lo < p < hi:  # the bracket no longer splits in floating point
            break
        widths = (widths[1], width)
        # Rows only for a probe that closes the bracket if it holds: then they
        # are the answer's.
        kept = [] if hi - p <= tol_watts else None
        ok, margins, peak = _cp_probe(p, state, params, curve, window, direction, soa, start, kept)
        g, bound = _normalised_margin(margins, scales)
        points.append((p, g))
        del points[:-3]
        if ok:
            lo, lo_bound, i_mc, rows = p, bound, peak, kept
        else:
            hi, g_hi = p, g

    if rows is None:  # the accepted probe kept no rows: step its power once more
        rows = []
        ecm._window(state, params, curve, window, lo * sign, start, rows)
    result = sop_result(i_mc, lo_bound, rows[-1].vt, lo * sign)
    return result, PomTrace(tuple(rows))
