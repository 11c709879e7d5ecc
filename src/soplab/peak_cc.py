"""Closed-form peak power under a constant-current window.

Per-constraint peak currents (manufacturer current limit, terminal-voltage
cut-off, SOC bound), composed into the multi-constraint peak as the
minimum-magnitude current, with the deliverable power evaluated at the
end-of-window terminal voltage.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import ecm
from .ecm import BatteryParams, BatteryState, OcvCurve, Window
from .exceptions import AnalyticDomainError
from .soa import Direction, Soa, check_load

# Secant ends closer than this fall back to the start segment's slope.
SLOPE_SECANT_EPS = 1e-6


class SopResult(NamedTuple):
    """Peak-power estimate with per-constraint diagnostics, built by
    ``sop_result`` for every engine.

    The per-constraint currents are populated by the constant-current closed
    forms; stepwise mode engines leave them as None. A constraint that cannot
    bind (the SOC bound of a window whose SOC throughput underflows to 0)
    reports an infinite current toward the direction. ``sop`` is the magnitude
    of ``power_signed``, and one rule holds for every engine: ``feasible`` is
    ``sop > 0``. A window whose power rounds to 0 delivers none.
    """

    i_current_limit: float | None
    i_voltage_limit: float | None
    i_soc_limit: float | None
    i_mc: float
    dominant: str
    vt_end: float
    power_signed: float
    sop: float
    feasible: bool


def sop_result(
    i_mc: float,
    dominant: str,
    vt_end: float,
    power_signed: float,
    limits: tuple[float | None, float | None, float | None] = (None, None, None),
) -> SopResult:
    """The one way to build a SopResult: ``limits`` are the per-constraint
    currents (current, voltage, SOC), ``sop`` is ``abs(power_signed)``, and the
    window is feasible iff ``sop > 0``."""
    sop = abs(power_signed)
    # tuple.__new__, not SopResult(...): NamedTuple's __new__ adds a Python frame.
    return tuple.__new__(SopResult, limits + (i_mc, dominant, vt_end, power_signed, sop, sop > 0.0))


class WindowTerms(NamedTuple):
    """Window quantities the constant-current closed forms read: OCV at the
    start SOC, decayed polarization, R0 + R1*(1-exp(-K*dt/tau)), the window
    OCV slope and the SOC throughput per ampere y = K*dt*eta/(3600*C_a)."""

    soc: float
    f_soc: float
    vp_relax: float
    r_sum: float
    kappa: float
    y: float
    cutoff: float
    soc_bound: float
    i_lim: float


def window_terms(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    direction: Direction,
    soa: Soa,
) -> WindowTerms:
    """True-valued window terms for one state, window and direction.

    The start OCV and the slope of the table segment at the start SOC come
    from one table search (``ecm._seek``; ``ecm._segment`` only at or past
    a table end, where ``_seek`` clamps without a segment). The window OCV
    slope is settled in two passes: that segment's slope seeds the candidate
    peak current, then the secant to the SOC that candidate would reach
    replaces it, unless the two SOCs lie within ``SLOPE_SECANT_EPS`` (the
    slope is held constant across the window)."""
    soc = state.soc
    k_dt = window.duration
    alpha_k = math.exp(-k_dt / params.tau)
    f_soc, segment = ecm._seek(curve, soc)
    vp_relax = state.vp * alpha_k
    r_sum = params.r0 + params.r1 * (1.0 - alpha_k)
    if segment is not None:
        kappa = segment[4] / segment[5]  # rise / run
    else:  # at or past a table end: _seek clamped without a search
        (x0, v0), (x1, v1) = ecm._segment(curve, soc)
        kappa = (v1 - v0) / (x1 - x0)
    y = k_dt * params.soc_per_amp_second
    cutoff = direction.vt_cutoff(soa)
    soc_bound = direction.soc_bound(soa)
    i_lim = direction.current_limit(soa)
    # tuple.__new__, not WindowTerms(...): NamedTuple's __new__ adds a Python frame.
    first = tuple.__new__(
        WindowTerms, (soc, f_soc, vp_relax, r_sum, kappa, y, cutoff, soc_bound, i_lim)
    )
    soc_reach = soc - _peak(first, direction)[2] * k_dt * params.soc_per_amp_second
    # min(max(soc_reach, 0.0), 1.0) by comparisons, which keep -0.0 and NaN as
    # those builtins do.
    if soc_reach < 0.0:
        soc_reach = 0.0
    elif soc_reach > 1.0:
        soc_reach = 1.0
    if abs(soc - soc_reach) > SLOPE_SECANT_EPS:
        kappa = (ecm.ocv(curve, soc_reach) - f_soc) / (soc_reach - soc)
    return tuple.__new__(
        WindowTerms, (soc, f_soc, vp_relax, r_sum, kappa, y, cutoff, soc_bound, i_lim)
    )


def end_voltage(terms: WindowTerms, current: float) -> float:
    """End-of-window terminal voltage under a constant current, OCV
    linearized at ``terms.kappa``."""
    t = terms
    return t.f_soc - t.vp_relax - current * (t.kappa * t.y + t.r_sum)


def cutoff_current(terms: WindowTerms) -> float:
    """Constant current that lands the end-of-window voltage on the cut-off."""
    t = terms
    denom = t.kappa * t.y + t.r_sum
    if not (denom > 0.0):
        raise AnalyticDomainError(f"voltage-constraint denominator must be > 0, got {denom}")
    return (t.f_soc - t.vp_relax - t.cutoff) / denom


def soc_bound_current(terms: WindowTerms) -> float:
    """Constant current that lands the end-of-window SOC on its bound."""
    if not (terms.y > 0.0):
        raise AnalyticDomainError(f"soc-constraint denominator must be > 0, got {terms.y}")
    return (terms.soc - terms.soc_bound) / terms.y


def _peak(terms: WindowTerms, direction: Direction) -> tuple[float, float, float, str]:
    """The voltage- and SOC-constraint currents toward the direction, and
    their composition with the current limit into the minimum-magnitude
    current: (i_voltage, i_soc, i_mc, dominant). A tie in magnitude goes to
    the earlier label: voltage, then soc, then current. A constraint current
    against the direction is 0: the rested state already sits past that
    bound."""
    sign = direction.sign
    if terms.y > 0.0:
        i_soc = soc_bound_current(terms)
        if i_soc * sign < 0.0:
            i_soc = 0.0
    else:  # K*dt*soc_per_amp_second underflowed: no SOC moves, as in modes._sop_hold
        i_soc = math.inf * sign
    i_voltage = cutoff_current(terms)
    if i_voltage * sign < 0.0:
        i_voltage = 0.0
    # min(key=abs) by strict comparisons in label order: the same tie-breaks,
    # and a NaN magnitude never displaces the current pick, as with min.
    i_mc, dominant = i_voltage, "voltage"
    if abs(i_soc) < abs(i_mc):
        i_mc, dominant = i_soc, "soc"
    if abs(terms.i_lim) < abs(i_mc):
        i_mc, dominant = terms.i_lim, "current"
    return i_voltage, i_soc, i_mc, dominant


def sop_cc(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    direction: Direction,
    soa: Soa,
) -> SopResult:
    """Multi-constraint peak power for a constant-current window, composed at
    ``window_terms``'s window OCV slope.

    The deliverable power is the peak current times the end-of-window
    voltage, in closed form: no window is simulated, so the cost is the same
    at any K. An end voltage or a power past the floats raises
    AnalyticDomainError.
    """
    check_load(params, soa)
    terms = window_terms(state, params, curve, window, direction, soa)
    i_voltage, i_soc, i_mc, dominant = _peak(terms, direction)

    vt_end = end_voltage(terms, i_mc)
    power_signed = i_mc * vt_end
    if not (math.isfinite(vt_end) and math.isfinite(power_signed)):
        raise AnalyticDomainError(f"end voltage {vt_end} V or power {power_signed} W not finite")

    return sop_result(i_mc, dominant, vt_end, power_signed, (terms.i_lim, i_voltage, i_soc))
