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
    return SopResult(*limits, i_mc, dominant, vt_end, power_signed, sop, sop > 0.0)


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

    The window OCV slope is settled in two passes: the local segment slope
    seeds the candidate peak current, then the secant to the SOC that
    candidate would reach replaces it (the slope is held constant across the
    window)."""
    k_dt = window.duration
    alpha_k = math.exp(-k_dt / params.tau)
    terms = WindowTerms(
        soc=state.soc,
        f_soc=ecm.ocv(curve, state.soc),
        vp_relax=state.vp * alpha_k,
        r_sum=params.r0 + params.r1 * (1.0 - alpha_k),
        kappa=ecm.ocv_slope(curve, state.soc, state.soc),
        y=k_dt * params.soc_per_amp_second,
        cutoff=direction.vt_cutoff(soa),
        soc_bound=direction.soc_bound(soa),
        i_lim=direction.current_limit(soa),
    )
    i_mc = _peak(terms, direction)[2]
    soc_reach = min(max(state.soc - i_mc * k_dt * params.soc_per_amp_second, 0.0), 1.0)
    return terms._replace(kappa=ecm.ocv_slope(curve, state.soc, soc_reach))


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


def _toward(current: float, direction: Direction) -> float:
    """0 when the rested state already sits past the bound for the direction."""
    return 0.0 if current * direction.sign < 0.0 else current


def _peak(terms: WindowTerms, direction: Direction) -> tuple[float, float, float, str]:
    """The voltage- and SOC-constraint currents toward the direction, and
    their composition with the current limit into the minimum-magnitude
    current: (i_voltage, i_soc, i_mc, dominant). A tie in magnitude goes to
    the earlier label: voltage, then soc, then current."""
    if terms.y > 0.0:
        i_soc = _toward(soc_bound_current(terms), direction)
    else:  # K*dt*soc_per_amp_second underflowed: no SOC moves, as in modes._sop_hold
        i_soc = math.inf * direction.sign
    i_voltage = _toward(cutoff_current(terms), direction)
    i_mc, dominant = min(
        (i_voltage, "voltage"), (i_soc, "soc"), (terms.i_lim, "current"), key=lambda c: abs(c[0])
    )
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
