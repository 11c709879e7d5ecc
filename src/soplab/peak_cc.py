"""Closed-form peak power under a constant-current window.

Per-constraint peak currents (manufacturer current limit, terminal-voltage
cut-off, SOC bound), composed into the multi-constraint peak as the
minimum-magnitude current, with the deliverable power evaluated at the
end-of-window terminal voltage.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from . import ecm
from .ecm import BatteryParams, BatteryState, OcvCurve, Window
from .exceptions import AnalyticDomainError
from .soa import Soa, check_load

class Direction(enum.Enum):
    DISCHARGE = "discharge"
    CHARGE = "charge"

    @property
    def sign(self) -> int:
        return 1 if self is Direction.DISCHARGE else -1

    def current_limit(self, soa: Soa) -> float:
        return soa.i_max_dis if self is Direction.DISCHARGE else soa.i_max_chg

    def vt_cutoff(self, soa: Soa) -> float:
        return soa.vt_min if self is Direction.DISCHARGE else soa.vt_max

    def soc_bound(self, soa: Soa) -> float:
        return soa.soc_min if self is Direction.DISCHARGE else soa.soc_max


class SopResult(NamedTuple):
    """Peak-power estimate with per-constraint diagnostics.

    The per-constraint currents are populated by the constant-current closed
    forms; stepwise mode engines leave them as None. A constraint that cannot
    bind (the SOC bound of a window whose SOC throughput underflows to 0)
    reports an infinite current toward the direction. ``sop`` is the magnitude
    of ``power_signed``; ``feasible`` is False when no nonzero current can be
    sustained.
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
    power_eval: str = "end_of_window",
) -> SopResult:
    """Multi-constraint peak power for a constant-current window, composed at
    ``window_terms``'s window OCV slope.

    ``power_eval`` selects how the deliverable power is reported:
    "end_of_window" multiplies the peak current by the last-step voltage;
    "min_over_window" takes the smallest per-step power magnitude along the
    simulated window, which moves the binding step to the front for a charge.
    An end voltage or a reported power past the floats raises
    AnalyticDomainError.
    """
    check_load(params, soa)
    if power_eval not in ("end_of_window", "min_over_window"):
        raise ValueError(f"unknown power_eval mode: {power_eval!r}")

    terms = window_terms(state, params, curve, window, direction, soa)
    i_voltage, i_soc, i_mc, dominant = _peak(terms, direction)

    vt_end = end_voltage(terms, i_mc)
    power_signed = i_mc * vt_end
    sop = abs(power_signed)

    if power_eval == "min_over_window":
        sim_state, powers = state, []
        for _ in range(window.steps):
            sim_state, vt = ecm.step(sim_state, params, curve, i_mc, window.dt)
            powers.append(i_mc * vt)
        power_signed = min(powers, key=abs)  # first smallest magnitude
        sop = abs(power_signed)
    if not (math.isfinite(vt_end) and math.isfinite(power_signed)):
        raise AnalyticDomainError(f"end voltage {vt_end} V or power {power_signed} W not finite")

    return SopResult(
        i_current_limit=terms.i_lim,
        i_voltage_limit=i_voltage,
        i_soc_limit=i_soc,
        i_mc=i_mc,
        dominant=dominant,
        vt_end=vt_end,
        power_signed=power_signed,
        sop=sop,
        feasible=i_mc != 0.0,
    )
