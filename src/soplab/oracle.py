"""Brute-force validators for the closed-form estimates.

Peak current and power are rediscovered by bisection over forward-simulated
feasibility, using only the single-step model and the safe-operation-area
checks. Nothing here calls the closed forms it is meant to validate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import ecm
from .ecm import BatteryParams, BatteryState, OcvCurve, Window
from .exceptions import InfeasibleStateError
from .peak_cc import Direction, SopResult
from .soa import Soa, check_point


class BrutePower(NamedTuple):
    watts: float
    saturated: bool  # bracket top itself was feasible


class ValidationRecord(NamedTuple):
    quantity: str  # "current" or "power"
    analytic: float
    brute: float
    residual: float
    tol: float
    passed: bool


def _cc_feasible(
    current: float,
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    soa: Soa,
) -> bool:
    sim = state
    for _ in range(window.steps):
        sim, vt, _ = ecm.step(sim, params, curve, current, window.dt)
        if check_point(vt, current, sim.soc, soa):
            return False
    return True


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
    inside the SOA, found by bisection on the current magnitude.

    Saturates exactly at the manufacturer limit when that limit is itself
    sustainable.
    """
    if not (tol_amps > 0.0 and math.isfinite(tol_amps)):
        raise ValueError(f"tol_amps must be finite and > 0, got {tol_amps}")
    rested_vt = ecm.ocv(curve, state.soc) - state.vp
    if check_point(rested_vt, 0.0, state.soc, soa):
        raise InfeasibleStateError("rested state lies outside the SOA")

    sign = direction.sign
    i_lim = abs(direction.current_limit(soa))
    # Cap the bracket with the instantaneous voltage headroom so the
    # bisection stays within a few dozen iterations.
    if direction is Direction.DISCHARGE:
        headroom = (ecm.ocv(curve, state.soc) - soa.vt_min + abs(state.vp)) / params.r0
    else:
        headroom = (soa.vt_max - ecm.ocv(curve, state.soc) + abs(state.vp)) / params.r0
    hi = min(i_lim, headroom + 1.0)

    if _cc_feasible(sign * hi, state, params, curve, window, soa):
        return sign * hi  # current bound saturates: the limit itself is the peak

    lo = 0.0
    while hi - lo > tol_amps:
        mid = 0.5 * (lo + hi)
        if _cc_feasible(sign * mid, state, params, curve, window, soa):
            lo = mid
        else:
            hi = mid
    return sign * lo


def _secant_cp_current(
    emf: float, r0: float, power: float, max_iter: int = 60
) -> float | None:
    """Physical-branch current with I*(emf - I*r0) = power, by secant
    iteration on the power residual. None when no root is reachable."""
    if power == 0.0:
        return 0.0
    if emf <= 0.0:
        return None

    def residual(i: float) -> float:
        return i * (emf - i * r0) - power

    i0 = power / emf
    denom = emf - i0 * r0
    if denom <= 0.0:
        return None
    i1 = power / denom
    f0, f1 = residual(i0), residual(i1)
    for _ in range(max_iter):
        if abs(f1) <= 1e-12 * max(1.0, abs(power)):
            # Reject the non-physical branch beyond the power vertex.
            if abs(i1) > abs(emf) / (2.0 * r0) * (1.0 + 1e-9):
                return None
            return i1
        if f1 == f0:
            return None
        i2 = i1 - f1 * (i1 - i0) / (f1 - f0)
        if not math.isfinite(i2) or abs(i2) > abs(emf / r0):
            return None
        i0, f0, i1, f1 = i1, f1, i2, residual(i2)
    return None


def _cp_feasible_trace(
    power_abs: float,
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    direction: Direction,
    soa: Soa,
) -> bool:
    alpha = math.exp(-window.dt / params.tau)
    power = power_abs * direction.sign
    soc, vp = state.soc, state.vp
    for _ in range(window.steps):
        vp_rel = vp * alpha
        emf = ecm.ocv(curve, soc) - vp_rel
        current = _secant_cp_current(emf, params.r0, power)
        if current is None:
            return False
        vt = emf - current * params.r0
        soc_next = min(max(soc - current * window.dt * params.soc_per_amp_second, 0.0), 1.0)
        if check_point(vt, current, soc_next, soa):
            return False
        vp = vp_rel + current * params.r1 * (1.0 - alpha)
        soc = soc_next
    return True


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
    recovered by secant iteration instead of the closed-form quadratic."""
    if not (tol_watts > 0.0 and math.isfinite(tol_watts)):
        raise ValueError(f"tol_watts must be finite and > 0, got {tol_watts}")
    if not _cp_feasible_trace(0.0, state, params, curve, window, direction, soa):
        raise InfeasibleStateError("rested state lies outside the SOA")

    if p_hi is None:
        i_lim = abs(direction.current_limit(soa))
        if direction is Direction.DISCHARGE:
            p_hi = i_lim * ecm.ocv(curve, state.soc)
        else:
            p_hi = i_lim * soa.vt_max
    if _cp_feasible_trace(p_hi, state, params, curve, window, direction, soa):
        return BrutePower(p_hi, saturated=True)

    lo, hi = 0.0, p_hi
    while hi - lo > tol_watts:
        mid = 0.5 * (lo + hi)
        if _cp_feasible_trace(mid, state, params, curve, window, direction, soa):
            lo = mid
        else:
            hi = mid
    return BrutePower(lo, saturated=False)


def compare_report(
    analytic: SopResult, brute: float, tol: float, quantity: str = "current"
) -> ValidationRecord:
    """Pass/fail record for one analytic-vs-brute comparison.

    ``quantity`` selects which analytic figure is compared: the
    multi-constraint peak current or the peak power magnitude. The check is
    inclusive: a residual exactly at ``tol`` passes.
    """
    if quantity == "current":
        value = analytic.i_mc
    elif quantity == "power":
        value = analytic.sop
    else:
        raise ValueError(f"unknown quantity: {quantity!r}")
    residual = value - brute
    return ValidationRecord(quantity, value, brute, residual, tol, abs(residual) <= tol)
