"""Error calculus for constant-current peak-power estimation.

Five error sources (SOC, relaxed polarization voltage, lumped resistance,
OCV window slope, and the capacity/efficiency composite x = eta/(3600*C_a))
are each propagated through the three constraint closed forms, twice over:

* ``analytic_error`` evaluates the closed-form error expressions directly;
* ``empirical_error`` runs ``peak_cc``'s closed forms twice -- once with true
  inputs, once with the one corrupted input -- and differences the outputs.

Conventions, applied uniformly: every error is "true minus estimated"
(delta_sop = sop - sop_hat), and the estimator consumes the biased quantity
``true - delta``. One source is corrupted at a time; all others stay exact.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from . import ecm, peak_cc
from .ecm import BatteryParams, BatteryState, OcvCurve, Window
from .exceptions import AnalyticDomainError
from .peak_cc import Direction, WindowTerms
from .soa import Soa

CONSTRAINTS = ("current", "voltage", "soc")


class ErrorSource(enum.Enum):
    SOC = "soc"
    VP_RELAX = "vp_relax"
    R_SUM = "r_sum"
    KAPPA = "kappa"
    X = "x"


class ErrorBreakdown(NamedTuple):
    """Peak-current, end-voltage, and power errors for one (source, constraint)
    cell. ``coefficients`` carries the (a, b) pair of the SOC-error parabola or
    the (alpha, beta) pair of the capacity-composite form, where one exists."""

    delta_i: float
    delta_vt: float
    delta_sop: float
    coefficients: tuple[float, float] | None = None


class TrueContext(NamedTuple):
    """Unbiased quantities every error formula consumes, precomputed once."""

    curve: OcvCurve
    terms: WindowTerms  # true-valued closed-form inputs, slope included
    x: float  # eta / (3600 * C_a)
    k_dt: float  # K * dt


def build_true_context(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    direction: Direction,
    soa: Soa,
) -> TrueContext:
    """Assemble the true context: ``sop_cc``'s own window terms, its two-pass
    window slope included."""
    return TrueContext(
        curve=curve,
        terms=peak_cc.window_terms(state, params, curve, window, direction, soa),
        x=params.soc_per_amp_second,
        k_dt=window.duration,
    )


def _corrupt(ctx: TrueContext, source: ErrorSource, delta: float) -> WindowTerms:
    """Estimator-side terms with one quantity biased to (true - delta)."""
    t = ctx.terms
    if source is ErrorSource.SOC:
        soc_hat = t.soc - delta
        return t._replace(soc=soc_hat, f_soc=ecm.ocv(ctx.curve, soc_hat))
    if source is ErrorSource.VP_RELAX:
        return t._replace(vp_relax=t.vp_relax - delta)
    if source is ErrorSource.R_SUM:
        return t._replace(r_sum=t.r_sum - delta)
    if source is ErrorSource.KAPPA:
        return t._replace(kappa=t.kappa - delta)
    if source is ErrorSource.X:
        return t._replace(y=ctx.k_dt * (ctx.x - delta))
    raise AssertionError(f"unhandled source {source}")


def _estimate(constraint: str, terms: WindowTerms) -> tuple[float, float, float]:
    """The shipped closed forms for one constraint, before the direction
    clamp: (peak current, end voltage, sop).

    Under the voltage constraint the end voltage reduces to the cut-off
    identically, which is therefore assigned rather than recomputed.
    """
    if constraint == "current":
        current = terms.i_lim
        vt = peak_cc.end_voltage(terms, current)
    elif constraint == "voltage":
        current = peak_cc.cutoff_current(terms)
        vt = terms.cutoff
    else:  # "soc": both callers check the constraint first
        current = peak_cc.soc_bound_current(terms)
        vt = peak_cc.end_voltage(terms, current)
    return current, vt, current * vt


def _check_constraint(constraint: str) -> None:
    if constraint not in CONSTRAINTS:
        raise ValueError(f"constraint must be one of {CONSTRAINTS}, got {constraint!r}")


def empirical_error(
    source: ErrorSource, delta: float, ctx: TrueContext, constraint: str
) -> ErrorBreakdown:
    """Paired estimator runs: true inputs versus one corrupted input.

    Differences the per-constraint peak current, end-of-window voltage, and
    power as (true - estimated).
    """
    _check_constraint(constraint)
    i_true, vt_true, sop_true = _estimate(constraint, ctx.terms)
    i_hat, vt_hat, sop_hat = _estimate(constraint, _corrupt(ctx, source, delta))
    return ErrorBreakdown(
        delta_i=i_true - i_hat,
        delta_vt=vt_true - vt_hat,
        delta_sop=sop_true - sop_hat,
    )


def analytic_error(
    source: ErrorSource, delta: float, ctx: TrueContext, constraint: str
) -> ErrorBreakdown:
    """Closed-form error for one (source, constraint) cell.

    Structural zeros are returned as exact zeros: the current-constraint peak
    current never moves, the voltage-constraint end voltage is pinned, and the
    SOC-constraint current ignores the polarization, resistance, and slope
    sources. A cell whose inputs carry it past the floats (any figure not
    finite) raises AnalyticDomainError, as one outside the closed form's
    domain does.
    """
    _check_constraint(constraint)
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    cell = _analytic_cell(source, delta, ctx, constraint)
    if not all(map(math.isfinite, (*cell[:3], *(cell.coefficients or ())))):
        raise AnalyticDomainError(f"{source.value} error under the {constraint} constraint: {cell}")
    return cell


def _analytic_cell(
    source: ErrorSource, delta: float, ctx: TrueContext, constraint: str
) -> ErrorBreakdown:
    """The closed-form error expressions behind ``analytic_error``. Each
    divides by its factors one at a time, never by their product, which can
    underflow to 0."""
    t = ctx.terms
    kappa, y, r_sum, k_dt, x = t.kappa, t.y, t.r_sum, ctx.k_dt, ctx.x
    denom = kappa * y + r_sum  # voltage-constraint denominator, true-valued
    c_soc = t.soc - t.soc_bound
    i_cc = t.i_lim

    if constraint == "current":
        if source is ErrorSource.SOC:
            dvt = kappa * delta
        elif source is ErrorSource.VP_RELAX:
            dvt = -delta
        elif source is ErrorSource.R_SUM:
            dvt = -i_cc * delta
        elif source is ErrorSource.KAPPA:
            dvt = -i_cc * y * delta
        else:  # X
            dvt = -i_cc * k_dt * kappa * delta
        return ErrorBreakdown(delta_i=0.0, delta_vt=dvt, delta_sop=i_cc * dvt)

    if constraint == "voltage":
        if source is ErrorSource.SOC:
            di = kappa * delta / denom
        elif source is ErrorSource.VP_RELAX:
            di = -delta / denom
        else:
            # Denominator-shifting sources: the estimator's denominator must
            # stay positive for the closed form to hold.
            if source is ErrorSource.R_SUM:
                shift = delta
            elif source is ErrorSource.KAPPA:
                shift = y * delta
            else:  # X
                shift = k_dt * kappa * delta
            denom_hat = denom - shift
            if not (denom_hat > 0.0):
                raise AnalyticDomainError(
                    f"perturbed voltage-constraint denominator {denom_hat} <= 0"
                )
            di = -peak_cc.cutoff_current(t) * shift / denom_hat
        return ErrorBreakdown(delta_i=di, delta_vt=0.0, delta_sop=t.cutoff * di)

    # soc constraint
    i_soc = peak_cc.soc_bound_current(t)
    a_emf = t.f_soc - kappa * c_soc - t.vp_relax  # end EMF less relaxation
    if source is ErrorSource.SOC:
        a_coef = r_sum / y / y
        b_coef = a_emf / y - 2.0 * c_soc * r_sum / y / y
        di = delta / y
        return ErrorBreakdown(
            delta_i=di,
            delta_vt=-di * r_sum,
            delta_sop=a_coef * delta * delta + b_coef * delta,
            coefficients=(a_coef, b_coef),
        )
    if source is ErrorSource.VP_RELAX:
        return ErrorBreakdown(delta_i=0.0, delta_vt=-delta, delta_sop=-i_soc * delta)
    if source is ErrorSource.R_SUM:
        return ErrorBreakdown(
            delta_i=0.0, delta_vt=-i_soc * delta, delta_sop=-i_soc * i_soc * delta
        )
    if source is ErrorSource.KAPPA:
        return ErrorBreakdown(
            delta_i=0.0, delta_vt=-c_soc * delta, delta_sop=-c_soc * c_soc * delta / y
        )
    # X under the soc constraint
    x_hat = x - delta
    if not (x_hat > 0.0):
        raise AnalyticDomainError(f"perturbed capacity composite {x_hat} <= 0")
    alpha = -c_soc * a_emf / k_dt
    c_rate = c_soc / k_dt
    beta = c_rate * c_rate * r_sum
    di = -c_rate * delta / x / x_hat
    dsop = (alpha * delta + beta * (2.0 * x * delta - delta * delta) / x / x_hat) / x / x_hat
    return ErrorBreakdown(
        delta_i=di,
        delta_vt=-di * r_sum,
        delta_sop=dsop,
        coefficients=(alpha, beta),
    )


class SweepRow(NamedTuple):
    delta: float
    analytic_dsop: float
    empirical_dsop: float
    residual: float
    in_domain: bool


def sweep(
    source: ErrorSource, delta_grid: list[float], ctx: TrueContext, constraint: str
) -> list[SweepRow]:
    """Analytic-versus-empirical power-error table over a delta grid.

    Deltas outside the analytic domain, and rows with a figure that is not
    finite, produce flagged NaN rows instead of aborting the sweep.
    """
    if not delta_grid:
        raise ValueError("delta grid must not be empty")
    rows: list[SweepRow] = []
    for delta in delta_grid:
        try:
            ana = analytic_error(source, delta, ctx, constraint).delta_sop
            emp = empirical_error(source, delta, ctx, constraint).delta_sop
        except AnalyticDomainError:
            ana = emp = math.nan
        residual = ana - emp  # not finite when either figure is not
        if math.isfinite(residual):
            rows.append(SweepRow(delta, ana, emp, residual, True))
        else:
            rows.append(SweepRow(delta, math.nan, math.nan, math.nan, False))
    return rows
