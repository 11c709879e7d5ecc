"""Error-calculus tests: closed forms against paired estimator runs."""

import math

import numpy as np
import pytest

import soplab.error_lab as error_lab
from soplab import (
    AnalyticDomainError,
    BatteryParams,
    BatteryState,
    Direction,
    ErrorSource,
    Window,
    analytic_error,
    build_true_context,
    empirical_error,
    sop_cc,
    sweep,
)
from support import NMC_CURVE

DIS = Direction.DISCHARGE
CHG = Direction.CHARGE
CONSTRAINTS = ("current", "voltage", "soc")

# Sources whose peak current is structurally untouched by the soc constraint.
SOC_CONSTRAINT_ZERO_DI = (ErrorSource.VP_RELAX, ErrorSource.R_SUM, ErrorSource.KAPPA)


@pytest.fixture
def ctx(params, linear_curve, soa):
    # Nonzero initial polarization so every source has a nonzero nominal value.
    state = BatteryState(soc=0.5, vp=0.05)
    return build_true_context(state, params, linear_curve, Window(10, 1.0), DIS, soa)


def _nominal(ctx, source):
    return {
        ErrorSource.SOC: ctx.terms.soc,
        ErrorSource.VP_RELAX: ctx.terms.vp_relax,
        ErrorSource.R_SUM: ctx.terms.r_sum,
        ErrorSource.KAPPA: ctx.terms.kappa,
        ErrorSource.X: ctx.x,
    }[source]


def _delta_grid(ctx, source, n=9):
    span = 0.2 * abs(_nominal(ctx, source))
    return [(-span + 2.0 * span * i / (n - 1)) for i in range(n)]


class TestAnalyticExamples:
    def test_soc_error_under_current_constraint(self, ctx):
        # delta_sop = kappa * I_lim * delta = 1.2 * 10 * 0.05
        breakdown = analytic_error(ErrorSource.SOC, 0.05, ctx, "current")
        assert breakdown.delta_i == 0.0
        assert breakdown.delta_sop == pytest.approx(0.6, abs=1e-12)
        empirical = empirical_error(ErrorSource.SOC, 0.05, ctx, "current")
        assert breakdown.delta_sop == pytest.approx(empirical.delta_sop, abs=1e-9)

    def test_zero_delta_all_zero(self, ctx):
        for source in ErrorSource:
            for constraint in CONSTRAINTS:
                a = analytic_error(source, 0.0, ctx, constraint)
                e = empirical_error(source, 0.0, ctx, constraint)
                assert (a.delta_i, a.delta_vt, a.delta_sop) == (0.0, 0.0, 0.0)
                assert (e.delta_i, e.delta_vt, e.delta_sop) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("direction", [DIS, CHG])
    @pytest.mark.parametrize("curve_name", ["linear_curve", "knee_curve", "nmc"])
    def test_zero_delta_runs_the_shipped_estimator(
        self, request, params, soa, curve_name, direction
    ):
        # The true context is sop_cc's own window terms, two-pass slope
        # included: its true-side run yields sop_cc's per-constraint
        # currents, bit for bit, wherever sop_cc's direction clamp leaves
        # them unchanged.
        curve = NMC_CURVE if curve_name == "nmc" else request.getfixturevalue(curve_name)
        clamped = unclamped = 0
        for soc in (0.05, 0.3, 0.5, 0.85, 0.95):
            for vp in (-0.3, 0.0, 0.3):
                for steps in (1, 10, 60):
                    state, window = BatteryState(soc, vp), Window(steps, 1.0)
                    result = sop_cc(state, params, curve, window, direction, soa)
                    ctx = build_true_context(state, params, curve, window, direction, soa)
                    for source in ErrorSource:
                        for constraint in CONSTRAINTS:
                            e = empirical_error(source, 0.0, ctx, constraint)
                            assert (e.delta_i, e.delta_vt, e.delta_sop) == (0.0, 0.0, 0.0)
                    for constraint, shipped in (
                        ("current", result.i_current_limit),
                        ("voltage", result.i_voltage_limit),
                        ("soc", result.i_soc_limit),
                    ):
                        current = error_lab._estimate(constraint, ctx.terms)[0]
                        if current * direction.sign < 0.0:
                            assert shipped == 0.0
                            clamped += 1
                        else:
                            assert current == shipped
                            unclamped += 1
        assert clamped and unclamped

    def test_soc_error_parabola_even_part(self, ctx):
        # The even part of the soc-constraint power error is a*delta^2 exactly.
        delta = 0.03
        plus = empirical_error(ErrorSource.SOC, delta, ctx, "soc")
        minus = empirical_error(ErrorSource.SOC, -delta, ctx, "soc")
        a_coef, b_coef = analytic_error(ErrorSource.SOC, delta, ctx, "soc").coefficients
        even = 0.5 * (plus.delta_sop + minus.delta_sop)
        odd = 0.5 * (plus.delta_sop - minus.delta_sop)
        assert even == pytest.approx(a_coef * delta * delta, rel=1e-9)
        assert odd == pytest.approx(b_coef * delta, rel=1e-9)


class TestAnalyticMatchesEmpirical:
    @pytest.mark.parametrize("source", list(ErrorSource))
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_cell_agreement(self, ctx, source, constraint):
        for delta in _delta_grid(ctx, source):
            a = analytic_error(source, delta, ctx, constraint)
            e = empirical_error(source, delta, ctx, constraint)
            assert abs(a.delta_i - e.delta_i) <= 1e-9
            assert abs(a.delta_vt - e.delta_vt) <= 1e-9
            assert abs(a.delta_sop - e.delta_sop) <= 1e-9


class TestStructuralZeros:
    @pytest.mark.parametrize("source", list(ErrorSource))
    def test_current_constraint_current_never_moves(self, ctx, source):
        delta = 0.1 * abs(_nominal(ctx, source))
        assert analytic_error(source, delta, ctx, "current").delta_i == 0.0
        assert empirical_error(source, delta, ctx, "current").delta_i == 0.0

    @pytest.mark.parametrize("source", list(ErrorSource))
    def test_voltage_constraint_voltage_pinned(self, ctx, source):
        delta = 0.1 * abs(_nominal(ctx, source))
        assert analytic_error(source, delta, ctx, "voltage").delta_vt == 0.0
        assert empirical_error(source, delta, ctx, "voltage").delta_vt == 0.0

    @pytest.mark.parametrize("source", SOC_CONSTRAINT_ZERO_DI)
    def test_soc_constraint_current_untouched(self, ctx, source):
        delta = 0.1 * abs(_nominal(ctx, source))
        assert analytic_error(source, delta, ctx, "soc").delta_i == 0.0
        assert empirical_error(source, delta, ctx, "soc").delta_i == 0.0


class TestShapes:
    def test_vp_relax_linear_under_voltage_constraint(self, ctx):
        one = analytic_error(ErrorSource.VP_RELAX, 0.004, ctx, "voltage").delta_sop
        two = analytic_error(ErrorSource.VP_RELAX, 0.008, ctx, "voltage").delta_sop
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_sign_coherence_discharge(self, ctx):
        # Positive soc error with positive slope and discharge current raises
        # the current-constraint power error.
        breakdown = analytic_error(ErrorSource.SOC, 0.02, ctx, "current")
        assert breakdown.delta_sop > 0.0

    def test_r_sum_current_error_continuous_through_zero(self, ctx):
        eps = 1e-9
        plus = analytic_error(ErrorSource.R_SUM, eps, ctx, "voltage").delta_i
        minus = analytic_error(ErrorSource.R_SUM, -eps, ctx, "voltage").delta_i
        assert abs(plus - minus) <= 1e-6
        assert plus * minus <= 0.0

    def test_kappa_voltage_sop_nonlinear(self, ctx):
        # Three-point collinearity fails: the slope error enters the
        # denominator, so the response bends.
        d = 0.2
        y0 = analytic_error(ErrorSource.KAPPA, -d, ctx, "voltage").delta_sop
        y1 = analytic_error(ErrorSource.KAPPA, 0.0, ctx, "voltage").delta_sop
        y2 = analytic_error(ErrorSource.KAPPA, d, ctx, "voltage").delta_sop
        assert abs((y0 + y2) - 2.0 * y1) > 1e-6

    def test_x_soc_coefficients_reported(self, ctx):
        breakdown = analytic_error(ErrorSource.X, 1e-5, ctx, "soc")
        assert breakdown.coefficients is not None
        alpha, beta = breakdown.coefficients
        assert alpha < 0.0  # discharge: losing capacity knowledge cuts power
        assert beta > 0.0


class TestDomainGuards:
    def test_r_sum_past_denominator_raises(self, ctx):
        denom = ctx.terms.kappa * ctx.terms.y + ctx.terms.r_sum
        with pytest.raises(AnalyticDomainError):
            analytic_error(ErrorSource.R_SUM, denom * 1.01, ctx, "voltage")
        with pytest.raises(AnalyticDomainError):
            empirical_error(ErrorSource.R_SUM, denom * 1.01, ctx, "voltage")

    def test_x_past_nominal_raises(self, ctx):
        with pytest.raises(AnalyticDomainError):
            analytic_error(ErrorSource.X, ctx.x * 1.5, ctx, "soc")
        with pytest.raises(AnalyticDomainError):
            empirical_error(ErrorSource.X, ctx.x * 1.5, ctx, "soc")

    def test_non_finite_delta_rejected(self, ctx):
        with pytest.raises(ValueError):
            analytic_error(ErrorSource.SOC, math.nan, ctx, "current")

    def test_soc_cells_past_the_floats_are_flagged(self, linear_curve, soa):
        # A 1e300 Ah cell: y ~ 3e-303 and x ~ 3e-304, so y * y and x * x
        # underflow to 0. Both cells used to divide by such a product and raise
        # ZeroDivisionError. The SOC cell's parabola coefficient now overflows,
        # which is out of domain; the X cell, divided factor by factor, stays
        # finite. The estimator's power overflows in both, so sweep flags them.
        params = BatteryParams(0.05, 0.03, 10.0, 1e300)
        ctx = build_true_context(BatteryState(0.5), params, linear_curve, Window(10, 1.0), DIS, soa)
        delta = {ErrorSource.SOC: 0.01, ErrorSource.X: -ctx.x / 2}
        with pytest.raises(AnalyticDomainError):
            analytic_error(ErrorSource.SOC, delta[ErrorSource.SOC], ctx, "soc")
        cell = analytic_error(ErrorSource.X, delta[ErrorSource.X], ctx, "soc")
        assert all(map(math.isfinite, (*cell[:3], *cell.coefficients)))
        for source, value in delta.items():
            rows = sweep(source, [value, 0.0], ctx, "soc")
            assert [row.in_domain for row in rows] == [False, False]

    def test_unknown_constraint_rejected(self, ctx):
        with pytest.raises(ValueError):
            analytic_error(ErrorSource.SOC, 0.01, ctx, "thermal")

    @pytest.mark.parametrize("entry", [analytic_error, empirical_error], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "source, delta",
        [
            ("soc", 1e-6),  # the enum's value, not a member
            (None, 1e-6),
            (ErrorSource.SOC, math.nan),
            (ErrorSource.SOC, math.inf),
            (ErrorSource.SOC, -math.inf),
        ],
        ids=["str", "none", "nan", "inf", "-inf"],
    )
    def test_bad_source_or_delta_rejected(
        self, params, linear_curve, soa, state_half, window_10, entry, source, delta
    ):
        # Neither entry point may answer for another source's cell, fail deep
        # inside the model, or return a finite breakdown for an infinite delta.
        ctx = build_true_context(state_half, params, linear_curve, window_10, DIS, soa)
        with pytest.raises(ValueError, match="source must be|delta must be"):
            entry(source, delta, ctx, "voltage")


class TestSweep:
    def test_zero_grid_single_zero_row(self, ctx):
        rows = sweep(ErrorSource.SOC, [0.0], ctx, "soc")
        assert len(rows) == 1
        assert rows[0].analytic_dsop == 0.0
        assert rows[0].empirical_dsop == 0.0
        assert rows[0].residual == 0.0
        assert rows[0].in_domain

    def test_symmetric_grid_recovers_parabola(self, ctx):
        grid = _delta_grid(ctx, ErrorSource.SOC, n=21)
        rows = sweep(ErrorSource.SOC, grid, ctx, "soc")
        assert all(abs(r.residual) <= 1e-9 for r in rows)
        a_coef, b_coef = analytic_error(ErrorSource.SOC, grid[0], ctx, "soc").coefficients
        fit = np.polyfit([r.delta for r in rows], [r.empirical_dsop for r in rows], 2)
        assert fit[0] == pytest.approx(a_coef, rel=1e-6)
        assert fit[1] == pytest.approx(b_coef, rel=1e-6)
        assert abs(fit[2]) <= 1e-9

    def test_out_of_domain_rows_flagged(self, ctx):
        rows = sweep(ErrorSource.X, [0.0, ctx.x * 1.5], ctx, "soc")
        assert rows[0].in_domain
        assert not rows[1].in_domain
        assert math.isnan(rows[1].analytic_dsop)

    def test_empty_grid_rejected(self, ctx):
        with pytest.raises(ValueError):
            sweep(ErrorSource.SOC, [], ctx, "soc")


def test_an_soc_bound_that_cannot_bind_has_no_power_error(params, linear_curve, soa):
    # The window's SOC throughput K*dt*soc_per_amp_second underflows to 0, so
    # the SOC bound cannot bind: sop_cc reports its current as infinite, and
    # every source's SOC-constraint cell is flagged, delta 0 included. The
    # current and voltage cells are finite, and 0 at delta 0.
    scenario = (BatteryState(0.5), params, linear_curve, Window(1, 5e-324), DIS, soa)
    assert sop_cc(*scenario).i_soc_limit == math.inf
    ctx = build_true_context(*scenario)
    for source in ErrorSource:
        for constraint in CONSTRAINTS:
            (row,) = sweep(source, [0.0], ctx, constraint)
            if constraint == "soc":
                assert not row.in_domain
                assert all(math.isnan(v) for v in row[1:4])
            else:
                assert row == (0.0, 0.0, 0.0, 0.0, True)
