"""Helpers shared by the engine tests: the fixed NMC-like OCV table (defined
in ``answer_shift``), a hypothesis strategy for random monotone ones, the
constant-current reference trace for the CC-CV engine, the hold engines'
step-callback reference, plain-bisection references for the oracles,
reference window loops for the oracles' own, and a builtins reference for
the constant-current composition."""

import math
from bisect import bisect_right

from hypothesis import strategies as st

import soplab.modes as modes
import soplab.peak_cc as peak_cc
from soplab import Direction, InfeasibleStateError, OcvCurve, check_point, ecm
from soplab.oracle import BrutePower, Probe, _box_slack, _cp_feasible, _newton_law
from soplab.soa import check_load

from answer_shift import NMC_CURVE  # noqa: F401  (re-exported for the tests)


@st.composite
def monotone_ocv(draw):
    """A random non-decreasing OCV table of 2-12 knots spanning SOC [0, 1]."""
    n = draw(st.integers(2, 12))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    rises = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1))
    v0 = draw(st.floats(3.0, 3.4))
    span = draw(st.floats(0.2, 0.9))
    socs, volts = [0.0], [0.0]
    for gap, rise in zip(gaps, rises):
        socs.append(socs[-1] + gap)
        volts.append(volts[-1] + rise)
    total_rise = volts[-1] or 1.0
    return OcvCurve(
        tuple((s / socs[-1], v0 + span * v / total_rise) for s, v in zip(socs, volts))
    )


def seeded_monotone_ocv(rng):
    """``monotone_ocv``'s table drawn from a ``random.Random``: the same
    knots, gaps, rises and voltage span, for a seeded, derandomized grid."""
    n = rng.randint(2, 12)
    socs, volts = [0.0], [0.0]
    for _ in range(n - 1):
        socs.append(socs[-1] + rng.uniform(0.05, 1.0))
        volts.append(volts[-1] + rng.uniform(0.0, 1.0))
    v0, span = rng.uniform(3.0, 3.4), rng.uniform(0.2, 0.9)
    total_rise = volts[-1] or 1.0
    return OcvCurve(
        tuple((s / socs[-1], v0 + span * v / total_rise) for s, v in zip(socs, volts))
    )


def constant_current_trace(state, params, curve, current, window):
    """Hold-style trace of a constant current on the engines' own step,
    ``ecm._window``: the CC window that a CC-CV window reproduces when its
    cut-off is never reached."""

    def drive(j, soc, emf):
        return current, emf - current * params.r0

    rows = []
    ecm._window(state, params, curve, window, drive, ecm._seek(curve, state.soc), rows)
    return modes.PomTrace(tuple(rows))


def reference_sop_hold(state, params, curve, window, direction, soa, cv):
    """``modes._sop_hold`` as it was written with its step law as a callback:
    the step-one decision made inside the step, on the step's own emf, and the
    binding row found by ``min(key=abs)``. The inline hold law must match it
    by repr: result, rows and mode shift."""
    check_load(params, soa)
    r0 = params.r0
    headroom_div = window.dt * params.soc_per_amp_second
    i_lim, bound = direction.current_limit(soa), direction.soc_bound(soa)
    sign = direction.sign
    discharge = direction is Direction.DISCHARGE
    unbounded = math.inf if discharge else -math.inf
    v_star, governed, k_c = direction.vt_cutoff(soa), None, None

    def drive(j, soc, emf):
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

    start = ecm._seek(curve, state.soc)
    rows = []
    low, high = ecm._window(state, params, curve, window, drive, start, rows)
    if check_point(*low, soa) or check_point(*high, soa):
        return modes._no_power(state, start[0])
    steps = tuple(rows)
    binding = min(steps, key=lambda row: abs(row.power))  # the first minimum binds
    if cv or governed == "voltage":
        dominant, k_c = governed, None
    else:
        dominant = "current" if k_c is None else "dual"
    if binding.soc == bound:  # the binding step ends on the SOC bound
        dominant = "soc"
    result = peak_cc.sop_result(binding.current, dominant, steps[-1].vt, binding.power)
    return result, modes.PomTrace(steps, mode_shift_index=k_c)


# The constant-current composition written with builtins: a keyword build of
# the window terms and ``_replace`` for the second-pass slope, the SOC reach
# clamped by ``min(max(...))`` and the peak composed by ``min(key=abs)``.
# ``peak_cc`` composes by comparisons; its ``window_terms`` and ``sop_cc`` must
# match these bit for bit, refusals included.


def _reference_toward(current, direction):
    return 0.0 if current * direction.sign < 0.0 else current


def reference_peak(terms, direction):
    """``peak_cc._peak`` composed by ``min(key=abs)``."""
    if terms.y > 0.0:
        i_soc = _reference_toward(peak_cc.soc_bound_current(terms), direction)
    else:  # K*dt*soc_per_amp_second underflowed: no SOC moves, as in modes._sop_hold
        i_soc = math.inf * direction.sign
    i_voltage = _reference_toward(peak_cc.cutoff_current(terms), direction)
    i_mc, dominant = min(
        (i_voltage, "voltage"), (i_soc, "soc"), (terms.i_lim, "current"), key=lambda c: abs(c[0])
    )
    return i_voltage, i_soc, i_mc, dominant


def reference_ocv_slope(curve, soc_a, soc_b):
    """The reference's own copy of the window slope rule: the secant when the
    two SOCs lie more than 1e-6 apart, otherwise the slope of the segment at
    ``soc_a`` (the right-hand one at a knot, the end one past the knots)."""
    if abs(soc_a - soc_b) > 1e-6:
        return (ecm.ocv(curve, soc_b) - ecm.ocv(curve, soc_a)) / (soc_b - soc_a)
    pts = curve.points
    i = min(max(bisect_right(curve.socs, soc_a), 1), len(pts) - 1)
    (x0, y0), (x1, y1) = pts[i - 1], pts[i]
    return (y1 - y0) / (x1 - x0)


def reference_window_terms(state, params, curve, window, direction, soa):
    """``peak_cc.window_terms`` built by keyword, then ``_replace``, over the
    slope rule above."""
    k_dt = window.duration
    alpha_k = math.exp(-k_dt / params.tau)
    terms = peak_cc.WindowTerms(
        soc=state.soc,
        f_soc=ecm.ocv(curve, state.soc),
        vp_relax=state.vp * alpha_k,
        r_sum=params.r0 + params.r1 * (1.0 - alpha_k),
        kappa=reference_ocv_slope(curve, state.soc, state.soc),
        y=k_dt * params.soc_per_amp_second,
        cutoff=direction.vt_cutoff(soa),
        soc_bound=direction.soc_bound(soa),
        i_lim=direction.current_limit(soa),
    )
    i_mc = reference_peak(terms, direction)[2]
    soc_reach = min(max(state.soc - i_mc * k_dt * params.soc_per_amp_second, 0.0), 1.0)
    return terms._replace(kappa=reference_ocv_slope(curve, state.soc, soc_reach))


def reference_sop_cc(state, params, curve, window, direction, soa):
    """``peak_cc.sop_cc`` over the two references above."""
    peak_cc.check_load(params, soa)
    terms = reference_window_terms(state, params, curve, window, direction, soa)
    i_voltage, i_soc, i_mc, dominant = reference_peak(terms, direction)

    vt_end = peak_cc.end_voltage(terms, i_mc)
    power_signed = i_mc * vt_end
    if not (math.isfinite(vt_end) and math.isfinite(power_signed)):
        raise peak_cc.AnalyticDomainError(
            f"end voltage {vt_end} V or power {power_signed} W not finite"
        )

    return peak_cc.sop_result(i_mc, dominant, vt_end, power_signed, (terms.i_lim, i_voltage, i_soc))


# Plain-bisection references: the oracles' loops before their probes were
# placed by ITP. The CC one simulates each window itself; the CP one takes its
# verdicts from the oracle's own trace, so that it checks the search alone.


def cc_window_probe(current, state, params, curve, window, soa):
    """A constant-current window run to its end through ``ecm.step``: whether
    every step lies inside the SOA, and the box-normalised slack of its
    extremes."""
    sim = state
    feasible = True
    vts, socs = [], []
    for _ in range(window.steps):
        sim, vt = ecm.step(sim, params, curve, current, window.dt)
        if check_point(vt, current, sim.soc, soa):
            feasible = False
        vts.append(vt)
        socs.append(sim.soc)
    slack = _box_slack((min(vts), current, min(socs)), (max(vts), current, max(socs)), soa)
    return Probe(feasible, slack)


def cc_window_feasible(current, state, params, curve, window, soa):
    """Every step of a constant-current window inside the SOA."""
    return cc_window_probe(current, state, params, curve, window, soa).feasible


def cp_window_probe(power_abs, state, params, curve, window, direction, soa):
    """The CP oracle's window loop as it was written with one ``ecm.ocv``
    bisection per step and the parameters read per step: the reference
    that its cursor and hoisted loop must match."""
    alpha = math.exp(-window.dt / params.tau)
    power = power_abs * direction.sign
    soc, vp = state.soc, state.vp
    feasible = True
    vt_lo = i_lo = soc_lo = math.inf
    vt_hi = i_hi = soc_hi = -math.inf
    for _ in range(window.steps):
        vp_rel = vp * alpha
        emf = ecm.ocv(curve, soc) - vp_rel
        step = _newton_law(params.r0, power)(1, math.nan, emf)
        if step is None:
            return Probe(False, None)
        current = step[0]
        vt = emf - current * params.r0
        soc_next = min(max(soc - current * window.dt * params.soc_per_amp_second, 0.0), 1.0)
        if check_point(vt, current, soc_next, soa):
            feasible = False
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
        vp = vp_rel + current * params.r1 * (1.0 - alpha)
        soc = soc_next
    return Probe(feasible, _box_slack((vt_lo, i_hi, soc_lo), (vt_hi, i_lo, soc_hi), soa))


def cp_window_feasible(power_abs, state, params, curve, window, direction, soa):
    """Every step of a constant-power window inside the SOA."""
    start = ecm._seek(curve, state.soc)
    return _cp_feasible(power_abs, state, params, curve, window, direction, soa, start).feasible


def bisect_peak_current_cc(state, params, curve, window, direction, soa, tol_amps):
    rested_vt = ecm.ocv(curve, state.soc) - state.vp
    if check_point(rested_vt, 0.0, state.soc, soa):
        raise InfeasibleStateError("rested state lies outside the SOA")
    sign = direction.sign
    i_lim = abs(direction.current_limit(soa))
    if direction is Direction.DISCHARGE:
        headroom = (ecm.ocv(curve, state.soc) - soa.vt_min + abs(state.vp)) / params.r0
    else:
        headroom = (soa.vt_max - ecm.ocv(curve, state.soc) + abs(state.vp)) / params.r0
    hi = min(i_lim, headroom + 1.0)
    if cc_window_feasible(sign * hi, state, params, curve, window, soa):
        return sign * hi
    lo = 0.0
    while hi - lo > tol_amps:
        mid = 0.5 * (lo + hi)
        if cc_window_feasible(sign * mid, state, params, curve, window, soa):
            lo = mid
        else:
            hi = mid
    return sign * lo


def bisect_peak_power_cp(state, params, curve, window, direction, soa, tol_watts, p_hi=None):
    if not cp_window_feasible(0.0, state, params, curve, window, direction, soa):
        raise InfeasibleStateError("rested state lies outside the SOA")
    if p_hi is None:
        p_hi = abs(direction.current_limit(soa)) * soa.vt_max
    if cp_window_feasible(p_hi, state, params, curve, window, direction, soa):
        return BrutePower(p_hi, saturated=True)
    lo, hi = 0.0, p_hi
    while hi - lo > tol_watts:
        mid = 0.5 * (lo + hi)
        if cp_window_feasible(mid, state, params, curve, window, direction, soa):
            lo = mid
        else:
            hi = mid
    return BrutePower(lo, saturated=False)
