"""Discrete-time Thevenin equivalent-circuit model.

Single-step dynamics, a closed-form constant-current window prediction with a
linearized OCV slope, piecewise-linear OCV table services, and the one window
loop (``_window``) that the stepwise engines and the CP oracle step. Everything
here is a pure function of its inputs; all value types are frozen.

Sign convention: current is positive for discharge, negative for charge.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Iterable, NamedTuple, Sequence

from .exceptions import ConfigurationError, InputError

SECONDS_PER_HOUR = 3600.0


class _Value:
    """Frozen, validated value type.

    A subclass names its fields, in constructor order, in ``__match_args__``;
    its ``__slots__`` hold those fields and then any derived slot. Its
    ``__init__`` validates the arguments, then writes every slot once through
    ``object.__setattr__`` (``_Value.__init__`` does so in slot order).
    Equality, hashing and ``repr`` cover the fields alone, and ``copy``,
    ``deepcopy`` and ``pickle`` rebuild a value through its validating
    constructor.
    """

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class BatteryParams(_Value):
    """Thevenin cell parameters: series resistance, one RC branch, capacity.

    ``soc_per_amp_second`` is derived at construction: the SOC drop per
    ampere-second of discharge, eta / (3600 C_a).
    """

    __match_args__ = ("r0", "r1", "tau", "capacity_ah", "coulombic_eff")
    __slots__ = (*__match_args__, "soc_per_amp_second")
    r0: float
    r1: float
    tau: float
    capacity_ah: float
    coulombic_eff: float
    soc_per_amp_second: float

    def __init__(
        self, r0: float, r1: float, tau: float, capacity_ah: float, coulombic_eff: float = 1.0
    ) -> None:
        for name, value in (("r0", r0), ("r1", r1), ("tau", tau), ("capacity_ah", capacity_ah)):
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if not (r0 > 0.0):
            raise ConfigurationError(f"r0 must be > 0, got {r0}")
        if not (r1 >= 0.0):
            raise ConfigurationError(f"r1 must be >= 0, got {r1}")
        if not (tau > 0.0):
            raise ConfigurationError(f"tau must be > 0, got {tau}")
        if not (capacity_ah > 0.0):
            raise ConfigurationError(f"capacity_ah must be > 0, got {capacity_ah}")
        if not (0.0 < coulombic_eff <= 1.0):
            raise ConfigurationError(f"coulombic_eff must be in (0, 1], got {coulombic_eff}")
        soc_per_amp_second = coulombic_eff / (SECONDS_PER_HOUR * capacity_ah)
        if not math.isfinite(soc_per_amp_second):  # a subnormal capacity overflows it
            raise ConfigurationError(
                f"capacity_ah {capacity_ah} is too small: eta / (3600 C_a) overflows"
            )
        # A subnormal eta or a capacity near the float limit underflows it, and
        # an overflowing step throughput times 0 would make the SOC NaN.
        if not soc_per_amp_second > 0.0:
            raise ConfigurationError(
                f"coulombic_eff {coulombic_eff} / (3600 * capacity_ah {capacity_ah})"
                " underflows to 0"
            )
        _Value.__init__(self, r0, r1, tau, capacity_ah, coulombic_eff, soc_per_amp_second)


class OcvCurve(_Value):
    """Monotone SOC -> OCV table, interpolated piecewise-linearly.

    ``points`` is stored as a tuple of float pairs; ``socs``, the knot SOCs,
    is derived once so that the table search bisects without rebuilding it.
    """

    __match_args__ = ("points",)
    __slots__ = ("points", "socs")
    points: tuple[tuple[float, float], ...]
    socs: tuple[float, ...]

    def __init__(self, points: Iterable[tuple[float, float]]) -> None:
        pts = tuple((float(s), float(v)) for s, v in points)
        if len(pts) < 2:
            raise ConfigurationError("OCV curve needs at least two points")
        if not all(math.isfinite(x) for pt in pts for x in pt):
            raise ConfigurationError("OCV curve values must be finite")
        socs = tuple(s for s, _ in pts)
        vs = [v for _, v in pts]
        if any(b <= a for a, b in zip(socs, socs[1:])):
            raise ConfigurationError("OCV curve SOC values must be strictly increasing")
        if any(b < a for a, b in zip(vs, vs[1:])):
            raise ConfigurationError("OCV curve must be non-decreasing in voltage")
        if not (0.0 <= socs[0] and socs[-1] <= 1.0):
            raise ConfigurationError("OCV curve SOC values must lie in [0, 1]")
        for (s0, v0), (s1, v1) in zip(pts, pts[1:]):  # knots too close for the floats
            if not math.isfinite((v1 - v0) / (s1 - s0)):
                raise ConfigurationError(f"OCV curve segment {s0}..{s1} has a non-finite slope")
        _Value.__init__(self, pts, socs)


class BatteryState(_Value):
    """Electrical state: SOC fraction and polarization voltage."""

    __match_args__ = ("soc", "vp")
    __slots__ = __match_args__
    soc: float
    vp: float

    def __init__(self, soc: float, vp: float = 0.0) -> None:
        if not (0.0 <= soc <= 1.0):
            raise ConfigurationError(f"soc must be in [0, 1], got {soc}")
        if not math.isfinite(vp):
            raise ConfigurationError(f"vp must be finite, got {vp}")
        # Stored directly, not through _Value.__init__: step builds one per step.
        object.__setattr__(self, "soc", soc)
        object.__setattr__(self, "vp", vp)


class Window(_Value):
    """Prediction window: number of steps and sampling interval in seconds.

    ``duration``, K * dt in seconds, is derived at construction.
    """

    __match_args__ = ("steps", "dt")
    __slots__ = (*__match_args__, "duration")
    steps: int
    dt: float
    duration: float

    def __init__(self, steps: int, dt: float) -> None:
        # Integral means usable as an index (int, numpy integers), as range() needs.
        if isinstance(steps, bool) or not hasattr(steps, "__index__"):
            raise ConfigurationError(f"window steps must be an integer, got {steps!r}")
        if steps < 1:
            raise ConfigurationError(f"window steps must be >= 1, got {steps}")
        if not (dt > 0.0 and math.isfinite(dt)):
            raise ConfigurationError(f"window dt must be finite and > 0, got {dt}")
        try:
            duration = steps * dt
        except OverflowError:  # an int too large for a float
            duration = math.inf
        if not math.isfinite(duration):
            raise ConfigurationError(f"window duration {steps} * {dt} s is not finite")
        _Value.__init__(self, steps, dt, duration)


class CcPrediction(NamedTuple):
    """End-of-window quantities under a constant current.

    ocv_end          open-circuit voltage after the window's charge throughput
    vp_relax_end     decayed share of the initial polarization voltage
    eff_r1           polarization resistance built up by the window, R1*(1-exp(-K*dt/tau))
    vt_end           terminal voltage at the last step
    soc_end          SOC at the last step, clamped to [0, 1]
    """

    ocv_end: float
    vp_relax_end: float
    eff_r1: float
    vt_end: float
    soc_end: float


class StepResult(NamedTuple):
    state: BatteryState
    vt: float


class ProfileSample(NamedTuple):
    t: float
    current: float
    soc: float
    vp: float
    vt: float


def _segment(curve: OcvCurve, soc: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The table segment containing ``soc``, as its two knots: the right-hand
    one at a knot, the first or last one beyond the knot range. The table's
    only search; a NaN SOC raises InputError."""
    socs = curve.socs
    i = bisect_right(socs, soc)
    # The index clamped to [1, len - 1] by comparisons. NaN fails every
    # comparison, so bisect_right puts it past the last knot.
    if i == 0:
        i = 1
    elif i == len(socs):
        if soc != soc:
            raise InputError("soc must not be NaN")
        i -= 1
    pts = curve.points
    return pts[i - 1], pts[i]


def ocv(curve: OcvCurve, soc: float) -> float:
    """Interpolate the OCV table at ``soc``; clamps to the knot range. A NaN
    SOC raises InputError."""
    pts = curve.points
    if soc <= pts[0][0]:
        return pts[0][1]
    if soc >= pts[-1][0]:
        return pts[-1][1]
    (x0, y0), (x1, y1) = _segment(curve, soc)
    return y0 + (soc - x0) * (y1 - y0) / (x1 - x0)


def _seek(
    curve: OcvCurve, soc: float
) -> tuple[float, tuple[float, float, float, float, float, float] | None]:
    """The one rule for entering an OCV segment: a window loop's lookup of a
    SOC outside the segment it holds. Returns the OCV at ``soc``, equal to
    ``ocv(curve, soc)`` bit for bit, and the segment the loop holds from
    there on, as ``(lo, x0, x1, y0, rise, run)``.

    At or past either end of the table this is ``ocv``'s clamp, with no
    search and no segment (None: the loop keeps the one it has). Any other
    SOC searches the table once; a SOC in ``[lo, x1)`` of the segment found
    is then answered by ``y0 + (soc - x0) * rise / run``, ``ocv``'s own
    expression with the rises hoisted. A NaN SOC raises as in ``ocv``.
    """
    socs = curve.socs
    first = socs[0]
    if soc <= first or soc >= socs[-1]:
        return ocv(curve, soc), None
    (x0, y0), (x1, y1) = _segment(curve, soc)
    rise, run = y1 - y0, x1 - x0
    # ocv clamps at the first knot to the knot's own voltage, whose -0.0
    # the expression would turn to +0.0: the segment starts past it.
    lo = x0 if x0 > first else math.nextafter(x0, math.inf)
    return y0 + (soc - x0) * rise / run, (lo, x0, x1, y0, rise, run)


# One step of a stepwise trace, as ``_window`` records it; ``soplab.modes``
# exports it with the trace.
class PomStep(NamedTuple):
    index: int  # 1-based window step
    current: float
    vt: float
    soc: float
    vp: float
    power: float


class _Hold(NamedTuple):
    """A hold law for ``_window``, its step-one decision made by the caller:
    the terminal voltage held, step one's hold current, and the clip bounds
    (the direction's current limit and SOC bound)."""

    level: float
    first: float
    i_lim: float
    soc_bound: float
    discharge: bool


_NO_SEGMENT = (math.nan,) * 6  # NaN fails every comparison: the first step misses


def _window(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    window: Window,
    law: Callable[[int, float, float], tuple[float, float] | None] | float | _Hold,
    start: tuple[float, tuple[float, ...] | None],
    rows: list[PomStep] | None = None,
) -> tuple | None:
    """The one window loop of the stepwise engines and the CP oracle: run
    the hold step across the window. Entering step j, vp relaxes by one
    interval; the law gives the step's ``(current, vt)`` from the emf, the
    OCV less the relaxed vp, or abandons the window (and returns None); the
    recorded vt carries that current's ohmic drop. ``start`` is step one's
    OCV and segment, which the caller seeks once per window or solve; later
    steps evaluate the segment they are in by ``_seek``'s expression, and
    call ``_seek`` only on leaving it.

    The law is picked once per call. A ``_Hold`` (the CV and CC-CV engines)
    is clipped inline, and a float, the CP engine's signed constant power,
    has its step solved inline by ``modes.solve_cp_step``'s emf >= 0
    expressions, at every emf: no Python call per step. A callable
    ``law(j, soc, emf)`` returns the pair or None, one call per step: the CP
    oracle's Newton law and ``modes.find_mode_shift_kc``'s current limit.
    Returns the trace's two SOA corners, (min vt, max current, min soc) and
    (max vt, min current, max soc): the SOA is a box, so every step lies in
    it iff both corners do. A hold law adds the first step of minimum
    |power| and the first step whose hold current went unclipped (None if
    none did). Each step's ``PomStep`` is appended to ``rows`` only when the
    caller passes a list: a caller that needs only the corners builds none.

    A zero-power float without rows is a rest, at any emf: the SOC stays
    where step one puts it and vp only decays, so vt is monotone in j and
    the corners are those of steps one and K. Only the vp recurrence is
    stepped, with no OCV past step one's (the SOC it would look up is step
    one's, bar the sign of a zero, which the table's clamp ignores). With
    rows, a zero power is stepped as any other: the power's signed zero
    flows at vt = emf, and a step whose emf is not > 0 abandons the window."""
    alpha = math.exp(-window.dt / params.tau)
    # Products stay left to right, never pre-multiplied (current * r1 * (1 - alpha),
    # current * dt * soc_per_as): the state then matches step's bit for bit.
    one_minus_alpha = 1.0 - alpha
    r0, r1, dt, soc_per_as = params.r0, params.r1, window.dt, params.soc_per_amp_second
    soc, vp = state.soc, state.vp
    v_oc, segment = start
    holding, drive = isinstance(law, _Hold), None
    if holding:
        level, first, i_lim, soc_bound, discharge = law
        headroom_div = dt * soc_per_as
        unbounded = math.inf if discharge else -math.inf
        least, binding, k_c = math.inf, None, None
    elif callable(law):
        drive = law
    elif law == 0.0 and rows is None:  # the rest: no current, whatever the emf
        power = law
        soc = soc - power * dt * soc_per_as  # a signed zero moves only a zero SOC
        vp_rise, drop = power * r1 * one_minus_alpha, power * r0
        first = v_oc - vp * alpha - drop
        for _ in range(window.steps - 1):
            vp = vp * alpha + vp_rise
        last = v_oc - vp * alpha - drop
        # The loop keeps the first of equal minima, and a vt that falls to
        # zero meets +0.0 before -0.0: + 0.0 gives that zero.
        low = last + 0.0 if last < first else first
        high = last if last > first else first
        return (low, power, soc), (high, power, soc)
    else:
        four_r0_power, two_power = 4.0 * r0 * law, 2.0 * law
        sqrt = math.sqrt
    lo, x0, x1, y0, rise, run = _NO_SEGMENT if segment is None else segment
    append = None if rows is None else rows.append
    row = tuple.__new__  # PomStep(...) would add a Python frame per row
    vt_lo = soc_lo = i_lo = math.inf
    vt_hi = soc_hi = i_hi = -math.inf
    for j in range(1, window.steps + 1):
        if j > 1:  # step one's OCV is the caller's
            if lo <= soc < x1:
                v_oc = y0 + (soc - x0) * rise / run
            else:
                v_oc, entered = _seek(curve, soc)
                if entered is not None:
                    lo, x0, x1, y0, rise, run = entered
        vp_rel = vp * alpha
        emf = v_oc - vp_rel
        if holding:
            held = (emf - level) / r0 if j > 1 else first
            # max(0.0, min(held, i_lim, headroom)) and its charge mirror.
            # dt * soc_per_amp_second may underflow to 0: then no SOC moves.
            headroom = (soc - soc_bound) / headroom_div if headroom_div else unbounded
            current = held
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
            if current == held:
                vt = level
                if k_c is None:
                    k_c = j
            else:
                vt = emf - current * r0
            # |power| by a comparison, as min(key=abs) ranks it: the first least binds.
            magnitude = current * vt
            if magnitude < 0.0:
                magnitude = -magnitude
            if magnitude < least or j == 1:
                least, binding = magnitude, j
        elif drive is None:
            # The smaller-magnitude root of R0*I^2 - emf*I + power = 0, refused
            # where no current flows toward the power.
            disc = emf * emf - four_r0_power
            if not disc >= 0.0:  # past the ceiling, or NaN from inf - inf
                return None
            root = emf + sqrt(disc)
            if not root > 0.0:  # the current would flow against the power, or divide by 0
                return None
            current = two_power / root
            vt = emf - current * r0
        else:
            step = drive(j, soc, emf)
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
    low, high = (vt_lo, i_hi, soc_lo), (vt_hi, i_lo, soc_hi)
    if holding:
        return low, high, binding, k_c
    return low, high


def step(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    current: float,
    dt: float,
) -> StepResult:
    """Advance the model by one interval under ``current``.

    The polarization branch relaxes and accumulates the step's load, SOC moves
    by the step's charge throughput (clamped to [0, 1]), and the
    returned terminal voltage carries the same current's ohmic drop.
    """
    if not (dt > 0.0):
        raise InputError(f"dt must be > 0, got {dt}")
    alpha = math.exp(-dt / params.tau)
    vp_next = state.vp * alpha + current * params.r1 * (1.0 - alpha)
    soc_next = state.soc - current * dt * params.soc_per_amp_second
    # min(max(soc_next, 0.0), 1.0) by comparisons, which keep -0.0 and NaN as
    # those builtins do; the engines' and oracles' window loops clamp the same way.
    if soc_next < 0.0:
        soc_next = 0.0
    elif soc_next > 1.0:
        soc_next = 1.0
    vt = ocv(curve, soc_next) - vp_next - current * params.r0
    return StepResult(BatteryState(soc_next, vp_next), vt)


def predict_cc(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    kappa: float,
    current: float,
    window: Window,
) -> CcPrediction:
    """End-of-window prediction for a constant current, OCV linearized at ``kappa``.

    The voltage path is closed-form. The SOC path subtracts the per-step
    throughput ``window.steps`` times with the same rounding as ``step`` so the
    two routes agree bit-for-bit.
    """
    k_dt = window.duration
    alpha_k = math.exp(-k_dt / params.tau)
    vp_relax_end = state.vp * alpha_k
    eff_r1 = params.r1 * (1.0 - alpha_k)
    ocv_end = ocv(curve, state.soc) - kappa * k_dt * current * params.soc_per_amp_second
    vt_end = ocv_end - vp_relax_end - current * eff_r1 - current * params.r0

    d_soc = current * window.dt * params.soc_per_amp_second
    soc_end = state.soc
    for _ in range(window.steps):
        soc_end = soc_end - d_soc  # clamped to [0, 1] as step clamps
        if soc_end < 0.0:
            soc_end = 0.0
        elif soc_end > 1.0:
            soc_end = 1.0

    return CcPrediction(
        ocv_end=ocv_end,
        vp_relax_end=vp_relax_end,
        eff_r1=eff_r1,
        vt_end=vt_end,
        soc_end=soc_end,
    )


def simulate_profile(
    state: BatteryState,
    params: BatteryParams,
    curve: OcvCurve,
    profile: Sequence[tuple[float, float]] | Iterable[tuple[float, float]],
) -> list[ProfileSample]:
    """Replay a (time, current) series through repeated ``step`` calls.

    Each profile current flows from its own timestamp to the next one. Every
    sample reports the state at its timestamp with the just-started current's
    ohmic drop, so the trace has exactly one row per profile row. A sample
    whose terminal voltage is not finite (an ohmic drop past the floats)
    raises InputError.
    """
    rows = list(profile)
    if not rows:
        raise InputError("profile must contain at least one (t, current) row")
    times = []
    currents = []
    for row in rows:
        try:
            t, i = row
            t = float(t)
            i = float(i)
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed profile row: {row!r}") from exc
        if not (math.isfinite(t) and math.isfinite(i)):
            raise InputError(f"non-finite profile row: {row!r}")
        times.append(t)
        currents.append(i)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise InputError("profile times must be strictly increasing")

    trace = []
    for j, (t, current) in enumerate(zip(times, currents)):
        if j:
            state, _ = step(state, params, curve, currents[j - 1], t - times[j - 1])
        vt = ocv(curve, state.soc) - state.vp - current * params.r0
        if not math.isfinite(vt):
            raise InputError(f"profile row t={t}: terminal voltage {vt} is not finite")
        trace.append(ProfileSample(t, current, state.soc, state.vp, vt))
    return trace
