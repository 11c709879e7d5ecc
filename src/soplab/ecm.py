"""Discrete-time Thevenin equivalent-circuit model.

Single-step dynamics, a closed-form constant-current window prediction with a
linearized OCV slope, and piecewise-linear OCV table services. Everything here
is a pure function of its inputs; all value types are frozen.

Sign convention: current is positive for discharge, negative for charge.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Iterable, NamedTuple, Sequence

from .exceptions import ConfigurationError, InputError

# Secant pairs closer than this fall back to the local segment slope.
SLOPE_SECANT_EPS = 1e-6

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
    is derived once so that lookups bisect without rebuilding it.
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
    """Prediction window: number of steps and sampling interval in seconds."""

    __match_args__ = ("steps", "dt")
    __slots__ = __match_args__
    steps: int
    dt: float

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
        _Value.__init__(self, steps, dt)

    @property
    def duration(self) -> float:
        return self.steps * self.dt


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


def ocv(curve: OcvCurve, soc: float) -> float:
    """Interpolate the OCV table at ``soc``; clamps to the knot range."""
    pts = curve.points
    if soc <= pts[0][0]:
        return pts[0][1]
    if soc >= pts[-1][0]:
        return pts[-1][1]
    i = bisect_right(curve.socs, soc)
    x0, y0 = pts[i - 1]
    x1, y1 = pts[i]
    return y0 + (soc - x0) * (y1 - y0) / (x1 - x0)


def ocv_cursor(curve: OcvCurve) -> Callable[[float], float]:
    """A lookup equal to ``ocv(curve, soc)`` bit for bit that remembers the
    segment it last bisected.

    While the SOC stays strictly inside that segment, the lookup evaluates
    ``ocv``'s own expression with the segment's rises hoisted; any other SOC
    is answered by ``ocv`` itself, so knot hits, clamps and NaN behave as
    there. A repeat of the last such SOC (a window at rest on a knot or
    clamped at an end) returns ``ocv``'s last answer. Within a window the SOC
    moves one way, so a window loop that owns one cursor bisects about once
    per segment it enters.
    """
    pts, socs = curve.points, curve.socs
    first, last = socs[0], socs[-1]
    # No segment and no answer yet: NaN fails every comparison.
    x0 = x1 = y0 = rise = run = miss_soc = miss_v = math.nan

    def lookup(soc: float) -> float:
        nonlocal x0, x1, y0, rise, run, miss_soc, miss_v
        if x0 < soc < x1:
            return y0 + (soc - x0) * rise / run
        if soc == miss_soc:
            return miss_v
        miss_v, miss_soc = ocv(curve, soc), soc
        if first < soc < last:
            i = bisect_right(socs, soc)
            (x0, y0), (x1, y1) = pts[i - 1], pts[i]
            rise, run = y1 - y0, x1 - x0
        return miss_v

    return lookup


def _segment_slope(curve: OcvCurve, soc: float) -> float:
    """Slope of the table segment containing ``soc`` (right segment at knots)."""
    pts = curve.points
    i = bisect_right(curve.socs, soc)
    i = min(max(i, 1), len(pts) - 1)
    x0, y0 = pts[i - 1]
    x1, y1 = pts[i]
    return (y1 - y0) / (x1 - x0)


def ocv_slope(curve: OcvCurve, soc_a: float, soc_b: float) -> float:
    """Window slope of the OCV curve between two SOC points.

    Returns the secant slope when the points are distinguishable, otherwise
    the local segment slope at ``soc_a``.
    """
    if abs(soc_a - soc_b) > SLOPE_SECANT_EPS:
        return (ocv(curve, soc_b) - ocv(curve, soc_a)) / (soc_b - soc_a)
    return _segment_slope(curve, soc_a)


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
    soc_next = min(max(state.soc - current * dt * params.soc_per_amp_second, 0.0), 1.0)
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
        soc_end = min(max(soc_end - d_soc, 0.0), 1.0)

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

    lookup = ocv_cursor(curve)  # the row voltages' OCV; step bisects its own
    trace = []
    for j, (t, current) in enumerate(zip(times, currents)):
        if j:
            state, _ = step(state, params, curve, currents[j - 1], t - times[j - 1])
        vt = lookup(state.soc) - state.vp - current * params.r0
        if not math.isfinite(vt):
            raise InputError(f"profile row t={t}: terminal voltage {vt} is not finite")
        trace.append(ProfileSample(t, current, state.soc, state.vp, vt))
    return trace
