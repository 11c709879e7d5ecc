"""Safe-operation-area box, the load direction and compliance checks.

All bounds are inclusive: a point sitting exactly on a cut-off is compliant,
so boundary conditions can be expressed as exact equalities. ``Direction``
lives here, next to the faces it picks, so the oracle needs no closed form.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, NamedTuple, Protocol

from .ecm import BatteryParams, _Value
from .exceptions import ConfigurationError


class Soa(_Value):
    """Voltage, current, and SOC limits enforced at every window step."""

    __match_args__ = ("vt_min", "vt_max", "i_max_dis", "i_max_chg", "soc_min", "soc_max")
    __slots__ = __match_args__
    vt_min: float
    vt_max: float
    i_max_dis: float
    i_max_chg: float
    soc_min: float
    soc_max: float

    def __init__(
        self,
        vt_min: float,
        vt_max: float,
        i_max_dis: float,
        i_max_chg: float,
        soc_min: float,
        soc_max: float,
    ) -> None:
        limits = (vt_min, vt_max, i_max_dis, i_max_chg, soc_min, soc_max)
        for name, value in zip(self.__match_args__, limits):
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if not (vt_min > 0.0):  # a cell's cut-off voltage: the CP power bound needs it
            raise ConfigurationError(f"vt_min must be > 0, got {vt_min}")
        if not (vt_min < vt_max):
            raise ConfigurationError("vt_min must be < vt_max")
        if not (i_max_chg < 0.0 < i_max_dis):
            raise ConfigurationError("need i_max_chg < 0 < i_max_dis")
        # A power in the box stays below |i_max| * vt_max; the CP solvers form
        # twice that (2 * power in the step current), so it must be finite.
        if not math.isfinite(2.0 * max(i_max_dis, -i_max_chg) * vt_max):
            raise ConfigurationError("2 * max(i_max_dis, -i_max_chg) * vt_max overflows")
        # A CP step's discriminant emf^2 - 4 r0 P stays below 5 * vt_max^2 while
        # emf <= vt_max and the power is below sop_cp's bracket top. With
        # 8 * vt_max^2 finite, only a step with |emf| > vt_max can overflow
        # it, and the box refuses that step's zero current.
        if not math.isfinite(8.0 * vt_max * vt_max):
            raise ConfigurationError("8 * vt_max * vt_max overflows")
        # The CP oracle's default bracket top, |i_max| * vt_max, must be > 0.
        if not min(i_max_dis, -i_max_chg) * vt_max > 0.0:
            raise ConfigurationError("min(i_max_dis, -i_max_chg) * vt_max underflows to 0")
        if not (0.0 <= soc_min < soc_max <= 1.0):
            raise ConfigurationError("need 0 <= soc_min < soc_max <= 1")
        _Value.__init__(self, *limits)


class Direction(enum.Enum):
    """Discharge or charge: each method returns the box face a load pushes toward."""

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


def check_load(params: BatteryParams, soa: Soa) -> None:
    """Refuse a cell whose polarization load term, current * r1, overflows at a
    current the box admits (with the CP solvers' factor-2 margin)."""
    if not math.isfinite(2.0 * params.r1 * max(soa.i_max_dis, -soa.i_max_chg)):
        raise ConfigurationError("2 * r1 * max(i_max_dis, -i_max_chg) overflows")


class Violation(NamedTuple):
    kind: str  # voltage_low | voltage_high | current_high_dis | current_high_chg | soc_low | soc_high
    step_index: int
    magnitude: float  # excess beyond the bound, in native units, > 0


class TracePoint(Protocol):
    current: float
    vt: float
    soc: float


def check_point(
    vt: float, current: float, soc: float, soa: Soa, step_index: int = 0
) -> list[Violation]:
    """Violations of the SOA box at one operating point; empty when compliant."""
    out: list[Violation] = []
    if vt < soa.vt_min:
        out.append(Violation("voltage_low", step_index, soa.vt_min - vt))
    elif vt > soa.vt_max:
        out.append(Violation("voltage_high", step_index, vt - soa.vt_max))
    if current > soa.i_max_dis:
        out.append(Violation("current_high_dis", step_index, current - soa.i_max_dis))
    elif current < soa.i_max_chg:
        out.append(Violation("current_high_chg", step_index, soa.i_max_chg - current))
    if soc < soa.soc_min:
        out.append(Violation("soc_low", step_index, soa.soc_min - soc))
    elif soc > soa.soc_max:
        out.append(Violation("soc_high", step_index, soc - soa.soc_max))
    return out


def check_trace(trace: Iterable[TracePoint], soa: Soa) -> list[Violation]:
    """Apply ``check_point`` at every trace step.

    Rows that carry their own ``index`` attribute keep it in the violation
    records; otherwise the enumeration position is used.
    """
    out: list[Violation] = []
    for position, point in enumerate(trace):
        index = getattr(point, "index", position)
        out.extend(check_point(point.vt, point.current, point.soc, soa, step_index=index))
    return out
