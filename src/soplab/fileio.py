"""File formats for parameters, OCV tables, SOA boxes and current profiles,
and the one place where report lines are rendered.

A report is ``key=value`` lines and CSV tables, every line ending in a
newline. Each value is rendered by its type: a float with 12 significant
digits, a bool as ``true`` or ``false``, anything else (an int, a str) as is.
Re-parsing a report and re-rendering it reproduces the same bytes.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from .ecm import BatteryParams, OcvCurve
from .exceptions import ConfigurationError, InputError
from .soa import Soa

_PARAMS_KEYS = ("r0_ohm", "r1_ohm", "tau_s", "capacity_ah", "coulombic_eff")
_SOA_KEYS = ("vt_min", "vt_max", "i_max_dis", "i_max_chg", "soc_min", "soc_max")
_OCV_HEADER = "soc,ocv_volts"
_PROFILE_HEADER = "t_s,current_a"

_T = TypeVar("_T")


def format_float(value: float) -> str:
    """Canonical 12-significant-digit rendering used in every report."""
    return f"{value + 0.0:.12g}"  # +0.0 folds negative zero into plain 0


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_float(value) if isinstance(value, float) else str(value)


def render_keyvalue(pairs: Iterable[tuple[str, object]]) -> str:
    """One ``key=value`` line per pair."""
    return "".join([f"{key}={_cell(value)}\n" for key, value in pairs])


def render_csv(header: str, rows: Iterable[Iterable[object]]) -> str:
    """A CSV table: the header line, then one line per row of cells."""
    return header + "\n" + "".join([",".join(map(_cell, row)) + "\n" for row in rows])


def parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise InputError(f"{where}: not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise InputError(f"{where}: non-finite value: {text!r}")
    return value


def _read_lines(path: str | Path, what: str) -> list[str]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {p}: {exc}") from exc
    return text.splitlines()


def _read_keyvalue(path: str | Path, keys: tuple[str, ...], what: str) -> list[float]:
    """The file's values in the order of ``keys``, each key given once."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(_read_lines(path, what), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{what} file {path}: line {lineno}"
        if "=" not in line:
            raise InputError(f"{where}: expected key=value, got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise InputError(f"{where}: unknown key {key!r}")
        if key in values:
            raise InputError(f"{where}: duplicate key {key!r}")
        values[key] = parse_float(text.strip(), where)
    missing = [k for k in keys if k not in values]
    if missing:
        raise InputError(f"{what} file {path}: missing keys {missing}")
    return [values[k] for k in keys]


def _build(make: Callable[..., _T], args: Iterable[object], what: str, path: str | Path) -> _T:
    """``make(*args)``, its ConfigurationError reported against the file."""
    try:
        return make(*args)
    except ConfigurationError as exc:
        raise InputError(f"{what} file {path}: {exc}") from exc


def read_params(path: str | Path) -> BatteryParams:
    return _build(BatteryParams, _read_keyvalue(path, _PARAMS_KEYS, "params"), "params", path)


def read_soa(path: str | Path) -> Soa:
    return _build(Soa, _read_keyvalue(path, _SOA_KEYS, "soa"), "soa", path)


def _read_csv(
    path: str | Path, header: str, what: str
) -> list[tuple[float, float]]:
    lines = [(n, line) for n, line in enumerate(_read_lines(path, what), 1) if line.strip()]
    if not lines:
        raise InputError(f"{what} file {path} is empty")
    if [c.strip() for c in lines[0][1].split(",")] != header.split(","):
        raise InputError(f"{what} file {path}: first line must be the header {header!r}")
    rows: list[tuple[float, float]] = []
    for lineno, raw in lines[1:]:
        where = f"{what} file {path}: line {lineno}"
        cells = raw.split(",")
        if len(cells) != 2:
            raise InputError(f"{where}: expected two columns, got {raw!r}")
        rows.append((parse_float(cells[0].strip(), where), parse_float(cells[1].strip(), where)))
    if not rows:
        raise InputError(f"{what} file {path} has a header but no data rows")
    return rows


def read_ocv(path: str | Path) -> OcvCurve:
    return _build(OcvCurve, [_read_csv(path, _OCV_HEADER, "ocv")], "ocv", path)


def read_profile(path: str | Path) -> list[tuple[float, float]]:
    rows = _read_csv(path, _PROFILE_HEADER, "profile")
    times = [t for t, _ in rows]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise InputError(f"profile file {path}: times must be strictly increasing")
    return rows


def write_text(text: str, out: str | Path | None) -> None:
    """Write a report to ``out``, or to standard output when ``out`` is None."""
    if out is None:
        print(text, end="")
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write report file {out}: {exc}") from exc
