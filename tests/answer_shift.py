"""What moved: every answer and CLI report of one soplab tree, recorded to
JSON, and two such records compared.

    PYTHONPATH=src python tests/answer_shift.py --write change.json
    PYTHONPATH=/path/to/parent/src python tests/answer_shift.py --write parent.json
    PYTHONPATH=src python tests/answer_shift.py --compare parent.json change.json

``--write`` records whatever ``soplab`` the import finds. Each answer is
flattened to its leaves (floats, ints, bools, strings); a refusal is recorded
as the exception's class name. The case sets are seeded:

- ``windows``: the answer digest's windows (linear and NMC tables, soc
  U(0.02, 0.98), vp U(-0.6, 0.6) V, dt in {0.1, 1, 5, 60}, both directions),
  with K in {1, 2, 10, 30, 300}; every engine, both oracles at tol 1e-9 and
  the error calculus.
- ``grid``: validate-grid-like states on the linear table (soc in [0.15,
  0.85] and vp in [-0.4, 0.4] V by 4 x 4 cells, K in {1, 10, 30, 60, 300},
  dt 1 s, both directions); ``sop_cc``, ``sop_cp`` and both oracles at tol
  1e-9.
- ``cli``: cli-oneshot-like requests for seeds 1-5, run in-process through
  ``cli.main``: the exit code and the output bytes of each.

``--compare A B`` prints per producer the identical count, the largest
|change| of a numeric leaf, and the verdict flips (answer <-> refusal), then
every CLI request whose exit code or bytes differ. It exits 1 when anything
moved and 0 otherwise. Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

from soplab import (
    AnalyticDomainError,
    BatteryParams,
    BatteryState,
    Direction,
    ErrorSource,
    InfeasibleStateError,
    OcvCurve,
    Soa,
    Window,
    brute_peak_current_cc,
    brute_peak_power_cp,
    build_true_context,
    cli,
    ocv,
    sop_cc,
    sop_cccv,
    sop_cp,
    sop_cv,
    sweep,
)

# 12-knot NMC-like table: a steep knee below 10% SOC on a convex rise, 3.0-4.2 V.
NMC_CURVE = OcvCurve(
    tuple(
        (s, 3.0 + 1.2 * (0.35 * (1.0 - math.exp(-s / 0.04)) + 0.65 * s**1.3))
        for s in (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    )
)
LINEAR_CURVE = OcvCurve(((0.0, 3.0), (1.0, 4.2)))
PARAMS = BatteryParams(r0=0.05, r1=0.03, tau=10.0, capacity_ah=2.0)
SOA = Soa(2.8, 4.3, 10.0, -4.0, 0.1, 0.9)
ORACLE_TOL = 1e-9
DIRECTIONS = (Direction.DISCHARGE, Direction.CHARGE)

# (windows, grid states, CLI seeds): the full record, and the small one the
# tier-1 test runs.
FULL = (240, 1000, (1, 2, 3, 4, 5))
SMALL = (12, 6, (1,))


def seeded_windows(n: int, seed: int, steps: tuple[int, ...]) -> list[tuple]:
    """The answer digest's window draw, with K from ``steps``."""
    rng = random.Random(seed)
    return [
        (
            BatteryState(rng.uniform(0.02, 0.98), rng.uniform(-0.6, 0.6)),
            PARAMS,
            rng.choice((LINEAR_CURVE, NMC_CURVE)),
            Window(rng.choice(steps), rng.choice((0.1, 1.0, 5.0, 60.0))),
            rng.choice(DIRECTIONS),
            SOA,
        )
        for _ in range(n)
    ]


def grid_scenarios(n: int, seed: int) -> list[tuple]:
    """``n`` validate-grid-like states, each solved in both directions: every
    K class walks a 4 x 4 grid of (soc, vp) cells in seeded order, redrawing
    a state whose rested voltage lies outside the box."""
    rng = random.Random(seed)
    ks = [1, 10, 30, 60, 300]
    cells = [(i, j) for i in range(4) for j in range(4)]
    pending: dict[int, list[tuple[int, int]]] = {k: [] for k in ks}
    out: list[tuple] = []
    while len(out) < 2 * n:
        rng.shuffle(ks)
        for k in ks:
            if not pending[k]:
                pending[k] = rng.sample(cells, len(cells))
            i, j = pending[k].pop()
            while True:
                soc = 0.15 + 0.7 * (i + rng.random()) / 4
                vp = -0.4 + 0.8 * (j + rng.random()) / 4
                if SOA.vt_min <= ocv(LINEAR_CURVE, soc) - vp <= SOA.vt_max:
                    break
            state, window = BatteryState(soc, vp), Window(k, 1.0)
            out += [(state, PARAMS, LINEAR_CURVE, window, d, SOA) for d in DIRECTIONS]
    return out[: 2 * n]


def _sweeps(*scenario):
    ctx = build_true_context(*scenario)
    deltas = [-0.05, -0.01, 0.0, 0.01, 0.05]
    return [
        sweep(s, deltas, ctx, c) for s in ErrorSource for c in ("current", "voltage", "soc")
    ]


ORACLES = {
    "brute_peak_current_cc": lambda *s: brute_peak_current_cc(*s, tol_amps=ORACLE_TOL),
    "brute_peak_power_cp": lambda *s: brute_peak_power_cp(*s, tol_watts=ORACLE_TOL),
}
WINDOW_PRODUCERS = {
    "sop_cc": sop_cc,
    "sop_cv": sop_cv,
    "sop_cccv": sop_cccv,
    "sop_cp": sop_cp,
    **ORACLES,
    "error_lab.sweep": _sweeps,
}
GRID_PRODUCERS = {"sop_cc": sop_cc, "sop_cp": sop_cp, **ORACLES}


def _leaves(answer, out: list) -> list:
    if isinstance(answer, (tuple, list)):
        for item in answer:
            _leaves(item, out)
    elif isinstance(answer, enum.Enum):
        out.append(answer.value)
    else:
        out.append(answer)
    return out


def _answers(produce, scenarios) -> list:
    """Each scenario's answer leaves, or ``{"refused": <class name>}``."""
    answers = []
    for scenario in scenarios:
        try:
            answers.append(_leaves(produce(*scenario), []))
        except (AnalyticDomainError, InfeasibleStateError) as exc:
            answers.append({"refused": type(exc).__name__})
    return answers


# --- cli-oneshot-like requests ---------------------------------------------

CLI_KINDS = ("sop-cc", "sop-cv", "sop-cccv", "sop-cp", "validate", "sweep-error", "simulate")
CLI_VARIANTS = 3
SWEEP_GRIDS = {
    "soc": "-0.02:0.02:0.005",
    "vp_relax": "-0.02:0.02:0.005",
    "r_sum": "-0.004:0.004:0.001",
    "kappa": "-0.2:0.2:0.05",
    "x": "-2e-5:2e-5:5e-6",
}


def _cli_files(work: Path, rng: random.Random) -> dict[str, str]:
    texts = {
        "params": "r0_ohm=0.05\nr1_ohm=0.03\ntau_s=10.0\ncapacity_ah=2.0\ncoulombic_eff=1.0\n",
        "ocv": "soc,ocv_volts\n" + "".join(f"{s!r},{v!r}\n" for s, v in NMC_CURVE.points),
        "soa": "vt_min=2.8\nvt_max=4.3\ni_max_dis=10.0\ni_max_chg=-4.0\nsoc_min=0.1\nsoc_max=0.9\n",
        "profile": "t_s,current_a\n"
        + "".join(f"{float(t)!r},{rng.uniform(-3.0, 6.0)!r}\n" for t in range(60)),
    }
    for key, text in texts.items():
        (work / f"{key}.txt").write_text(text)
    return {key: str(work / f"{key}.txt") for key in texts}


def _cli_argv(kind: str, files: dict[str, str], rng: random.Random) -> list[str]:
    command = kind.split("-")[0] if kind.startswith("sop") else kind
    soc = rng.uniform(0.25, 0.75)
    vp = rng.uniform(0.01, 0.2) * rng.choice((-1.0, 1.0))
    direction = rng.choice(("discharge", "charge"))
    argv = [
        command, "--params", files["params"], "--ocv", files["ocv"], "--soa", files["soa"],
        f"--soc={soc!r}", f"--vp={vp!r}", "-K", "30", "--direction", direction,
    ]
    if command == "sop":
        argv += ["--mode", kind.split("-")[1]]
    elif kind == "validate":
        argv += ["--soc-grid", "0.2:0.8:0.2", "--steps-list", "1,10,30"]
    elif kind == "sweep-error":
        source = rng.choice(tuple(SWEEP_GRIDS))
        argv += [
            "--source", source,
            "--constraint", rng.choice(("current", "voltage", "soc")),
            f"--grid={SWEEP_GRIDS[source]}",
        ]
    else:
        argv += ["--profile", files["profile"]]
    return argv


def cli_outputs(seeds: tuple[int, ...]) -> dict[str, dict]:
    """Exit code, stdout and stderr of each request, keyed by seed, kind and
    variant; the input files' directory reads ``<dir>`` in the output."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            work = Path(tmp) / str(seed)
            work.mkdir()
            rng = random.Random(seed)
            files = _cli_files(work, rng)
            for kind in CLI_KINDS:
                for variant in range(CLI_VARIANTS):
                    argv = _cli_argv(kind, files, rng)
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = cli.main(argv)
                    out[f"seed{seed}/{kind}/{variant}"] = {
                        "code": code,
                        "stdout": stdout.getvalue().replace(str(work), "<dir>"),
                        "stderr": stderr.getvalue().replace(str(work), "<dir>"),
                    }
    return out


def record(sizes: tuple[int, int, tuple[int, ...]] = FULL) -> dict:
    n_windows, n_states, seeds = sizes
    windows = seeded_windows(n_windows, 7, (1, 2, 10, 30, 300))
    grid = grid_scenarios(n_states, 1)
    answers = {f"windows/{name}": _answers(p, windows) for name, p in WINDOW_PRODUCERS.items()}
    answers.update({f"grid/{name}": _answers(p, grid) for name, p in GRID_PRODUCERS.items()})
    return {"answers": answers, "cli": cli_outputs(seeds)}


# --- comparison --------------------------------------------------------------


def _delta(a: list, b: list) -> float:
    """Largest |change| over the numeric leaves of two same-shaped answers;
    inf when the shapes or a non-numeric leaf differ."""
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if repr(x) == repr(y):
            continue
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if not numeric:
            return math.inf
        d = abs(x - y)
        worst = max(worst, d if d == d else math.inf)
    return worst


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines for two records, and whether anything moved."""
    lines = [f"{'producer':<34} {'cases':>6} {'identical':>9} {'flips':>5}  max|delta|"]
    moved = False
    for name in sorted(set(a["answers"]) | set(b["answers"])):
        left, right = a["answers"].get(name), b["answers"].get(name)
        if left is None or right is None or len(left) != len(right):
            lines.append(f"{name:<34} case sets differ")
            moved = True
            continue
        same = flips = 0
        worst = 0.0
        for x, y in zip(left, right):
            if json.dumps(x) == json.dumps(y):
                same += 1
            elif isinstance(x, dict) or isinstance(y, dict):
                flips += 1
            else:
                worst = max(worst, _delta(x, y))
        moved |= same != len(left)
        lines.append(f"{name:<34} {len(left):>6} {same:>9} {flips:>5}  {worst:.3g}")
    keys = sorted(set(a["cli"]) | set(b["cli"]))
    differ = [k for k in keys if a["cli"].get(k) != b["cli"].get(k)]
    moved |= bool(differ)
    lines.append(f"cli requests: {len(keys)}, identical: {len(keys) - len(differ)}")
    lines += [f"  differs: {k}" for k in differ]
    return lines, moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="OUT", help="record this tree's answers to OUT")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two records")
    args = parser.parse_args(argv)
    if args.write:
        Path(args.write).write_text(json.dumps(record()))
        return 0
    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    lines, moved = compare(a, b)
    print("\n".join(lines))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
