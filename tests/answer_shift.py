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
  with K in {1, 2, 10, 30, 300}; every engine, both oracles at tol 1e-9, the
  constant-current window terms (two-pass slope included) and the error
  calculus.
- ``grid``: validate-grid-like states on the linear table (soc in [0.15,
  0.85] and vp in [-0.4, 0.4] V by 4 x 4 cells, K in {1, 10, 30, 60, 300},
  dt 1 s, both directions); ``sop_cc``, ``sop_cp`` and both oracles at tol
  1e-9.
- ``cli``: cli-oneshot-like requests for seeds 1-5, and one ``validate``
  request per malformed input in ``BAD_INPUTS``, run in-process through
  ``cli.main``: the exit code and the output bytes of each.

For each producer in ``PROBES`` the record also holds the whole-window
simulations each solve ran: calls of the oracle's per-probe function, or of
``sop_cp``'s probe. For every producer it holds the OCV table searches each
solve ran (calls of ``soplab.ecm.bisect_right``), the steps each simulated,
the windows each refused and the windows each stepped with rows. A step
count is the K of every call of a window loop in ``WINDOW_LOOPS`` that ran
to its window's end, wherever that loop reads the OCV and however it steps:
a rest counts its K steps too. A loop that abandons its window early (a
step with no current toward the power) is counted apart, as one refused
window, without steps. A window loop call that is handed a list to append
its rows to counts as one window with rows, refused or not.

``--compare A B`` prints per producer the identical count, the verdict flips
(answer <-> refusal), the largest |change| of a numeric leaf, the mean and
the largest simulations per solve in A and in B, and the mean table
searches, steps, refused windows and windows with rows per solve in A and in
B, then every CLI request whose exit code or bytes differ. It exits 1 when an answer or a CLI
request moved and 0 otherwise; the counts do not change it. Standard library
only.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import importlib
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
    window_terms,
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
    "peak_cc.window_terms": window_terms,
    "error_lab.sweep": _sweeps,
}
GRID_PRODUCERS = {"sop_cc": sop_cc, "sop_cp": sop_cp, **ORACLES}
# The whole-window simulation that each counted producer runs once per probe.
PROBES = {
    "brute_peak_current_cc": ("soplab.oracle", "_cc_feasible"),
    "brute_peak_power_cp": ("soplab.oracle", "_cp_feasible"),
    "sop_cp": ("soplab.modes", "_cp_probe"),
}


def _leaves(answer, out: list) -> list:
    if isinstance(answer, (tuple, list)):
        for item in answer:
            _leaves(item, out)
    elif isinstance(answer, enum.Enum):
        out.append(answer.value)
    else:
        out.append(answer)
    return out


# The window loops, each with the test of a result that abandoned its window:
# the one that the stepwise engines and the CP oracle share, and the CC
# oracle's own.
WINDOW_LOOPS = {
    ("soplab.ecm", "_window"): lambda result: result is None,
    ("soplab.oracle", "_cc_feasible"): lambda result: False,
}


@contextlib.contextmanager
def _counting_steps():
    """A three-item list, [steps, refused, with rows], that counts while the
    block runs the K of every ``WINDOW_LOOPS`` call that ran its window to the
    end, the calls that abandoned theirs, and the calls handed a list for
    their rows."""
    counts = [0, 0, 0]
    saved = []
    for (module_name, attr), refused in WINDOW_LOOPS.items():
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def counted(*args, _original=original, _refused=refused):
            result = _original(*args)
            counts[2] += any(isinstance(arg, list) for arg in args)
            if _refused(result):
                counts[1] += 1
            else:
                counts[0] += next(arg for arg in args if isinstance(arg, Window)).steps
            return result

        saved.append((module, attr, original))
        setattr(module, attr, counted)
    try:
        yield counts
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


@contextlib.contextmanager
def _counting(module_name: str, attr: str):
    """A one-item list that counts the calls of ``module_name.attr`` while the
    block runs."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(module, attr, counted)
    try:
        yield calls
    finally:
        setattr(module, attr, original)


def _answers(name: str, produce, scenarios) -> tuple[list, ...]:
    """Each scenario's answer leaves, or ``{"refused": <class name>}``, the
    simulations each scenario ran (all 0 for a producer not in ``PROBES``),
    the table searches each ran, the steps each simulated, the windows each
    refused and the windows each stepped with rows."""
    answers, probes, searches, steps, refused, rows = [], [], [], [], [], []
    counting = _counting(*PROBES[name]) if name in PROBES else contextlib.nullcontext([0])
    with (
        counting as calls,
        _counting("soplab.ecm", "bisect_right") as searched,
        _counting_steps() as stepped,
    ):
        for scenario in scenarios:
            before = calls[0], searched[0], *stepped
            try:
                answers.append(_leaves(produce(*scenario), []))
            except (AnalyticDomainError, InfeasibleStateError) as exc:
                answers.append({"refused": type(exc).__name__})
            probes.append(calls[0] - before[0])
            searches.append(searched[0] - before[1])
            steps.append(stepped[0] - before[2])
            refused.append(stepped[1] - before[3])
            rows.append(stepped[2] - before[4])
    return answers, probes, searches, steps, refused, rows


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


PARAMS_TEXT = "r0_ohm=0.05\nr1_ohm=0.03\ntau_s=10.0\ncapacity_ah=2.0\ncoulombic_eff=1.0\n"
# Malformed inputs, each in a ``validate`` request that is otherwise valid:
# (file, its text) replaces that file, (option, value) is appended. All exit
# 2 but ``params_comment``, whose comment and blank lines parse.
BAD_INPUTS = {
    "params_comment": ("params", "# README cell\n\n" + PARAMS_TEXT),
    "params_no_equals": ("params", PARAMS_TEXT.replace("r0_ohm=", "r0_ohm ")),
    "params_unknown_key": ("params", PARAMS_TEXT.replace("r1_ohm", "r2_ohm")),
    "params_missing_key": ("params", PARAMS_TEXT.replace("coulombic_eff=1.0\n", "")),
    "ocv_empty": ("ocv", ""),
    "ocv_blank_lines": ("ocv", "\n  \n\n"),
    "ocv_header_only": ("ocv", "soc,ocv_volts\n"),
    "ocv_three_columns": ("ocv", "soc,ocv_volts\n0,3.0,1\n1,4.2\n"),
    "soc_grid_two_fields": ("--soc-grid", "0.1:0.9"),
    "steps_not_a_number": ("--steps-list", "x"),
    "steps_zero": ("--steps-list", "0"),
    "steps_negative": ("--steps-list", "1,-3"),
}


def _cli_files(work: Path, rng: random.Random) -> dict[str, str]:
    texts = {
        "params": PARAMS_TEXT,
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


def bad_request(name: str, work: Path) -> list[str]:
    """The ``validate`` request with malformed input ``name``, its files
    written to ``work``."""
    files = _cli_files(work, random.Random(0))
    argv = [
        "validate", "--params", files["params"], "--ocv", files["ocv"], "--soa", files["soa"],
        "--vp=0.1", "--soc-grid", "0.2:0.8:0.2", "--steps-list", "1,10,30",
    ]
    what, text = BAD_INPUTS[name]
    if what.startswith("--"):
        return [*argv, what, text]
    Path(files[what]).write_text(text)
    return argv


def _run(argv: list[str], work: Path) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return {
        "code": code,
        "stdout": stdout.getvalue().replace(str(work), "<dir>"),
        "stderr": stderr.getvalue().replace(str(work), "<dir>"),
    }


def cli_outputs(seeds: tuple[int, ...]) -> dict[str, dict]:
    """Exit code, stdout and stderr of each request, keyed by seed, kind and
    variant, or by ``bad/`` and the malformed input's name; the input files'
    directory reads ``<dir>`` in the output."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            work = Path(tmp) / str(seed)
            work.mkdir()
            rng = random.Random(seed)
            files = _cli_files(work, rng)
            for kind in CLI_KINDS:
                for variant in range(CLI_VARIANTS):
                    out[f"seed{seed}/{kind}/{variant}"] = _run(_cli_argv(kind, files, rng), work)
        for name in BAD_INPUTS:
            work = Path(tmp) / name
            work.mkdir()
            out[f"bad/{name}"] = _run(bad_request(name, work), work)
    return out


def record(sizes: tuple[int, int, tuple[int, ...]] = FULL) -> dict:
    n_windows, n_states, seeds = sizes
    windows = seeded_windows(n_windows, 7, (1, 2, 10, 30, 300))
    grid = grid_scenarios(n_states, 1)
    answers, probes, searches, steps, refused, rows = {}, {}, {}, {}, {}, {}
    for cases, scenarios, producers in (
        ("windows", windows, WINDOW_PRODUCERS),
        ("grid", grid, GRID_PRODUCERS),
    ):
        for name, produce in producers.items():
            key = f"{cases}/{name}"
            answers[key], counts, searches[key], steps[key], refused[key], rows[key] = (
                _answers(name, produce, scenarios)
            )
            if name in PROBES:
                probes[key] = counts
    return {
        "answers": answers,
        "probes": probes,
        "searches": searches,
        "steps": steps,
        "refused": refused,
        "rows": rows,
        "cli": cli_outputs(seeds),
    }


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


def _mean(record: dict, counts: str, name: str) -> str:
    """The mean per solve of ``record[counts][name]``, or "-" where the
    record has none (a producer that runs no probe, or an older record)."""
    per_solve = record.get(counts, {}).get(name)
    return f"{sum(per_solve) / len(per_solve):.3f}" if per_solve else "-"


def _max(record: dict, counts: str, name: str) -> str:
    """The largest per-solve ``record[counts][name]``, or "-" as in ``_mean``."""
    per_solve = record.get(counts, {}).get(name)
    return str(max(per_solve)) if per_solve else "-"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines for two records, and whether an answer or a CLI request
    moved."""
    lines = [
        f"{'producer':<34} {'cases':>6} {'identical':>9} {'flips':>5}  {'max|delta|':<10}"
        f" {'sims A':>8} {'sims B':>8} {'max A':>6} {'max B':>6} {'search A':>8} {'search B':>8}"
        f" {'steps A':>9} {'steps B':>9} {'refuse A':>8} {'refuse B':>8}"
        f" {'rows A':>8} {'rows B':>8}"
    ]
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
        lines.append(
            f"{name:<34} {len(left):>6} {same:>9} {flips:>5}  {worst:<10.3g}"
            f" {_mean(a, 'probes', name):>8} {_mean(b, 'probes', name):>8}"
            f" {_max(a, 'probes', name):>6} {_max(b, 'probes', name):>6}"
            f" {_mean(a, 'searches', name):>8} {_mean(b, 'searches', name):>8}"
            f" {_mean(a, 'steps', name):>9} {_mean(b, 'steps', name):>9}"
            f" {_mean(a, 'refused', name):>8} {_mean(b, 'refused', name):>8}"
            f" {_mean(a, 'rows', name):>8} {_mean(b, 'rows', name):>8}"
        )
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
