"""Every CLI request gets an answer or a documented exit code.

A seeded fuzz of all four subcommands, run in-process through ``cli.main``.
Every file field, flag and profile time is drawn from ordinary values and
the extremes 5e-324, 1e-300, 1e300, 1.7e308 and -0.0. Each request must exit
0, 1 or 2 with no exception but ``SystemExit``, and every number of an
exit-0 report must re-parse through ``fileio`` to the same bytes; the one
exception is the ``nan`` of a flagged row (``in_domain=false`` in
``sweep-error``, ``skipped`` in ``validate``).
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soplab import cli
from soplab.exceptions import InputError
from soplab.fileio import format_float, parse_float
from test_cli import OCV_TEXT, PARAMS_TEXT, SOA_TEXT

EXTREMES = (5e-324, 1e-300, 1e300, 1.7e308, -0.0)
# The last cell of a flagged row, whose figures may read nan, per command.
FLAGGED = {"sweep-error": "false", "validate": "skipped"}

README = {"params": PARAMS_TEXT, "ocv": OCV_TEXT, "soa": SOA_TEXT}


def value(*ordinary, signed=False):
    """A float from the menu: ordinary values eight times as often as the
    extremes, so that most requests get past the input checks."""
    extremes = EXTREMES + tuple(-x for x in EXTREMES) if signed else EXTREMES
    return st.sampled_from(ordinary * (8 * len(extremes) // len(ordinary)) + extremes)


def keyvalue(draw, menus):
    return "".join(f"{key}={draw(menu)!r}\n" for key, menu in menus.items())


@st.composite
def ocv_tables(draw):
    n = draw(st.integers(2, 4))
    socs = sorted({draw(value(i / (n - 1))) for i in range(n)})
    volts = [draw(value(3.0, 3.7))]
    for _ in socs[1:]:
        volts.append(volts[-1] + draw(value(0.6, 0.1, 0.0)))
    return "soc,ocv_volts\n" + "".join(f"{s!r},{v!r}\n" for s, v in zip(socs, volts))


@st.composite
def grids(draw, *ordinary):
    if draw(st.booleans()):
        cells = draw(st.lists(value(*ordinary, signed=True), min_size=1, max_size=3))
        return ",".join(map(repr, cells))
    start = draw(value(*ordinary, signed=True))
    stop = start + draw(value(0.02, 0.0))
    return f"{start!r}:{stop!r}:{draw(value(0.01, 0.005))!r}"


@st.composite
def requests(draw):
    """(files, argv): the input files' text, and argv without the file flags."""
    files = {
        "params": keyvalue(draw, {
            "r0_ohm": value(0.05, 0.01),
            "r1_ohm": value(0.03, 0.0),
            "tau_s": value(10.0, 100.0),
            "capacity_ah": value(2.0, 50.0),
            "coulombic_eff": value(1.0, 0.98),
        }),
        "ocv": draw(ocv_tables()),
        "soa": keyvalue(draw, {
            "vt_min": value(2.8, 3.0),
            "vt_max": value(4.3, 4.2),
            "i_max_dis": value(10.0, 4.0),
            "i_max_chg": value(-4.0, -10.0, signed=True),
            "soc_min": value(0.1, 0.0),
            "soc_max": value(0.9, 1.0),
        }),
    }
    command = draw(st.sampled_from(("sop", "sweep-error", "validate", "simulate")))
    argv = [
        command,
        f"--soc={draw(value(0.5, 0.2, 0.85))!r}",
        f"--vp={draw(value(0.0, 0.1, -0.3, signed=True))!r}",
        f"-K={draw(st.sampled_from((1, 2, 10, 30)))}",
        f"--dt={draw(value(1.0, 0.1))!r}",
        f"--direction={draw(st.sampled_from(('discharge', 'charge')))}",
    ]
    if command == "sop":
        argv.append(f"--mode={draw(st.sampled_from(cli.MODES))}")
        argv.append(f"--power-eval={draw(st.sampled_from(('end_of_window', 'min_over_window')))}")
        argv.append(f"--tol-watts={draw(value(1e-6, 1e-3))!r}")
    elif command == "sweep-error":
        argv.append(f"--source={draw(st.sampled_from(cli.ERROR_SOURCES))}")
        argv.append(f"--constraint={draw(st.sampled_from(cli.CONSTRAINTS))}")
        argv.append(f"--grid={draw(grids(0.0, 0.01, -0.01))}")
    elif command == "validate":
        argv.append(f"--soc-grid={draw(grids(0.5, 0.2, 0.8))}")
        steps = draw(st.lists(st.sampled_from((1, 2, 10, 30)), min_size=1, max_size=2))
        argv.append(f"--steps-list={','.join(map(str, steps))}")
        argv.append(f"--directions={draw(st.sampled_from(('both', 'discharge', 'charge')))}")
        argv.append(f"--tol={draw(value(1e-6, 1e-3))!r}")
    else:
        rows, t = [], draw(value(0.0, 1.0, signed=True))
        for _ in range(draw(st.integers(1, 5))):
            rows.append(f"{t!r},{draw(value(2.0, 0.0, -3.0, signed=True))!r}\n")
            t += draw(value(1.0, 10.0))
        files["profile"] = "t_s,current_a\n" + "".join(rows)
    return files, argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(workdir, files, argv):
    """Write the request's files and run it in-process: (exit code, stdout)."""
    paths = []
    for name, text in files.items():
        path = workdir / f"{name}.txt"
        path.write_text(text)
        paths += [f"--{name}", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main([argv[0], *paths, *argv[1:]])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def assert_answer_or_refusal(workdir, files, argv):
    code, report = run(workdir, files, argv)
    assert code in (0, 1, 2), report
    if code != 0:
        return
    flagged = FLAGGED.get(argv[0])
    for line in report.splitlines():
        cells = [line.partition("=")[2]] if "=" in line else line.split(",")
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                continue  # a word: a mode, a flag, a violation list
            if cell == "nan" and flagged is not None and cells[-1] == flagged:
                continue
            try:
                assert format_float(parse_float(cell, "report")) == cell, line
            except InputError:
                pytest.fail(f"{argv[0]} printed {line!r} at exit 0")


# A range grid whose only point rounds past its stop: sweep-error ended in a
# ValueError traceback.
EMPTY_RANGE = "0.0001234567890125:0.0001234567890125:1e-20"


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(request=requests())
@example(request=(README, ["sop", "--mode=cv"]))
@example(request=(README, ["validate", "--steps-list=10", f"--soc-grid={EMPTY_RANGE}"]))
@example(request=(README, ["sweep-error", "--source=soc", "--constraint=soc", f"--grid={EMPTY_RANGE}"]))
def test_every_request_answers_or_refuses(workdir, request):
    assert_answer_or_refusal(workdir, *request)
