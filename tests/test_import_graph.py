"""Each CLI process imports only what its subcommand runs, the oracle loads
nothing it validates, no process loads ``dataclasses`` or ``inspect``, and
none loads anything outside the standard library but ``soplab`` itself. One
source check rides along: the per-step window loops call no ``min`` or
``max``.

Every case runs in a fresh interpreter, because this process has already
imported the whole package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = ("ecm", "error_lab", "exceptions", "fileio", "modes", "oracle", "peak_cc", "soa")

# Start-up cost that no soplab process should pay (``inspect`` alone pulls in
# ``ast``, ``dis``, ``tokenize`` and ``linecache``).
HEAVY = {"dataclasses", "inspect"}

# Prints, as its last line, every module loaded after ``setup``.
PROBE = """\
import json, sys
{setup}
print(json.dumps(list(sys.modules)))
"""


def _loaded(setup, *argv):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    code = PROBE.format(setup=setup)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _soplab(modules):
    return {m for m in modules if m.startswith("soplab")}


@pytest.fixture
def files(tmp_path):
    texts = {
        "params": "r0_ohm=0.05\nr1_ohm=0.03\ntau_s=10\ncapacity_ah=2\ncoulombic_eff=1\n",
        "ocv": "soc,ocv_volts\n0,3.0\n1,4.2\n",
        "soa": "vt_min=2.8\nvt_max=4.3\ni_max_dis=10\ni_max_chg=-4\nsoc_min=0.1\nsoc_max=0.9\n",
        "profile": "t_s,current_a\n0,2\n1,3\n2,-1\n",
    }
    paths = {}
    for name, text in texts.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def _run_main(files, command, *extra):
    """setup and argv that run one subcommand on the fixture files."""
    if command == "simulate":
        extra = (*extra, files["profile"])
    common = ["--params", files["params"], "--ocv", files["ocv"], "--soa", files["soa"]]
    setup = "from soplab.cli import main; assert main(sys.argv[1:]) == 0"
    return setup, command, *common, *extra


COMMANDS = pytest.mark.parametrize(
    "argv, absent",
    [
        (["sop", "--mode", "cc"], {"modes", "oracle", "error_lab"}),
        (["sop", "--mode", "cp"], {"oracle", "error_lab"}),
        (["simulate", "--profile"], {"modes", "oracle", "error_lab"}),
        (["validate", "--soc-grid", "0.5", "--steps-list", "1"], {"modes", "error_lab"}),
        (["sweep-error", "--source", "soc", "--constraint", "soc", "--grid", "0"], {"modes", "oracle"}),
    ],
    ids=["sop-cc", "sop-cp", "simulate", "validate", "sweep-error"],
)


def test_package_import_loads_no_submodule():
    assert _soplab(_loaded("import soplab")) == {"soplab"}


def test_oracle_import_loads_nothing_it_validates():
    # The oracle shares only the model, the box and the exceptions with the
    # engines and closed forms it checks.
    loaded = _soplab(_loaded("import soplab.oracle"))
    assert loaded == {"soplab", "soplab.ecm", "soplab.exceptions", "soplab.soa", "soplab.oracle"}


@COMMANDS
def test_command_loads_only_what_it_runs(files, argv, absent):
    loaded = _soplab(_loaded(*_run_main(files, *argv)))
    assert "soplab.cli" in loaded
    assert loaded.isdisjoint(f"soplab.{name}" for name in absent)


@pytest.mark.parametrize("module", ["soplab", "soplab.ecm", "soplab.soa"])
def test_import_loads_no_heavy_module(module):
    bare = _loaded("pass")
    assert (_loaded(f"import {module}") - bare) & HEAVY == set()


@COMMANDS
def test_command_loads_no_heavy_module(files, argv, absent):
    bare = _loaded("pass")
    assert (_loaded(*_run_main(files, *argv)) - bare) & HEAVY == set()


def _beyond_stdlib(modules):
    """Top-level packages of ``modules`` that are neither the standard
    library's nor soplab."""
    return {m.partition(".")[0] for m in modules} - set(sys.stdlib_module_names) - {"soplab"}


def test_import_loads_only_the_standard_library():
    assert _beyond_stdlib(_loaded("import soplab") - _loaded("pass")) == set()


@COMMANDS
def test_command_loads_only_the_standard_library(files, argv, absent):
    # The runtime stays standard-library only; numpy, scipy and the rest are
    # test and benchmark tools.
    assert _beyond_stdlib(_loaded(*_run_main(files, *argv)) - _loaded("pass")) == set()


def test_submodules_resolve_after_importing_only_the_cli():
    # Tests and tools reach soplab.oracle etc. as package attributes (and
    # monkeypatch them there) after importing soplab.cli alone.
    setup = f"""\
import soplab.cli
for name in {SUBMODULES!r}:
    assert getattr(soplab, name) is sys.modules["soplab." + name]
assert soplab.oracle.brute_peak_current_cc.__module__ == "soplab.oracle"
"""
    assert _soplab(_loaded(setup)) == {"soplab", "soplab.cli", *(f"soplab.{n}" for n in SUBMODULES)}


# The per-step window loops: a builtin call per step costs more than the rest
# of the step's arithmetic on CPython 3.11, so each clamps by comparisons.
HOT_LOOPS = {"modes": ("_trace",), "oracle": ("_cc_feasible", "_cp_feasible_trace")}


@pytest.mark.parametrize(
    "module, function",
    [(module, function) for module, names in HOT_LOOPS.items() for function in names],
)
def test_window_loops_call_no_min_or_max(module, function):
    tree = ast.parse((SRC / "soplab" / f"{module}.py").read_text(encoding="utf-8"))
    (func,) = (
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function
    )
    loops = [node for node in ast.walk(func) if isinstance(node, ast.For)]
    assert loops, f"{module}.{function} has no for loop"
    calls = [
        f"line {node.lineno}: {node.func.id}("
        for loop in loops
        for statement in loop.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("min", "max")
    ]
    assert calls == [], f"{module}.{function} calls min or max per step: {calls}"
