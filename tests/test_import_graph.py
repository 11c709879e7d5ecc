"""Each CLI process imports only what its subcommand runs, the oracle loads
nothing it validates, no process loads ``dataclasses`` or ``inspect``, and
none loads anything outside the standard library but ``soplab`` itself. One
source check rides along: the code that runs once per window step calls no
``min``, ``max`` or ``abs``.

Every case runs in a fresh interpreter, because this process has already
imported the whole package.
"""

import ast
import functools
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


@pytest.fixture(scope="module")
def bare():
    """The modules a bare interpreter loads, computed once for this file."""
    return _loaded("pass")


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
def test_import_loads_no_heavy_module(bare, module):
    assert (_loaded(f"import {module}") - bare) & HEAVY == set()


@COMMANDS
def test_command_loads_no_heavy_module(bare, files, argv, absent):
    assert (_loaded(*_run_main(files, *argv)) - bare) & HEAVY == set()


def _beyond_stdlib(modules):
    """Top-level packages of ``modules`` that are neither the standard
    library's nor soplab."""
    return {m.partition(".")[0] for m in modules} - set(sys.stdlib_module_names) - {"soplab"}


def test_import_loads_only_the_standard_library(bare):
    assert _beyond_stdlib(_loaded("import soplab") - bare) == set()


@COMMANDS
def test_command_loads_only_the_standard_library(bare, files, argv, absent):
    # The runtime stays standard-library only; numpy, scipy and the rest are
    # test and benchmark tools.
    assert _beyond_stdlib(_loaded(*_run_main(files, *argv)) - bare) == set()


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


# Code that runs once per window step: a builtin call per step costs more than
# the rest of the step's arithmetic on CPython 3.11, so it clamps and bounds
# by comparisons instead. The set is read from the source, so a new loop, a
# renamed function or a new closure is covered without editing this file.
PER_STEP_MODULES = ("ecm", "modes", "oracle")
PER_STEP_BANNED = {"min", "max", "abs"}


@functools.cache
def _tree(module):
    """Parsed once, so every derivation below sees the same nodes."""
    return ast.parse((SRC / "soplab" / f"{module}.py").read_text(encoding="utf-8"))


def _functions(module):
    """``(qualname, node, top_level)`` for every function of ``module`` outside
    its classes, nested ones under their enclosing functions' names."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.FunctionDef):
                yield prefix + node.name, node, not prefix
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.For, ast.While, ast.With, ast.Try)):
                yield from walk(ast.iter_child_nodes(node), prefix)

    return list(walk(_tree(module).body, ""))


def _is_window_loop(node):
    """A ``for`` over ``range(...)`` whose arguments read ``window.steps``."""
    return (
        isinstance(node, ast.For)
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Name)
        and node.iter.func.id == "range"
        and any(
            isinstance(n, ast.Attribute)
            and n.attr == "steps"
            and isinstance(n.value, ast.Name)
            and n.value.id == "window"
            for n in ast.walk(node.iter)
        )
    )


def _bare_calls(nodes):
    return {
        n.func.id
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }


def _ecm_calls(nodes):
    """Names of the ``ecm.<name>(...)`` calls in ``nodes``."""
    return {
        n.func.attr
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "ecm"
    }


def _per_step_code():
    """``{(module, qualname): nodes}``: the code that runs once per window step.

    That is the body of every window loop (keyed by its function), every
    same-module top-level function such code calls by bare name, every
    top-level ``ecm`` function that code in ``modes`` or ``oracle`` calls as
    ``ecm.<name>`` (the OCV segment a loop seeks on leaving its own), and
    every nested function of ``PER_STEP_MODULES`` named like a local that it
    calls (the ``drive`` callables a loop is handed), followed
    transitively; a function counts whole."""
    functions = {module: _functions(module) for module in PER_STEP_MODULES}
    top = {m: {q: n for q, n, is_top in fs if is_top} for m, fs in functions.items()}
    nested = {}
    for module, found in functions.items():
        for qualname, node, is_top in found:
            if not is_top:
                nested.setdefault(node.name, []).append((module, qualname, node))
    code = {}
    pending = []
    for module, found in functions.items():
        for qualname, node, _ in found:
            loops = [n for n in ast.walk(node) if _is_window_loop(n)]
            if loops:
                code[module, qualname] = [s for loop in loops for s in loop.body]
                pending.append((module, code[module, qualname]))
    while pending:
        module, nodes = pending.pop()
        callees = []
        for name in _bare_calls(nodes):
            if name in top[module]:
                callees.append((module, name, top[module][name]))
            else:
                callees += nested.get(name, [])
        if module != "ecm":
            callees += [("ecm", n, top["ecm"][n]) for n in _ecm_calls(nodes) & top["ecm"].keys()]
        for callee_module, qualname, node in callees:
            key = callee_module, qualname
            if node not in code.get(key, ()):
                code[key] = [*code.get(key, ()), node]
                pending.append((callee_module, [node]))
    return code


PER_STEP = _per_step_code()


@pytest.mark.parametrize(
    "module, qualname", sorted(PER_STEP), ids=[f"{m}-{q}" for m, q in sorted(PER_STEP)]
)
def test_window_loops_call_no_min_or_max(module, qualname):
    calls = [
        f"line {node.lineno}: {node.func.id}("
        for statement in PER_STEP[module, qualname]
        for node in ast.walk(statement)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in PER_STEP_BANNED
    ]
    assert calls == [], f"{module}.{qualname} calls min, max or abs per step: {calls}"


def test_per_step_code_is_read_from_the_source():
    # The derivation finds the window loops, what they call and the closures
    # they are handed; were it to find nothing, the check above would pass
    # on nothing. The one window loop, ``ecm._window``, seeks a new OCV
    # segment through ``ecm._seek``, which clamps at the table's ends through
    # ``ecm.ocv``, and calls the step callbacks that ``modes`` and the CP
    # oracle hand it, each a closure named ``drive``: the oracle's Newton law
    # among them.
    assert {
        ("ecm", "_window"),
        ("oracle", "_cc_feasible"),
        ("ecm", "predict_cc"),
        ("oracle", "_newton_law.drive"),
        ("ecm", "_seek"),
        ("ecm", "ocv"),
        ("ecm", "_segment"),
    } <= set(PER_STEP)
    assert {"_seek", "drive"} <= _bare_calls(PER_STEP["ecm", "_window"])
    drives = [node for m in ("modes", "oracle") for _, node, _ in _functions(m) if node.name == "drive"]
    checked = [node for nodes in PER_STEP.values() for node in nodes]
    assert len(drives) >= 2 and all(node in checked for node in drives)
