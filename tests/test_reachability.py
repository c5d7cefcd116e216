"""Every function written in src/rigidkit runs under a CLI command or an
acceptance criterion.

The runs of tools/report_set.py go through ``cli.main`` in-process at five
samples (at two, the Heisenberg branch of ``param_add`` is never reached), and
one more verify-all runs under the negative control for the failure paths.  A function, method,
lambda or comprehension of src/rigidkit/*.py that none of them enters fails the
test, unless EXEMPT names it or the function it is written in.
"""

import ast
import importlib.util
import inspect
import json
import pathlib
import sys

import rigidkit
from rigidkit import cli
from rigidkit.relations import SUITES

from reference import negate_opposite_factors

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path(rigidkit.__file__).resolve().parent

# name -> (why no command has to enter it, the name tests/test_acceptance.py
# imports to reach it); the inner code of an exempt function is exempt with it
EXEMPT = {
    "generators.w_closed_form": ("criterion 3", "w_closed_form"),
    "generators.PermDiag.matrix": ("criterion 3", "w_closed_form"),
    "lyapunov.bracket_generation_check": ("criterion 8", "bracket_generation_check"),
    "lyapunov._rank_of_span": ("criterion 8", "bracket_generation_check"),
    "matrixcore.bracket": ("criterion 8", "bracket_generation_check"),
    "matrixcore.basis_matrix": ("criterion 8", "bracket_generation_check"),
    "rootsystem.root_space_basis": ("criterion 8", "bracket_generation_check"),
    "lyapunov.dim_group": ("criteria 1 and 8", "dim_group"),
    "words.reconstruct": ("criterion 6", "reconstruct"),
    "relations.CommutatorTable.to_json": ("writes tests/golden/commutators.json", None),
}


def _report_runs():
    spec = importlib.util.spec_from_file_location("report_set", ROOT / "tools" / "report_set.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.runs(SUITES)


def _package_code() -> dict:
    """Name -> code object of every function, method, lambda and comprehension
    in src/rigidkit/*.py, compiled afresh from the source: a code object compares
    equal to the one the import compiled from the same text.  Class and module
    bodies, which run at import, are walked but not listed."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if inspect.iscode(const):
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_OPTIMIZED:
                    if const.co_name.startswith("<"):   # <lambda>, <listcomp>, ...
                        name += f"@{const.co_firstlineno}"
                    found[name] = const
                walk(const, name)
    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return found


def _exempt(name: str) -> bool:
    return any(name == e or name.startswith(e + ".") for e in EXEMPT)


def test_every_function_is_reached(monkeypatch, tmp_path, capsys):
    functions = _package_code()
    # methods, properties, cached functions and inner functions are listed
    assert {"relations._Words.get", "relations.SuiteReport.passed", "rootsystem.root_table",
            "rootsystem.RootLabel.kind", "cli._int_at_least.parse",
            "matrixcore.Tolerance.__post_init__"} <= set(functions)
    assert set(EXEMPT) <= set(functions), sorted(set(EXEMPT) - set(functions))
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert {entry for _, entry in EXEMPT.values() if entry} <= imported

    # a cached function runs its body only on a miss, so every cache starts empty
    for module in [m for name, m in sys.modules.items() if name.startswith("rigidkit.")]:
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                value.cache_clear()
    monkeypatch.chdir(tmp_path)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for _, argv, files in _report_runs():
            for file, content in files.items():
                (tmp_path / file).write_text(json.dumps(content))
            if "--samples" in argv:
                argv[argv.index("--samples") + 1] = "5"
            cli.main(argv)
        negate_opposite_factors(monkeypatch)
        control = cli.main(["verify-all", "--family", "so", "--m", "6", "--n", "3",
                            "--samples", "5", "--json"])
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert control == 1
    missed = {name for name, code in functions.items() if code not in entered}
    unreached = sorted(name for name in missed if not _exempt(name))
    assert not unreached, "never entered: " + ", ".join(unreached)
    # an exemption that a command reaches is stale
    assert set(EXEMPT) <= missed, sorted(set(EXEMPT) - missed)
