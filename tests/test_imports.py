"""The package's runtime imports: the standard library and itself, nothing else.

README: "Everything runs on the standard library." numpy, scipy, sympy and
mpmath may serve the tests and tools as oracles, never ``src/mvtlab``. The
same AST walk checks that every ``cfg`` parameter defaults to
``DEFAULT_CONFIG`` rather than to None.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mvtlab"


def imported(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_package_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    outside = {f"{path.name}: {name}" for path in modules for name in imported(path)
               if name not in sys.stdlib_module_names and name != "mvtlab"}
    assert not outside, sorted(outside)


def test_the_scan_sees_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import math\nfrom numpy import linalg\nfrom . import expr\n")
    assert imported(module) == {"math", "numpy"}


def none_config_defaults(path: Path) -> list[str]:
    """Where a ``cfg`` parameter defaults to None or is replaced by ``cfg or DEFAULT_CONFIG``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            pairs = [*zip(positional[len(positional) - len(a.defaults):], a.defaults),
                     *zip(a.kwonlyargs, a.kw_defaults)]
            found += [f"{path.name}:{node.lineno}: {arg.arg}=None" for arg, default in pairs
                      if arg.arg == "cfg" and isinstance(default, ast.Constant)
                      and default.value is None]
        elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            names = [v.id for v in node.values if isinstance(v, ast.Name)]
            if names == ["cfg", "DEFAULT_CONFIG"]:
                found.append(f"{path.name}:{node.lineno}: cfg or DEFAULT_CONFIG")
    return found


def test_every_config_parameter_defaults_to_the_default_config():
    # DEFAULT_CONFIG is frozen, so it is the default itself; None is not accepted
    found = [line for path in sorted(SRC.glob("*.py")) for line in none_config_defaults(path)]
    assert not found, found


def test_the_scan_sees_a_none_config(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(x, cfg=None):\n    return cfg or DEFAULT_CONFIG\n"
                      "def g(*, cfg=None): pass\n"
                      "def h(cfg=DEFAULT_CONFIG, n=None): return n or DEFAULT_CONFIG\n")
    assert sorted(none_config_defaults(module)) == [
        "m.py:1: cfg=None", "m.py:2: cfg or DEFAULT_CONFIG", "m.py:3: cfg=None"]
