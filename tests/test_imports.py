"""The package's runtime imports: the standard library and itself, nothing else.

README: "Everything runs on the standard library." numpy, scipy, sympy and
mpmath may serve the tests and tools as oracles, never ``src/mvtlab``. The
same AST walk checks that every ``cfg`` parameter defaults to
``DEFAULT_CONFIG`` rather than to None, and that every relative import a
module never reads is one that ``bench/tracer.py`` patches, named so in the
module's comment.
"""

import ast
import importlib.util
import re
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mvtlab"


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


_TRACER_COMMENT = re.compile(r"(.+) (?:is|are) unused here but bench/tracer\.py patches (?:it|them)")


def tracer_only(path: Path) -> tuple[set[str], set[str]]:
    """(unused, named): the relative imports a module never reads, and the
    names its "bench/tracer.py patches" comments give, on one line or more.
    """
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, str(path))
    imports = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                for elt in node.value.elts}
    blocks, block = [], []
    for line in [*text.splitlines(), ""]:
        if line.startswith("#"):
            block.append(line.lstrip("# "))
        elif block:
            blocks.append(" ".join(block))
            block = []
    named = {name for b in blocks for m in [_TRACER_COMMENT.search(b)] if m
             for name in re.split(r",\s*|\s+and\s+", m[1])}
    return imports - read - exported, named


def tracer_patched() -> set[tuple[str, str]]:
    """(module, name) of each module binding that bench/tracer.py's Tracer patches."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    bench_tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_tracer)
    tracer = bench_tracer.Tracer()
    try:
        tracer.install()
        return {(owner.__name__, attr) for owner, attr, _ in tracer._undo
                if isinstance(owner, types.ModuleType)}
    finally:
        tracer.uninstall()


def test_every_unused_import_is_one_the_tracer_patches():
    patched = tracer_patched()
    wrong = []
    for path in sorted(SRC.glob("*.py")):
        unused, named = tracer_only(path)
        wrong += [f"{path.name}: {name} is unused but not named" for name in unused - named]
        wrong += [f"{path.name}: {name} is named but read" for name in named - unused]
        wrong += [f"{path.name}: the tracer does not patch {name}" for name in named
                  if (f"mvtlab.{path.stem}", name) not in patched]
    assert not wrong, wrong


def test_the_scan_sees_an_unnamed_tracer_only_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("# integrate and close are unused here\n"
                      "# but bench/tracer.py patches them\n"
                      "from .numerics import close, grid_points, integrate, tolerance\n"
                      "from . import expr\n"
                      "__all__ = ['expr']\n"
                      "def f(cfg):\n    return tolerance(grid_points, cfg)\n")
    assert tracer_only(module) == ({"close", "integrate"}, {"close", "integrate"})
    module.write_text(module.read_text().replace("integrate and close are", "close is"))
    assert tracer_only(module) == ({"close", "integrate"}, {"close"})
