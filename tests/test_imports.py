"""The package's runtime imports: the standard library and itself, nothing else.

README: "Everything runs on the standard library." numpy, scipy, sympy and
mpmath may serve the tests and tools as oracles, never ``src/mvtlab``.
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
