"""The benchmark's own tests, run from this suite.

``bench/tests`` drives ``bench/tracer.py``, which patches bindings of the
mvtlab modules by name, and ``bench/checks.py``, which calls
``verify_point``; a change to the package that drops such a binding or
breaks that call fails here. They run in a subprocess: ``tests/`` and
``bench/tests/`` each have a ``conftest`` that their tests import by name,
so one pytest run cannot collect both.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_benchmark_s_tests_pass():
    run = subprocess.run([sys.executable, "-m", "pytest", "bench/tests", "-q"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
