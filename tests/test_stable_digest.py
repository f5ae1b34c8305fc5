"""tools/stable_digest.py, the same-answers check, on one request per workload."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from mvtlab.cli import main

_PATH = Path(__file__).resolve().parent.parent / "tools" / "stable_digest.py"
_SPEC = importlib.util.spec_from_file_location("stable_digest", _PATH)
stable_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stable_digest)


@pytest.mark.parametrize("workload", stable_digest.WORKLOADS)
def test_digest_repeats_and_hashes_the_report(capsys, workload):
    argv = list(stable_digest.request_list(workload, 1)[0].argv)
    first = stable_digest.digest(argv)
    assert stable_digest.digest(argv) == first
    code = main(argv)
    out = capsys.readouterr().out
    assert first[:2] == (code, hashlib.sha256(out.encode("utf-8")).hexdigest())
