"""``--stable`` solve reports against a committed golden set.

tests/fixtures/stable_golden.jsonl holds one ``solve --stable`` request per
theorem (the README examples and acceptance inputs) with the exit code and
stdout captured while operator scans still ran one quadrature per scan
point. Pointwise theorems must reproduce it byte for byte. The operator
theorems now read their scan values from prefix integrals cached on the
scan grid, built with one step per run of four grid panels on their
nodes alone (Simpson against Simpson on the halves, with cubic rules for
the nodes between, each exact on cubics; adaptive Simpson panel by panel
where a step fails its error test), which moves results by quadrature
roundoff only: they must keep the exit code,
request block, groups, hypothesis and degenerate flags and point counts,
with every xi (and reported weighted norm) within 1e-12. The residual at a
point is roundoff-sized and is not compared.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from mvtlab.cli import main

GOLDEN = Path(__file__).parent / "fixtures" / "stable_golden.jsonl"
CASES = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
OPERATOR_THEOREMS = {"thm-4.9", "thm-4.10", "weighted-norm", "lupu-4.6", "lupu-4.7"}
XI_TOL = 1e-12


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["argv"][1] for c in CASES])
def test_stable_report_matches_golden(case):
    code, out = _run(case["argv"])
    assert code == case["code"]
    if case["argv"][1] not in OPERATOR_THEOREMS:
        assert out == case["stdout"]
        return
    got, want = json.loads(out), json.loads(case["stdout"])
    assert got["request"] == want["request"]
    assert len(got["results"]) == len(want["results"])
    for g, w in zip(got["results"], want["results"]):
        for key in ("theorem_id", "hypothesis_satisfied", "degenerate"):
            assert g[key] == w[key]
        assert len(g["points"]) == len(w["points"])
        for gp, wp in zip(g["points"], w["points"]):
            assert abs(gp["xi"] - wp["xi"]) <= XI_TOL
        assert g.get("weighted_norms", []) == pytest.approx(
            w.get("weighted_norms", []), abs=XI_TOL)
