"""tools/stable_compare.py, the what-moved report, on made-up request records."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "stable_compare.py"
_SPEC = importlib.util.spec_from_file_location("stable_compare", _PATH)
stable_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stable_compare)


def record(key, code=0, out=None, err=""):
    return {"key": key, "argv": ["solve", key[0]], "code": code,
            "stdout": "" if out is None else json.dumps(out), "stderr": err}


def classify(flett, i):
    return {"condition_vector": {"flett": flett, "M": 0.5, "I": i}}


def solve(*xis, degenerate=False, norms=None):
    group = {"theorem_id": "t", "hypothesis_satisfied": True,
             "points": [{"xi": x, "residual": 0.0} for x in xis],
             "degenerate": degenerate}
    if norms is not None:
        group["weighted_norms"] = norms
    return {"results": [group]}


PARENT = [
    record(["pointwise", 1, 0], out=solve(0.25)),
    record(["pointwise", 1, 1], out=solve(0.5)),
    record(["operator", 1, 0], out=solve(0.3, norms=[2.0, 2.0])),
    record(["classify-coarse", 1, 0], out=classify("Satisfied", 4.0)),
    record(["classify-coarse", 1, 1], out=classify("Boundary", 1.0)),
    record(["high-order", 1, 0], code=3, err="self-check failed"),
    record(["high-order", 1, 1], out=solve(0.07, 0.9, degenerate=True)),
]
CHANGE = [
    PARENT[0],
    record(["pointwise", 1, 1], out=solve(0.5 + 3e-12)),
    record(["operator", 1, 0], out=solve(0.3, norms=[2.0 + 4e-12, 2.0])),
    record(["classify-coarse", 1, 0], out=classify("Satisfied", 4.0 + 2e-13)),
    record(["classify-coarse", 1, 1], out=classify("NotSatisfied", 1.0)),
    record(["high-order", 1, 0], out=solve(0.9)),
    record(["high-order", 1, 1], code=1, out=solve()),
]


def test_report(monkeypatch, capsys):
    runs = {Path("/parent"): PARENT, stable_compare.ROOT: CHANGE}
    monkeypatch.setattr(stable_compare, "run", lambda checkout: runs[checkout])
    assert stable_compare.main(["/parent"]) == 1  # answers moved
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("moved lines: pointwise 1/2, operator 1/1, "
                        "classify-coarse 2/2, high-order 2/2")
    assert lines[1:4] == ["exit-code changes: 2",
                          "  high-order 1 0: 3 -> 0  solve high-order",
                          "  high-order 1 1: 0 -> 1  solve high-order"]
    assert lines[4:6] == ["condition-vector changes (M and I left out): 1",
                          "  classify-coarse 1 1 flett: Boundary -> NotSatisfied"]
    assert lines[6:9] == ["point-count and flag changes: 2",
                          "  high-order 1 1 t: 2 -> 0 points",
                          "  high-order 1 1 t degenerate: True -> False"]
    assert lines[9].startswith("largest |delta xi|: 3e-12 (pointwise 1 1 t)")
    assert lines[10] == "largest relative delta I: 5e-14 (classify-coarse 1 0)"
    assert lines[11] == ("largest relative delta of a weighted norm: 2e-12 "
                         "(operator 1 0 t)")


def test_identical_runs_report_nothing(monkeypatch, capsys):
    monkeypatch.setattr(stable_compare, "run", lambda checkout: PARENT)
    assert stable_compare.main(["/parent"]) == 0
    out = capsys.readouterr().out
    assert "pointwise 0/2" in out and "exit-code changes: 0" in out
    assert "largest |delta xi|: 0\n" in out


def test_any_moved_answer_exits_1(monkeypatch, capsys):
    # one changed stderr line is a moved answer, though no number moved
    change = PARENT[:-1] + [dict(PARENT[-1], stderr="warning")]
    runs = {Path("/parent"): PARENT, stable_compare.ROOT: change}
    monkeypatch.setattr(stable_compare, "run", lambda checkout: runs[checkout])
    assert stable_compare.main(["/parent"]) == 1
    assert "high-order 1/2" in capsys.readouterr().out
