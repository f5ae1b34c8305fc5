"""Judge one CLI outcome: failure, miss, points found, wrong answer.

A request *fails* when ``main`` raises, returns 2 on a generated valid
input, reports a numeric failure (exit 3 other than "no points found",
including a rejected self-check), prints a point that this module's own
``verify_point`` call rejects, or misses a known answer by more than
KNOWN_TOL. Exit 1 and exit 3 "no points found" are answers.

A request is a *miss* when a sufficient condition held but no point came
back: for ``solve`` a result group with ``hypothesis_satisfied: true`` and
no points, for ``classify`` any verdict Satisfied with
``has_flett_point: false``.

An answer is *wrong* (and the run not correct) when the program claims
success (exit 0) for a point that does not re-verify, asserts a verdict
that contradicts a known one, or answers (exit 0, or exit 3 "no points
found") without a known point. The known answers are the only check that
does not lean on mvtlab's own ``verify_point``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from mvtlab.expr import parse
from mvtlab.numerics import Interval, SolverConfig, SolverError
from mvtlab.verify import verify_point

from workloads import KNOWN_TOL, Outcome, Request

_CONDITIONS = ("flett", "trahan", "tong", "malesevic_t1", "malesevic_m1")


@dataclass(frozen=True)
class Judgement:
    failure: str | None = None
    miss: bool = False
    points: int = 0
    wrong: str | None = None


def judge(req: Request, out: Outcome) -> Judgement:
    try:
        return _judge(req, out)
    except (ValueError, KeyError, TypeError, SolverError) as exc:
        return Judgement(failure=f"report not checkable: {exc!r}")


def _judge(req: Request, out: Outcome) -> Judgement:
    if out.error is not None:
        return Judgement(failure=f"main raised {out.error}")
    if out.code == 2:
        return Judgement(failure="usage error on a valid input: "
                                 + out.stderr.strip()[:200])
    if req.command == "classify":
        return _judge_classify(req, out)
    return _judge_solve(req, out)


def _judge_classify(req: Request, out: Outcome) -> Judgement:
    if out.code != 0:
        return Judgement(failure=f"classify exited {out.code}")
    vec = json.loads(out.stdout)["condition_vector"]
    has = bool(vec["has_flett_point"])
    miss = not has and any(vec[k] == "Satisfied" for k in _CONDITIONS)
    for key, want in req.expect_verdicts.items():
        if vec[key] != want:
            msg = f"{key} is {vec[key]}, known to be {want}"
            return Judgement(failure=msg, miss=miss, points=int(has), wrong=msg)
    return Judgement(miss=miss, points=int(has))


def _judge_solve(req: Request, out: Outcome) -> Judgement:
    failure = None
    err = out.stderr.strip()
    if out.code == 3 and err != "no points found":
        failure = "exit 3: " + err.splitlines()[0][:200] if err else "exit 3"
    groups = json.loads(out.stdout)["results"] if out.stdout.strip() else []
    f = parse(req.fn)
    g = parse(req.gn) if req.gn is not None else None
    w = parse(req.weight) if req.weight is not None else None
    iv = Interval(req.a, req.b)
    cfg = SolverConfig() if req.scan_points is None else \
        SolverConfig(scan_points=req.scan_points)
    miss = False
    points = 0
    wrong = None
    for grp in groups:
        pts = grp["points"]
        if grp["hypothesis_satisfied"] is True and not pts:
            miss = True
        if not grp["degenerate"]:
            points += len(pts)
        for p in pts:
            chk = verify_point(grp["theorem_id"], p["xi"], f, g=g, weight=w,
                               iv=iv, n=req.n, cfg=cfg)
            if not chk.ok:
                msg = (f"{grp['theorem_id']} at xi={p['xi']!r} does not "
                       f"re-verify (defect {chk.defect:.3g})")
                failure = failure or msg
                if out.code == 0:
                    wrong = wrong or msg
    for tid, xi in req.expect_points.items():
        got = [p["xi"] for grp in groups if grp["theorem_id"] == tid
               for p in grp["points"]]
        if not any(abs(v - xi) <= KNOWN_TOL for v in got):
            msg = f"{tid}: known point {xi!r} missing, got {got}"
            failure = failure or msg
            if out.code == 0 or (out.code == 3 and err == "no points found"):
                wrong = wrong or msg
    return Judgement(failure=failure, miss=miss, points=points, wrong=wrong)
