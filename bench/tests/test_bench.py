"""Tests of the benchmark itself: generators, checks, and the tracer.

Run with ``python -m pytest bench/tests -q`` from the repository root.
The runs here use a few requests per workload, not the full lists.
"""

import json
import random
from collections import Counter

import pytest

import run
import workloads
from checks import judge
from mvtlab.cli import main as mvtlab_main
from workloads import LIST_LEN, WORKLOADS, Outcome, request_list

# small prefixes of the request lists, sized to keep the suite short
SMALL = {"pointwise": 12, "operator": 3, "classify-coarse": 21, "high-order": 3}

DETERMINISTIC = ("calls", "grid_points", "F_evals", "term_evals",
                 "integrand_evals", "builds", "evals", "integrate_calls",
                 "out_nodes", "node_evals", "bracket_yield",
                 "integrate_per_eval", "differentiable_scans_per_classify")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = request_list(workload, 5)
    assert len(first) == LIST_LEN[workload]
    assert first == request_list(workload, 5)
    other = request_list(workload, 6)
    assert [r.argv for r in first] != [r.argv for r in other]
    # the stratum mix of the list does not depend on the seed
    mix = lambda reqs: Counter((r.command, r.theorem, r.n, r.family) for r in reqs)
    assert mix(first) == mix(other)
    assert len({r.argv for r in first}) == len(first)
    assert any(r.expect_points or r.expect_verdicts for r in first)
    known, per_round, _ = workloads.SHAPE[workload]
    make_known, make_round = workloads._ROUNDS[workload]
    assert (len(make_known()), len(make_round(random.Random(0)))) == (known, per_round)


def test_slope_matched_cubic_known_point():
    from mvtlab import Interval, find_flett_points, parse
    fn, a, b, xi = workloads.slope_matched_cubic(random.Random(3))
    got = [p.xi for p in find_flett_points(parse(fn), Interval(a, b))]
    assert got == pytest.approx([xi], abs=workloads.KNOWN_TOL)


def test_checks_flag_failures_and_wrong_points():
    req = request_list("pointwise", 1)[0]
    assert judge(req, Outcome(2, "", "usage error: x")).failure
    assert judge(req, Outcome(None, "", "", "ZeroDivisionError()")).failure
    flett = workloads._solve("flett", "x^3+2*x-1", -2.0, 2.0,
                             expect={"flett": 1.0})
    report = {"results": [{"theorem_id": "flett", "hypothesis_satisfied": True,
                           "points": [{"xi": 0.5, "residual": 0.0}],
                           "degenerate": False}]}
    j = judge(flett, Outcome(0, json.dumps(report), ""))
    assert j.wrong and j.failure and j.points == 1
    report["results"][0]["points"] = []
    j = judge(flett, Outcome(3, json.dumps(report), "no points found\n"))
    assert j.miss and j.failure and j.wrong
    # a numeric failure the program reports itself is a failure, not wrong
    j = judge(flett, Outcome(3, json.dumps(report), "self-check failed\n"))
    assert j.failure and not j.wrong


def test_known_answer_missing_makes_run_not_correct():
    # x^3+2x-1 on [-2, 2] has its Flett point at 1; an answer that drops it
    # re-verifies point by point, so only the known answer can catch it
    flett = workloads._solve("flett", "x^3+2*x-1", -2.0, 2.0,
                             expect={"flett": 1.0})
    good = run.call_main(mvtlab_main, flett.argv)
    assert good.code == 0 and not judge(flett, good).failure
    report = json.loads(good.stdout)
    for grp in report["results"]:
        grp["points"] = [p for p in grp["points"] if abs(p["xi"] - 1.0) > 1e-6]
    dropped = Outcome(0, json.dumps(report), "")
    res = run.check([flett, flett], [good, dropped], 2)
    assert res["wrong"] and res["wrong"][0][0] == 1
    assert (res["attempted"], res["failed"]) == (2, 1)


def test_tail_percentile_leaves_ten_samples_beyond():
    lat = [float(i) for i in range(100)]
    q, value, beyond = run.tail_percentile(lat, 49)
    assert q == 79 and beyond >= 10 and value == lat[-beyond - 1]
    assert run.tail_percentile(lat[:49], 49)[2] == 10


def test_timed_loop_stops_after_whole_rounds():
    reqs, outs, lat, wall, refs, setup = run.run_untraced(
        "classify-coarse", 2, 0.0, mvtlab_main)
    assert len(reqs) == len(outs) == len(lat) == LIST_LEN["classify-coarse"]
    assert reqs == request_list("classify-coarse", 2) and wall >= sum(lat)
    assert len(refs) >= 1 + sum(lat) // (2 * run.REF_EVERY_S)
    assert len(setup) >= max(run.SETUP_MIN, sum(lat) // (2 * run.SETUP_EVERY_S))


def _traced(workload, seed=2):
    n = SMALL[workload]
    reqs, plain, traced, _, _, tracer = run.run_traced(workload, seed, mvtlab_main, n)
    assert not tracer.missing
    res = run.check(reqs, plain, n)
    counts = {k: v for k, (v, _) in tracer.metrics().items()
              if k.rsplit(".", 1)[-1] in DETERMINISTIC}
    counts.update({k: res[k] for k in ("failure_share", "miss_share", "points_found")})
    return plain, traced, counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_tracing_keeps_outputs(workload):
    plain, traced, counts = _traced(workload)
    # the instrumentation cannot change a single byte of any answer
    assert [o.stdout for o in traced] == [o.stdout for o in plain]
    assert traced == plain
    assert counts["cli.main.calls"] == SMALL[workload]
    assert _traced(workload)[2] == counts
    # the tracer leaves the program as it found it
    assert run.call_main(mvtlab_main, request_list(workload, 2)[0].argv) == plain[0]
