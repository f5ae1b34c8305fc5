"""Headline checks: the behaviors the package promises, end to end.

Each test wraps its asserts in a labelled context so the terminal summary
prints one PASS/FAIL line per check. The property suites run on a coarse
scan grid for speed; when a sufficient condition holds but the coarse scan
comes back empty, the suite escalates to a fine grid before judging, since
a point hiding inside the first scan panel is a resolution artifact rather
than a counterexample.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import central_diff, record, substitute
from mvtlab.conditions import (
    Verdict, check_flett_condition, check_malesevic, classify, tong_means,
)
from mvtlab.expr import compile_fn, differentiate, parse
from mvtlab.flett import find_flett_points, meyers_points
from mvtlab.generalized import (
    cakmak_tiryaki_points, pawlikowska_points, riedel_sahoo_points,
    second_order_points,
)
from mvtlab.numerics import Interval, SolverConfig, SolverError, TheoremId
from mvtlab.operators import (
    lupu_4_6_points, thm_4_9_points, thm_4_10_points, weighted_norm_point,
)
from mvtlab.verify import verify_point

UNIT = Interval(0.0, 1.0)
FAST = SolverConfig(scan_points=256)
FINE = SolverConfig(scan_points=8192)
S = Verdict.Satisfied
N = Verdict.NotSatisfied
NA = Verdict.NotApplicable


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        record(label, False)
        raise
    record(label, True)


def test_criterion_1_cubic_point_is_fast():
    with criterion("1 tangent-chord point of x^3+2x-1 on [-2,2]: "
                   "xi = 1 within 1e-8, under 0.1 s"):
        f = parse("x^3+2*x-1")
        t0 = time.perf_counter()
        pts = find_flett_points(f, Interval(-2.0, 2.0))
        elapsed = time.perf_counter() - t0
        assert [p.xi for p in pts] == pytest.approx([1.0], abs=1e-8)
        assert elapsed < 0.1, f"took {elapsed:.3f} s"


def test_criterion_2_boundary_product_test():
    with criterion("2 x^3 on [-1/2,1]: xi = 0.25; slope test fails, "
                   "product test passes on its boundary"):
        f = parse("x^3")
        iv = Interval(-0.5, 1.0)
        pts = find_flett_points(f, iv)
        assert [p.xi for p in pts] == pytest.approx([0.25], abs=1e-8)
        assert check_flett_condition(f, iv) is N
        cv = classify(f, iv)
        assert cv.trahan is S
        assert cv.trahan_detail is Verdict.Boundary


def test_criterion_3_endpoint_singular_slopes():
    with criterion("3 asin on [-1,1]: mean test passes within 1e-8, "
                   "slope tests demote, point near 0.689"):
        f = parse("asin(x)")
        iv = Interval(-1.0, 1.0)
        m, i = tong_means(f, iv)
        assert abs(m - i) <= 1e-8
        cv = classify(f, iv)
        assert cv.tong is S
        assert cv.flett is NA and cv.trahan is NA
        pts = find_flett_points(f, iv)
        assert pts and pts[0].xi == pytest.approx(0.689, abs=0.01)


def test_criterion_4_full_condition_vector():
    with criterion("4 x^3 on [-2/3,1]: condition vector is exactly "
                   "(no, yes, no, yes, no) with a point present"):
        cv = classify(parse("x^3"), Interval(-2.0 / 3.0, 1.0))
        got = (cv.flett, cv.trahan, cv.tong, cv.malesevic_t1, cv.malesevic_m1)
        assert got == (N, S, N, S, N)
        assert cv.has_flett_point


def test_criterion_5_slope_gap_pair():
    with criterion("5 slope-gap pair on x^3/[0,1]: 0.75 and 0.25; "
                   "quadratics come back degenerate"):
        assert [p.xi for p in riedel_sahoo_points(parse("x^3"), UNIT)] \
            == pytest.approx([0.75], abs=1e-8)
        assert [p.xi for p in cakmak_tiryaki_points(parse("x^3"), UNIT)] \
            == pytest.approx([0.25], abs=1e-8)
        q = parse("x^2-3*x+1")
        assert riedel_sahoo_points(q, UNIT)[0].degenerate
        assert cakmak_tiryaki_points(q, UNIT)[0].degenerate


def test_criterion_6_alternating_sum():
    with criterion("6 order-2 sum on x^4-2x^2: xi = 1/3, matches the "
                   "second-derivative form to 1e-10; order 1 tracks the "
                   "base solver on 50 cubics within 1e-8"):
        f = parse("x^4-2*x^2")
        iv = Interval(-1.0, 1.0)
        paw = pawlikowska_points(f, iv, 2)
        assert [p.xi for p in paw] == pytest.approx([1.0 / 3.0], abs=1e-8)
        soa = second_order_points("anchored_at_a", f, iv)
        assert len(paw) == len(soa) == 1
        assert abs(paw[0].xi - soa[0].xi) <= 1e-10
        rng = random.Random(61)
        worst = 0.0
        for _ in range(50):
            g, jv = _slope_matched_cubic(rng)
            one = [p.xi for p in pawlikowska_points(g, jv, 1)]
            base = [p.xi for p in find_flett_points(g, jv)]
            assert len(one) == len(base) == 1
            worst = max(worst, abs(one[0] - base[0]))
        assert worst <= 1e-8, f"worst discrepancy {worst:.3g}"


def test_criterion_7_operator_identities():
    with criterion("7 operator identities: constant pair at 2-sqrt(2), "
                   "linear weight at 3/4, norm balance at 1/2, zero-mean "
                   "root re-verifies within 1e-8"):
        _, xi2, _ = lupu_4_6_points(parse("1"), parse("1"))
        assert xi2.xi == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
        pts = thm_4_10_points(parse("x"), parse("1"), parse("x"))
        assert [p.xi for p in pts] == pytest.approx([0.75], abs=1e-8)
        wp = weighted_norm_point(parse("sqrt(2)*sin(2*pi*x)"),
                                 parse("sqrt(2)*cos(2*pi*x)"), parse("x"))
        assert wp.xi == pytest.approx(0.5, abs=1e-6)
        f9, g9 = parse("sin(2*pi*x)"), parse("exp(x)")
        located = thm_4_9_points(f9, g9, UNIT)
        assert located
        for p in located:
            ic = verify_point(TheoremId.THM_4_9, p.xi, f9, g=g9, iv=UNIT)
            assert ic.ok
            assert ic.defect <= 1e-8 * max(1.0, abs(ic.lhs), abs(ic.rhs))


# ---------------------------------------------------------------------------
# Check 8: five fixed-seed property suites, 1000 cases each, 60 s combined


_suite_times: dict[str, float] = {}
_suite_pass: dict[str, bool] = {}


@contextmanager
def _suite(name):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        _suite_times[name] = time.perf_counter() - t0
        _suite_pass[name] = ok


def _slope_matched_cubic(rng):
    """Cubic with equal endpoint slopes: odd-degree terms about the
    interval midpoint, so the derivative is even about it."""
    c = rng.uniform(-2.0, 2.0)
    h = rng.uniform(0.4, 1.5)
    al = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
    ga = rng.uniform(-3.0, 3.0)
    de = rng.uniform(-3.0, 3.0)
    t = f"(x-({c!r}))"
    return (parse(f"({al!r})*{t}^3+({ga!r})*{t}+({de!r})"),
            Interval(c - h, c + h))


def _odd_about_midpoint(rng):
    """Odd quintic about the midpoint plus a constant: endpoint mean and
    integral mean coincide exactly."""
    c = rng.uniform(-2.0, 2.0)
    h = rng.uniform(0.4, 1.5)
    a1 = rng.uniform(-3.0, 3.0)
    a3 = rng.uniform(-2.0, 2.0)
    a5 = rng.uniform(-1.0, 1.0)
    de = rng.uniform(-3.0, 3.0)
    t = f"(x-({c!r}))"
    return (parse(f"({a1!r})*{t}+({a3!r})*{t}^3+({a5!r})*{t}^5+({de!r})"),
            Interval(c - h, c + h))


def _generic_poly(rng, dmin=2, dmax=5):
    deg = rng.randint(dmin, dmax)
    coeffs = [rng.uniform(-3.0, 3.0) for _ in range(deg + 1)]
    c = rng.uniform(-2.0, 2.0)
    h = rng.uniform(0.4, 1.5)
    text = "+".join(f"({co!r})*x^{i}" for i, co in enumerate(coeffs))
    return parse(text), Interval(c - h, c + h)


def test_criterion_8a_condition_soundness():
    with _suite("condition soundness"):
        rng = random.Random(101)
        satisfied = 0
        for k in range(1000):
            f, iv = (_generic_poly(rng) if k % 3 == 0 else
                     _slope_matched_cubic(rng) if k % 3 == 1 else
                     _odd_about_midpoint(rng))
            cv = classify(f, iv, FAST)
            if S not in (cv.flett, cv.trahan, cv.tong,
                         cv.malesevic_t1, cv.malesevic_m1):
                continue
            satisfied += 1
            if not cv.has_flett_point:
                assert find_flett_points(f, iv, FINE), \
                    f"condition held but no point for {f!r} on {iv}"
        assert satisfied >= 300


def test_criterion_8b_reflection_duality():
    with _suite("reflection duality"):
        rng = random.Random(202)
        tol = 10.0 * FAST.root_tol
        for k in range(1000):
            f, iv = _generic_poly(rng) if k % 2 else _slope_matched_cubic(rng)
            g = substitute(f, parse(f"({(iv.a + iv.b)!r})-x"))
            fl = sorted(p.xi for p in find_flett_points(f, iv, FAST)
                        if not p.degenerate)
            m3 = sorted(iv.a + iv.b - p.xi
                        for p in meyers_points(TheoremId.MEYERS_2_3, g,
                                               iv, FAST)
                        if not p.degenerate)
            rs = sorted(p.xi for p in riedel_sahoo_points(f, iv, FAST)
                        if not p.degenerate)
            ct = sorted(iv.a + iv.b - p.xi
                        for p in cakmak_tiryaki_points(g, iv, FAST)
                        if not p.degenerate)
            assert len(fl) == len(m3) and len(rs) == len(ct)
            for u, v in zip(fl, m3):
                assert abs(u - v) <= tol
            for u, v in zip(rs, ct):
                assert abs(u - v) <= tol


def test_criterion_8c_symbolic_vs_finite_difference():
    with _suite("symbolic vs finite-difference derivative"):
        rng = random.Random(303)
        wraps = ("{}", "sin({})", "cos({})", "exp(({})/20)")
        for k in range(1000):
            deg = rng.randint(1, 4)
            coeffs = [rng.uniform(-2.0, 2.0) for _ in range(deg + 1)]
            inner = "+".join(f"({co!r})*x^{i}" for i, co in enumerate(coeffs))
            f = parse(wraps[k % 4].format(inner))
            x = rng.uniform(-1.5, 1.5)
            sym = compile_fn(differentiate(f))(x)
            fd = central_diff(compile_fn(f), x)
            assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym), abs(fd))


def test_criterion_8d_points_reverify():
    with _suite("located points re-verify"):
        rng = random.Random(909)
        solvers = ((TheoremId.FLETT, find_flett_points),
                   (TheoremId.RIEDEL_SAHOO, riedel_sahoo_points),
                   (TheoremId.CAKMAK_TIRYAKI, cakmak_tiryaki_points))
        checked = 0
        for k in range(1000):
            f, iv = _slope_matched_cubic(rng) if k % 2 else _generic_poly(rng)
            for tid, solver in solvers:
                try:
                    pts = solver(f, iv, FAST)
                except SolverError:
                    continue
                for p in pts:
                    if p.degenerate:
                        continue
                    ic = verify_point(tid, p.xi, f, iv=iv, cfg=FAST)
                    checked += 1
                    assert ic.ok, f"{tid} at {p.xi} on {f!r}: {ic}"
        assert checked >= 1000


def test_criterion_8e_double_product_gives_two_points():
    with _suite("double product condition gives two points"):
        rng = random.Random(404)
        hits = 0
        for _ in range(1000):
            c4 = rng.uniform(0.5, 1.5)
            c3 = rng.uniform(-0.8, 0.8)
            c2 = rng.uniform(-5.0, -2.0)
            c1 = rng.uniform(-1.5, 1.5)
            iv = Interval(rng.uniform(-1.4, -0.7), rng.uniform(1.0, 2.0))
            f = parse(f"({c4!r})*x^4+({c3!r})*x^3+({c2!r})*x^2+({c1!r})*x")
            try:
                t1, m1 = check_malesevic(f, iv, FAST)
            except SolverError:
                continue
            if not (t1 is S and m1 is S):
                continue
            hits += 1
            pts = sorted(p.xi for p in find_flett_points(f, iv, FAST)
                         if not p.degenerate)
            distinct = [x for i, x in enumerate(pts)
                        if i == 0 or x - pts[i - 1] > 1e-6]
            if len(distinct) < 2:
                pts = sorted(p.xi for p in find_flett_points(f, iv, FINE)
                             if not p.degenerate)
                distinct = [x for i, x in enumerate(pts)
                            if i == 0 or x - pts[i - 1] > 1e-6]
            assert len(distinct) >= 2, f"{f!r} on {iv}: {pts}"
        assert hits >= 50, f"only {hits} double-product cases drawn"


def test_criterion_8_suite_budget():
    total = sum(_suite_times.values())
    ran_all = len(_suite_pass) == 5
    ok = ran_all and all(_suite_pass.values()) and total < 60.0
    record(f"8 five 1000-case property suites in {total:.1f} s "
           f"(budget 60 s)", ok)
    assert ran_all, "a property suite did not run"
    assert all(_suite_pass.values())
    assert total < 60.0
