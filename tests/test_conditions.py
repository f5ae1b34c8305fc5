"""Sufficient-condition checkers and the combined classification vector."""

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

import mvtlab.conditions
import mvtlab.expr
import mvtlab.flett
import mvtlab.generalized
import mvtlab.numerics
from mvtlab.conditions import (
    ConditionVector, Verdict, check_flett_condition, check_malesevic,
    check_tong, check_trahan, classify, phi1, phi1_prime_at_a, tong_means,
)
from mvtlab.expr import differentiate, evaluate, parse, unparse
from mvtlab.flett import find_flett_points
from mvtlab.mvt_points import integral_mvt_points
from mvtlab.numerics import (
    DEFAULT_CONFIG, DomainError, Interval, SolverConfig, SolverError, differentiable_on_interior,
    grid_points,
)

S = Verdict.Satisfied
N = Verdict.NotSatisfied
NA = Verdict.NotApplicable


def vec(cv: ConditionVector):
    return (cv.flett, cv.trahan, cv.tong, cv.malesevic_t1, cv.malesevic_m1,
            cv.has_flett_point)


class TestVerdict:
    def test_values_round_trip_as_strings(self):
        for v in Verdict:
            assert isinstance(v, str)
            assert str(v) == v.name == v.value


class TestFixtureVectors:
    """Four hand-checked functions covering all checker outcomes."""

    def test_cubic_symmetric_interval(self):
        cv = classify(parse("x^3"), Interval(-1.0, 1.0))
        assert vec(cv) == (S, S, S, S, N, True)
        assert cv.m_of_f == 0.0
        assert abs(cv.i_of_f) <= 1e-12

    def test_sine_over_three_half_periods(self):
        cv = classify(parse("sin(x)"), Interval(-math.pi / 2, 5 * math.pi / 2))
        assert vec(cv) == (S, S, S, S, N, True)

    def test_cubic_asymmetric_interval(self):
        cv = classify(parse("x^3"), Interval(-2.0 / 3.0, 1.0))
        assert vec(cv) == (N, S, N, S, N, True)
        assert cv.m_of_f == pytest.approx(19.0 / 54.0, rel=1e-12)
        assert cv.i_of_f == pytest.approx(13.0 / 108.0, rel=1e-9)

    def test_asin_derivative_blows_up_at_endpoints(self):
        cv = classify(parse("asin(x)"), Interval(-1.0, 1.0))
        assert vec(cv) == (NA, NA, S, NA, NA, True)


class TestTrahan:
    def test_zero_product_is_boundary_pass(self):
        # slope of x^3 at a = -1/2 equals the secant slope exactly
        cv = classify(parse("x^3"), Interval(-0.5, 1.0))
        assert cv.trahan is S
        assert cv.trahan_detail is Verdict.Boundary
        assert check_trahan(parse("x^3"), Interval(-0.5, 1.0)) is S

    def test_strictly_negative_product(self):
        assert check_trahan(parse("sin(x)"), Interval(0.0, math.pi / 2)) is N

    def test_detail_absent_off_the_boundary(self):
        cv = classify(parse("x^3"), Interval(-1.0, 1.0))
        assert cv.trahan_detail is None


class TestTong:
    def test_means_of_cubic(self):
        m, i = tong_means(parse("x^3"), Interval(-2.0 / 3.0, 1.0))
        assert m == pytest.approx(19.0 / 54.0, rel=1e-12)
        assert i == pytest.approx(13.0 / 108.0, rel=1e-9)

    def test_equal_means_satisfy(self):
        assert check_tong(parse("x^3"), Interval(-1.0, 1.0)) is S

    def test_abs_means_differ(self):
        # M = 1, I = 1/2: continuity is enough for Tong, so no demotion
        assert check_tong(parse("abs(x)"), Interval(-1.0, 1.0)) is N

    def test_nonfinite_grid_demotes(self):
        assert check_tong(parse("ln(x)"), Interval(-1.0, 1.0)) is NA

    @pytest.mark.parametrize("b, i", [
        (1.000000000001, 1.0000000000009999),      # read 0.99993040007812761
        (1.0000000000000002, 1.0),                 # one ulp wide: read pi/16
        (1.000000000000001, 1.0000000000000013),
    ])
    def test_narrow_intervals_keep_the_integral_mean(self, b, i):
        # x^2 on [1, b]: M and I both lie within a few ulps of 1, and the
        # integral-mvt scan finds f at its mean
        cv = classify(parse("x^2"), Interval(1.0, b))
        assert cv.i_of_f == i and cv.tong is S
        assert integral_mvt_points(parse("x^2"), Interval(1.0, b))


class TestMalesevic:
    def test_cubic_closed_forms(self):
        f = parse("x^3")
        a, b = -2.0 / 3.0, 1.0
        phi = phi1(f, a)
        assert phi(a) == 0.0
        assert phi(b) == pytest.approx(-5.0 / 9.0, rel=1e-12)
        assert phi1_prime_at_a(f, a) == pytest.approx(-2.0, rel=1e-12)

    def test_cubic_verdict_pair(self):
        t1, m1 = check_malesevic(parse("x^3"), Interval(-2.0 / 3.0, 1.0))
        assert (t1, m1) == (S, N)

    def test_nondifferentiable_demotes_both(self):
        t1, m1 = check_malesevic(parse("abs(x)"), Interval(-1.0, 1.0))
        assert (t1, m1) == (NA, NA)


class TestOneSidedReads:
    """Endpoint derivatives are read from inside the interval, past a kink at the endpoint."""

    @staticmethod
    def _polynomial(rng):
        """A random polynomial written plainly, and with each even power x^k
        as x^(k-1)*abs(x): the same function on [0, b]."""
        coeffs = [rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0)
                  for _ in range(rng.randint(3, 7))]
        plain = " + ".join(f"({c!r})*x^{k}" for k, c in enumerate(coeffs))
        kinked = " + ".join(f"({c!r})*x^{k - 1}*abs(x)" if k and k % 2 == 0 else f"({c!r})*x^{k}"
                            for k, c in enumerate(coeffs))
        return plain, kinked

    def test_an_even_power_through_abs_leaves_the_vector_unchanged(self):
        rng = random.Random(20219)
        cfg = mvtlab.numerics.SolverConfig(scan_points=256)
        for _ in range(100):
            plain, kinked = self._polynomial(rng)
            iv = Interval(0.0, rng.uniform(0.5, 3.0))
            want = vec(classify(parse(plain), iv, cfg))
            assert vec(classify(parse(kinked), iv, cfg)) == want, (plain, kinked, iv)

    @pytest.mark.parametrize("fn, value", [
        ("x*abs(x)", 1.0),      # f'' = 2*sgn(x), read past the kink at 0
        ("abs(x)^1.5", None),   # no one-sided f'' at 0
        ("x*sqrt(x^2)", None),  # f'' reads 0/0 at 0
    ])
    def test_phi1_prime_at_a_reads_from_the_right(self, fn, value):
        assert phi1_prime_at_a(parse(fn), 0.0) == value

    def test_phi1_reads_f_prime_from_the_right(self):
        # f'(0+) = 1, so phi(x) = x, not x + 1 as with sgn(0) = 0
        assert phi1(parse("abs(x)+x^2"), 0.0)(1e-3) == pytest.approx(1e-3, abs=1e-12)


class TestDemotion:
    def test_abs_kink_demotes_derivative_checkers(self):
        f = parse("abs(x)")
        iv = Interval(-1.0, 1.0)
        assert check_flett_condition(f, iv) is NA
        assert check_trahan(f, iv) is NA

    def test_sgn_jump_demotes(self):
        assert check_flett_condition(parse("sgn(x)"), Interval(-1.0, 1.0)) is NA


class TestClassify:
    def test_never_raises_on_unevaluable_function(self):
        cv = classify(parse("ln(x)"), Interval(-1.0, 1.0))
        assert vec(cv) == (NA, NA, NA, NA, NA, False)
        assert cv.m_of_f is None and cv.i_of_f is None

    def test_json_shape(self):
        d = classify(parse("x^3"), Interval(-1.0, 1.0)).to_json_dict()
        assert list(d) == ["flett", "trahan", "tong", "malesevic_t1",
                           "malesevic_m1", "has_flett_point", "M", "I"]
        assert d["flett"] == "Satisfied"
        assert d["has_flett_point"] is True
        assert "trahan_detail" not in d


COARSE = SolverConfig(scan_points=256)


def assert_classify_matches_the_checkers(f, iv, cfg):
    """classify's vector equals the public checkers' one by one, and its
    shared grid pass judges smoothness as differentiable_on_interior does."""

    def alone(check, failed):
        # classify's contract: a checker that raises reads NotApplicable
        try:
            return check(f, iv, cfg)
        except SolverError:
            return failed

    m, i = alone(tong_means, (None, None))
    want = (alone(check_flett_condition, NA), alone(check_trahan, NA),
            alone(check_tong, NA), *alone(check_malesevic, (NA, NA)),
            bool(alone(find_flett_points, [])), m, i)
    cv = classify(f, iv, cfg)
    assert vec(cv) + (cv.m_of_f, cv.i_of_f) == want
    ctx = mvtlab.conditions._Context(f, iv, cfg)
    assert alone(lambda *_: ctx.smooth, None) is alone(differentiable_on_interior, None)


_coef = st.integers(-30, 30).map(lambda k: k / 10.0)
_poly = st.lists(_coef, min_size=1, max_size=6).map(
    lambda cs: " + ".join(f"({c!r})*x^{k}" for k, c in enumerate(cs)))


@st.composite
def _drawn_case(draw):
    """(f, a, b): a polynomial, one with an abs() kink, asin or sqrt on
    [-1, 1] where f' blows up at the ends, or one with a pole at a."""
    kind = draw(st.sampled_from(["poly", "kink", "ends", "pole"]))
    p = draw(_poly)
    if kind == "ends":
        g = draw(st.sampled_from(["asin(x)", "sqrt(1-x^2)", "sqrt(x+1)", "x*asin(x)"]))
        return f"{g} + {p}", -1.0, 1.0
    a = draw(st.integers(-20, 10)) / 10.0
    b = a + draw(st.integers(1, 30)) / 10.0
    if kind == "kink":
        k = draw(st.integers(int(10 * a) - 5, int(10 * b) + 5)) / 10.0
        return f"{p} + ({draw(_coef)!r})*abs(x - ({k!r}))", a, b
    if kind == "pole":
        return f"{p} + 1/(x - ({a!r}))", a, b
    return p, a, b


class TestSharedContext:
    """classify runs the checkers on one context: one grid pass a request."""

    CASES = [("x^3", -2.0 / 3.0, 1.0), ("asin(x)", -1.0, 1.0), ("abs(x-0.3)", 0.0, 1.0),
             ("1/(x-0.5)", 0.0, 0.9), ("sqrt(x)", 0.0, 1.0), ("ln(x)", 0.0, 1.0),
             ("2", 0.0, 1.0)]

    @staticmethod
    def counted_builds(monkeypatch):
        """Each compile_residual build, as (its source, the grids its loop ran on)."""
        builds = []
        run = mvtlab.expr._run

        def counted(src, kind, glb):
            run(src, kind, glb)
            if kind == "compile_residual":
                loop, grids = glb["scan"], []
                builds.append((src, grids))
                glb["scan"] = lambda xs: (grids.append(xs), loop(xs))[1]

        monkeypatch.setattr(mvtlab.expr, "_run", counted)
        return builds

    @pytest.mark.parametrize("fn, a, b", CASES)
    def test_classify_scans_once(self, monkeypatch, fn, a, b):
        # one generated loop over the open grid; Brent polishing and the
        # crossing checks rerun it on one point at a time. ln(x) has no
        # finite f(a), so no Flett residual: its loop has no terms, gives
        # the columns alone and is never rerun
        builds = self.counted_builds(monkeypatch)
        monkeypatch.setattr(mvtlab.conditions, "differentiable_on_interior", None)
        iv = Interval(a, b)
        classify(parse(fn), iv)
        ((src, grids),) = builds
        assert ("put(r)" in src) is (fn != "ln(x)")
        assert grids[0] is grid_points(iv, DEFAULT_CONFIG)
        assert all(len(xs) == 1 for xs in grids[1:])
        assert fn != "ln(x)" or len(grids) == 1

    def test_classify_reads_the_endpoint_slopes_once(self, monkeypatch):
        # the checkers read the context's slopes; the point scan reads none
        calls = []
        slopes = mvtlab.generalized.endpoint_slopes

        def counted(*args):
            calls.append(args)
            return slopes(*args)

        for mod in (mvtlab.conditions, mvtlab.flett, mvtlab.generalized):
            monkeypatch.setattr(mod, "endpoint_slopes", counted)
        cv = classify(parse("x^3"), Interval(-2.0 / 3.0, 1.0))
        assert cv.has_flett_point and len(calls) == 1

    def test_no_tree_is_walked_twice(self, monkeypatch):
        # a single root keeps its walk, so the scan, the slopes, f''(a+),
        # the integral mean and every evaluate, print or derive read it
        walked = []  # holds the roots, so no id is reused
        walk = mvtlab.expr._postorder

        def recorded(roots):
            if len(roots) == 1 and getattr(roots[0], "_walk", None) is None:
                walked.append(roots[0])
            return walk(roots)

        monkeypatch.setattr(mvtlab.expr, "_postorder", recorded)
        cv = classify(parse("abs(x-0.3)+x^3"), Interval(0.0, 1.0))
        assert cv.m_of_f is not None and walked
        f = parse("exp(sin(x))*ln(x+2)")
        assert evaluate(f, 0.5) == evaluate(f, 0.5)
        assert unparse(f) == "exp(sin(x))*ln(x+2.0)"
        differentiate(f, 3)
        assert len({id(root) for root in walked}) == len(walked)

    @pytest.mark.parametrize("fn, a, b", CASES)
    def test_classify_matches_the_checkers_one_by_one(self, fn, a, b):
        assert_classify_matches_the_checkers(parse(fn), Interval(a, b), DEFAULT_CONFIG)

    @seed(2028)
    @settings(max_examples=60, deadline=None)
    @given(_drawn_case())
    def test_classify_matches_the_checkers_on_drawn_inputs(self, case):
        fn, a, b = case
        assert_classify_matches_the_checkers(parse(fn), Interval(a, b), COARSE)

    def test_a_scan_that_raises_demotes_every_reader(self, monkeypatch):
        calls = []

        def raising(*args):
            calls.append(args)
            raise DomainError("no scan")

        monkeypatch.setattr(mvtlab.conditions, "compile_residual", raising)
        cv = classify(parse("x^3"), Interval(-1.0, 1.0))
        assert len(calls) == 1
        assert (cv.flett, cv.trahan, cv.malesevic_t1, cv.malesevic_m1) == (NA,) * 4
        # the point search reads the same scan, so it finds no point
        assert cv.has_flett_point is False
        # the Tong check needs no scan and still runs
        assert cv.tong is S
        with pytest.raises(DomainError):
            check_trahan(parse("x^3"), Interval(-1.0, 1.0))

    def test_an_interval_with_no_float_inside_demotes_every_reader(self):
        # the one real input where the scan raises: its grid has no point
        iv = Interval(1.0, math.nextafter(1.0, 2.0))
        cv = classify(parse("x^3"), iv)
        assert (cv.flett, cv.trahan, cv.malesevic_t1, cv.malesevic_m1) == (NA,) * 4
        assert cv.has_flett_point is False and cv.tong is S
        with pytest.raises(DomainError):
            differentiable_on_interior(parse("x^3"), iv, DEFAULT_CONFIG)
        with pytest.raises(DomainError):
            find_flett_points(parse("x^3"), iv)

