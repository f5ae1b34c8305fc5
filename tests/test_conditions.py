"""Sufficient-condition checkers and the combined classification vector."""

import math
import random

import pytest

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
from mvtlab.numerics import DomainError, Interval, SolverError

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


class TestSharedContext:
    """classify runs the checkers on one context: one differentiability scan."""

    CASES = [("x^3", -2.0 / 3.0, 1.0), ("asin(x)", -1.0, 1.0), ("abs(x-0.3)", 0.0, 1.0),
             ("1/(x-0.5)", 0.0, 0.9), ("sqrt(x)", 0.0, 1.0), ("ln(x)", 0.0, 1.0),
             ("2", 0.0, 1.0)]

    @staticmethod
    def counted_scans(monkeypatch, raises=None):
        calls = []
        scan = mvtlab.conditions.differentiable_on_interior

        def counted(*args):
            calls.append(args)
            if raises is not None:
                raise raises
            return scan(*args)

        monkeypatch.setattr(mvtlab.conditions, "differentiable_on_interior", counted)
        return calls

    @pytest.mark.parametrize("fn, a, b", CASES)
    def test_classify_scans_once(self, monkeypatch, fn, a, b):
        calls = self.counted_scans(monkeypatch)
        classify(parse(fn), Interval(a, b))
        assert len(calls) == 1

    def test_classify_reads_the_endpoint_slopes_once(self, monkeypatch):
        # the point scan's hypothesis flag reads the context's slopes
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
        f, iv = parse(fn), Interval(a, b)

        def alone(check, failed):
            # classify's contract: a checker that raises reads NotApplicable
            try:
                return check(f, iv)
            except SolverError:
                return failed

        m, i = alone(tong_means, (None, None))
        want = (alone(check_flett_condition, NA), alone(check_trahan, NA),
                alone(check_tong, NA), *alone(check_malesevic, (NA, NA)),
                bool(alone(find_flett_points, [])), m, i)
        cv = classify(f, iv)
        assert vec(cv) + (cv.m_of_f, cv.i_of_f) == want

    def test_a_scan_that_raises_demotes_every_reader(self, monkeypatch):
        calls = self.counted_scans(monkeypatch, raises=DomainError("no scan"))
        cv = classify(parse("x^3"), Interval(-1.0, 1.0))
        assert len(calls) == 1
        assert (cv.flett, cv.trahan, cv.malesevic_t1, cv.malesevic_m1) == (NA,) * 4
        # the checkers that need no scan still run
        assert cv.tong is S and cv.has_flett_point is True
        with pytest.raises(DomainError):
            check_trahan(parse("x^3"), Interval(-1.0, 1.0))
