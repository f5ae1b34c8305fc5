"""Classical mean value theorem solvers against hand-derived values."""

import math

import pytest

import mvtlab.expr
from conftest import deep_abs_tree
from mvtlab.expr import parse
from mvtlab.mvt_points import (
    cauchy_points, integral_mean, integral_mvt_points, lagrange_points,
    rolle_hypothesis, rolle_points,
)
from mvtlab.numerics import DomainError, Interval, SolverConfig, TheoremId

PI = math.pi


class TestRolle:
    def test_parabola(self):
        pts = rolle_points(parse("x^2-1"), Interval(-1.0, 1.0))
        assert len(pts) == 1
        assert pts[0].xi == pytest.approx(0.0, abs=1e-10)
        assert pts.hypothesis_satisfied is True
        assert pts[0].theorem_id is TheoremId.ROLLE

    def test_sine(self):
        pts = rolle_points(parse("sin(x)"), Interval(0.0, PI))
        assert [p.xi for p in pts] == pytest.approx([PI / 2], abs=1e-10)

    def test_hypothesis_fails_but_search_runs(self):
        # f(a) != f(b): no zero of f' inside, flag reports the failure
        pts = rolle_points(parse("x^2"), Interval(0.25, 1.0))
        assert pts == []
        assert rolle_hypothesis(parse("x^2"), Interval(0.25, 1.0)) is False

    def test_hypothesis_none_on_blowup(self):
        assert rolle_hypothesis(parse("ln(x)"), Interval(0.0, 1.0)) is None

    def test_constant_degenerate(self):
        pts = rolle_points(parse("3"), Interval(0.0, 1.0))
        assert len(pts) == 1
        assert pts[0].degenerate


class TestLagrange:
    def test_cubic(self):
        pts = lagrange_points(parse("x^3"), Interval(0.0, 1.0))
        assert len(pts) == 1
        # exact mean slope point 1/sqrt(3)
        assert pts[0].xi == pytest.approx(0.5773502691896258, abs=1e-9)
        assert pts.hypothesis_satisfied is True

    def test_two_points(self):
        pts = lagrange_points(parse("sin(x)"), Interval(0.0, 2 * PI))
        assert [p.xi for p in pts] == pytest.approx([PI / 2, 3 * PI / 2],
                                                    abs=1e-9)

    def test_linear_degenerate(self):
        pts = lagrange_points(parse("2*x+1"), Interval(-1.0, 4.0))
        assert len(pts) == 1
        assert pts[0].degenerate

    def test_endpoint_blowup_raises(self):
        with pytest.raises(DomainError):
            lagrange_points(parse("ln(x)"), Interval(0.0, 1.0))

    def test_kinked_function_flag_is_none(self):
        # |x| still has a mean-slope point on an asymmetric interval but
        # interior differentiability cannot be certified
        pts = lagrange_points(parse("abs(x)"), Interval(-1.0, 2.0))
        assert pts.hypothesis_satisfied is None


class TestCauchy:
    def test_cubic_vs_square(self):
        pts = cauchy_points(parse("x^3"), parse("x^2"), Interval(1.0, 2.0))
        assert len(pts) == 1
        # 3xi^2 * 3 = 2xi * 7  =>  xi = 14/9
        assert pts[0].xi == pytest.approx(14 / 9, abs=1e-9)

    def test_reduces_to_lagrange_with_identity_g(self):
        f = parse("x^3")
        iv = Interval(0.0, 1.0)
        a = [p.xi for p in cauchy_points(f, parse("x"), iv)]
        b = [p.xi for p in lagrange_points(f, iv)]
        assert a == pytest.approx(b, abs=1e-9)

    def test_same_function_degenerate(self):
        pts = cauchy_points(parse("x^2"), parse("x^2"), Interval(0.0, 1.0))
        assert len(pts) == 1
        assert pts[0].degenerate

    def test_endpoint_blowup_raises(self):
        with pytest.raises(DomainError):
            cauchy_points(parse("1/x"), parse("x"), Interval(0.0, 1.0))


class TestIntegralMvt:
    def test_sine_crosses_its_mean_twice(self):
        pts = integral_mvt_points(parse("sin(x)"), Interval(0.0, PI))
        want = [math.asin(2 / PI), PI - math.asin(2 / PI)]
        assert [p.xi for p in pts] == pytest.approx(want, abs=1e-9)

    def test_frozen_values(self):
        pts = integral_mvt_points(parse("sin(x)"), Interval(0.0, PI))
        assert pts[0].xi == pytest.approx(0.69010709137454, abs=1e-9)
        assert pts[1].xi == pytest.approx(2.451485562215253, abs=1e-9)

    def test_linear_hits_mean_at_midpoint(self):
        pts = integral_mvt_points(parse("x"), Interval(0.0, 2.0))
        assert [p.xi for p in pts] == pytest.approx([1.0], abs=1e-9)

    def test_constant_degenerate(self):
        pts = integral_mvt_points(parse("2"), Interval(0.0, 1.0))
        assert len(pts) == 1
        assert pts[0].degenerate

    def test_discontinuous_raises(self):
        with pytest.raises(DomainError):
            integral_mvt_points(parse("ln(x)"), Interval(0.0, 1.0))

    @pytest.mark.parametrize("text, x", [
        ("ln(x)", "0.0"), ("1/(x-0.75) + 1/(x-0.25)", "0.25"), ("sqrt(0.5-x)", "0.625"),
    ])
    def test_the_error_names_the_first_non_finite_grid_point(self, text, x):
        with pytest.raises(DomainError) as err:
            integral_mean(parse(text), Interval(0.0, 1.0), SolverConfig(scan_points=9))
        assert str(err.value) == (f"f is not finite at x={x}; the mean value "
                                  "identity needs a continuous integrand")

    def test_a_fresh_f_is_lowered_once(self, monkeypatch):
        # the finiteness check and the integral read one compiled f
        lowered = []
        original = mvtlab.expr._lower

        def counted(roots, *args):
            lowered.append(roots)
            return original(roots, *args)

        monkeypatch.setattr(mvtlab.expr, "_lower", counted)
        f = parse("exp(0.3*x)*sin(x)")
        mean = integral_mean(f, Interval(0.0, 1.0), SolverConfig(scan_points=64))
        assert [len(roots) for roots in lowered] == [1] and lowered[0][0] is f
        exact = (math.exp(0.3) * (0.3 * math.sin(1.0) - math.cos(1.0)) + 1.0) / 1.09
        assert mean == pytest.approx(exact, rel=1e-12)

    def test_mean_of_a_deep_tree(self):
        # -|x - 0.5| under 5,000 levels of abs and Neg, past the recursion limit
        mean = integral_mean(deep_abs_tree(5000), Interval(0.0, 1.0),
                             SolverConfig(scan_points=64))
        assert mean == pytest.approx(-0.25, abs=1e-12)
