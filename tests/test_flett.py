"""Flett points and the endpoint-anchored variant family."""

import math

import pytest

from mvtlab.expr import evaluate, parse, substitute
from mvtlab.flett import (
    find_flett_points, flett_residual, meyers_hypothesis, meyers_points,
)
from mvtlab.generalized import endpoint_slopes
from mvtlab.numerics import DEFAULT_CONFIG, Interval, TheoremId
from mvtlab.verify import verify_point

PI = math.pi
FAMILY = (TheoremId.FLETT, TheoremId.MEYERS_2_3, TheoremId.MEYERS_2_4,
          TheoremId.MEYERS_2_5, TheoremId.MEYERS_2_6, TheoremId.MEYERS_2_7,
          TheoremId.MEYERS_2_8, TheoremId.MEYERS_2_9)


def xs(points):
    return [p.xi for p in points]


class TestFlettPoints:
    def test_worked_cubic(self):
        pts = find_flett_points(parse("x^3+2*x-1"), Interval(-2.0, 2.0))
        assert xs(pts) == pytest.approx([1.0], abs=1e-9)
        assert pts.hypothesis_satisfied is True
        assert pts[0].theorem_id is TheoremId.FLETT

    def test_cubic_on_symmetric_interval(self):
        pts = find_flett_points(parse("x^3"), Interval(-1.0, 1.0))
        assert xs(pts) == pytest.approx([0.5], abs=1e-9)

    def test_point_exists_without_hypothesis(self):
        # f'(-1/2) != f'(1), yet the tangent-chord point is there
        pts = find_flett_points(parse("x^3"), Interval(-0.5, 1.0))
        assert xs(pts) == pytest.approx([0.25], abs=1e-9)
        assert pts.hypothesis_satisfied is False

    def test_asymmetric_cubic_interval(self):
        pts = find_flett_points(parse("x^3"), Interval(-2 / 3, 1.0))
        assert xs(pts) == pytest.approx([1 / 3], abs=1e-9)

    def test_arcsine(self):
        pts = find_flett_points(parse("asin(x)"), Interval(-1.0, 1.0))
        assert xs(pts) == pytest.approx([0.6891577366451644], abs=1e-9)
        assert pts.hypothesis_satisfied is None

    @pytest.mark.parametrize("fn, a, b", [
        ("x^3+2*x-1", -2.0, 2.0), ("x^3", -0.5, 1.0), ("asin(x)", -1.0, 1.0),
    ])
    def test_given_slopes_give_the_same_points_and_flag(self, fn, a, b):
        f, iv = parse(fn), Interval(a, b)
        slopes = endpoint_slopes(f, iv, DEFAULT_CONFIG)
        given = find_flett_points(f, iv, slopes=slopes)
        read = find_flett_points(f, iv)
        assert xs(given) == xs(read)
        assert given.hypothesis_satisfied == read.hypothesis_satisfied

    def test_sine_long_interval(self):
        pts = find_flett_points(parse("sin(x)"), Interval(-PI / 2, 5 * PI / 2))
        assert len(pts) == 3
        assert xs(pts)[1] == pytest.approx(3 * PI / 2, abs=1e-9)

    def test_tangency_identity_holds_at_points(self):
        f = parse("sin(x)")
        iv = Interval(-PI / 2, 5 * PI / 2)
        for p in find_flett_points(f, iv):
            lhs = evaluate(parse("cos(x)"), p.xi)
            rhs = (math.sin(p.xi) - math.sin(iv.a)) / (p.xi - iv.a)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_quadratic_has_no_flett_point(self):
        # residual (x-a)^2 never crosses zero inside
        pts = find_flett_points(parse("x^2"), Interval(0.0, 1.0))
        assert pts == []

    def test_kinked_function_degenerate_half(self):
        # |x| satisfies the identity everywhere left of the kink
        pts = find_flett_points(parse("abs(x)"), Interval(-1.0, 1.0))
        assert len(pts) == 1
        assert pts[0].degenerate
        assert -1.0 < pts[0].xi < 0.0


class TestFlettResidual:
    def test_closed_form(self):
        r = flett_residual(parse("x^3+2*x-1"), -2.0)
        for x in (-1.5, 0.0, 0.5, 1.9):
            assert r(x) == pytest.approx(2 * (x - 1) * (x + 2) ** 2, rel=1e-12, abs=1e-12)

    def test_vanishes_at_anchor(self):
        r = flett_residual(parse("sin(x)"), 0.3)
        assert r(0.3) == 0.0


class TestHypotheses:
    def test_flett_hypothesis_cases(self):
        flett = TheoremId.FLETT
        assert meyers_hypothesis(flett, parse("x^3"), Interval(-1.0, 1.0)) is True
        assert meyers_hypothesis(flett, parse("x^3"), Interval(-0.5, 1.0)) is False
        assert meyers_hypothesis("flett", parse("asin(x)"), Interval(-1.0, 1.0)) is None

    def test_first_four_variants_share_equal_slopes(self):
        f = parse("x^3")
        iv = Interval(-1.0, 1.0)
        for v in FAMILY[:4]:
            assert meyers_hypothesis(v, f, iv) is True

    def test_product_conditions_on_cubic(self):
        # f = x^3 on [-2/3, 1]: w = 5/3, f(b)-f(a) = 35/27,
        # f'(a) = 4/3, f'(b) = 3
        f = parse("x^3")
        iv = Interval(-2 / 3, 1.0)
        assert meyers_hypothesis(TheoremId.MEYERS_2_6, f, iv) is True
        assert meyers_hypothesis(TheoremId.MEYERS_2_7, f, iv) is True
        assert meyers_hypothesis(TheoremId.MEYERS_2_8, f, iv) is False
        assert meyers_hypothesis(TheoremId.MEYERS_2_9, f, iv) is False

    def test_product_conditions_none_when_slope_missing(self):
        f = parse("asin(x)")
        iv = Interval(-1.0, 1.0)
        for v in FAMILY[4:]:
            assert meyers_hypothesis(v, f, iv) is None


class TestMeyersVariants:
    def test_2_4_frozen_root(self):
        pts = meyers_points(TheoremId.MEYERS_2_4, parse("x^3"), Interval(-0.5, 1.0))
        assert xs(pts) == pytest.approx([0.5265832935870833], abs=1e-9)

    def test_2_3_reflected_cubic(self):
        pts = meyers_points(TheoremId.MEYERS_2_3, parse("(1/2-x)^3"),
                            Interval(-0.5, 1.0))
        assert xs(pts) == pytest.approx([0.25], abs=1e-9)

    def test_2_3_is_reflection_dual_of_flett(self):
        f = parse("x^3+2*x-1")
        iv = Interval(-2.0, 2.0)
        # reflect through the midpoint: g(x) = f(a+b-x)
        g = substitute(f, parse(f"{iv.a + iv.b}-x"))
        flett = xs(find_flett_points(f, iv))
        dual = sorted(iv.a + iv.b - x for x in xs(meyers_points(TheoremId.MEYERS_2_3, g, iv)))
        assert dual == pytest.approx(flett, abs=1e-9)

    def test_2_6_point(self):
        pts = meyers_points(TheoremId.MEYERS_2_6, parse("x^3"), Interval(-2 / 3, 1.0))
        assert len(pts) == 1
        assert pts.hypothesis_satisfied is True
        # residual 3x^2(x+2/3) - 35/27 at the root
        x = pts[0].xi
        assert 3 * x * x * (x + 2 / 3) == pytest.approx(35 / 27, abs=1e-9)

    def test_2_8_linear_has_no_points(self):
        # the residual of a nonconstant linear f is a nonzero constant, so
        # there is nothing to find and the strict product test fails on zero
        pts = meyers_points(TheoremId.MEYERS_2_8, parse("3*x+1"), Interval(0.0, 1.0))
        assert pts == []
        assert meyers_hypothesis(TheoremId.MEYERS_2_8, parse("3*x+1"),
                                 Interval(0.0, 1.0)) is False

    def test_2_8_constant_degenerate(self):
        pts = meyers_points(TheoremId.MEYERS_2_8, parse("5"), Interval(0.0, 1.0))
        assert len(pts) == 1
        assert pts[0].degenerate

    def test_each_variant_solves_its_own_identity(self):
        f = parse("x^3-x")
        iv = Interval(-0.25, 1.5)
        cfg = DEFAULT_CONFIG
        for v in FAMILY:
            for p in meyers_points(v, f, iv, cfg):
                if p.degenerate:
                    continue
                chk = verify_point(v, p.xi, f, iv=iv, cfg=cfg)
                assert chk.lhs == pytest.approx(chk.rhs, rel=1e-7, abs=1e-7), v


class TestQuotientSides:
    """The stated quotient form, as re-verification evaluates it."""

    def test_flett_quotient_matches_residual_roots(self):
        chk = verify_point(TheoremId.FLETT, 1.0, parse("x^3+2*x-1"),
                           iv=Interval(-2.0, 2.0))
        assert chk.lhs == pytest.approx(chk.rhs, abs=1e-12)

    def test_quotient_blows_up_at_anchor(self):
        chk = verify_point(TheoremId.FLETT, 1e-300, parse("x^2"),
                           iv=Interval(0.0, 1.0))
        assert chk.rhs == pytest.approx(1e-300, abs=1e-12)
