"""Slope-gap corrected identities and the order-n alternating sum."""

import math

import pytest

from mvtlab.expr import parse, substitute
from mvtlab.generalized import (
    MAX_SUM_ORDER, cakmak_tiryaki_points, endpoint_slopes, pawlikowska_hypothesis,
    pawlikowska_points, riedel_sahoo_points,
    second_order_points,
)
from mvtlab.flett import find_flett_points
from mvtlab.numerics import DEFAULT_CONFIG, DomainError, Interval, SolverConfig


def xs(points):
    return [p.xi for p in points]


class TestEndpointSlopes:
    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, SolverConfig(endpoint_margin=0.0),
                                     SolverConfig(endpoint_margin=0.25)])
    @pytest.mark.parametrize("text,a,b,want", [
        # an abs()/sgn() argument exactly 0 on an endpoint: sgn(0) = 0 is
        # no one-sided slope
        ("abs(x-0.3)", 0.3, 1.0, (1.0, 1.0)),
        ("x^2+abs(x)", 0.0, 1.0, (1.0, 3.0)),
        ("abs(x)", -1.0, 0.0, (-1.0, -1.0)),
        # an infinite one-sided slope stays None, written either way
        ("sqrt(abs(x))", 0.0, 1.0, (None, 0.5)),
        ("sqrt(x)", 0.0, 1.0, (None, 0.5)),
        # a kink inside, and a zero slope without one, read f' on the endpoint
        ("abs(x)", -1.0, 1.0, (-1.0, 1.0)),
        ("x^3", 0.0, 1.0, (0.0, 3.0)),
    ])
    def test_one_sided_slopes(self, text, a, b, want, cfg):
        # read on the endpoint or a few ulps inside: the margin moves nothing
        assert endpoint_slopes(parse(text), Interval(a, b), cfg) == want


class TestRiedelSahoo:
    def test_cubic(self):
        pts = riedel_sahoo_points(parse("x^3"), Interval(0.0, 1.0))
        assert xs(pts) == pytest.approx([0.75], abs=1e-9)

    def test_quadratic_degenerate(self):
        pts = riedel_sahoo_points(parse("x^2-3*x+1"), Interval(0.0, 1.0))
        assert len(pts) == 1
        assert pts[0].degenerate

    def test_no_hypothesis_field(self):
        # the correction term replaces a hypothesis, nothing to report
        pts = riedel_sahoo_points(parse("x^3"), Interval(0.0, 1.0))
        assert pts.hypothesis_satisfied is None

    def test_reduces_to_flett_when_slopes_agree(self):
        f = parse("x^3+2*x-1")
        iv = Interval(-2.0, 2.0)
        assert xs(riedel_sahoo_points(f, iv)) == pytest.approx(
            xs(find_flett_points(f, iv)), abs=1e-9)

    def test_missing_endpoint_slope_raises(self):
        with pytest.raises(DomainError):
            riedel_sahoo_points(parse("sqrt(x)"), Interval(0.0, 1.0))


class TestCakmakTiryaki:
    def test_cubic(self):
        pts = cakmak_tiryaki_points(parse("x^3"), Interval(0.0, 1.0))
        assert xs(pts) == pytest.approx([0.25], abs=1e-9)

    def test_mirror_of_riedel_sahoo(self):
        f = parse("x^3-x")
        iv = Interval(-0.5, 1.25)
        g = substitute(f, parse(f"{iv.a + iv.b}-x"))
        mirrored = sorted(iv.a + iv.b - x for x in xs(riedel_sahoo_points(g, iv)))
        assert xs(cakmak_tiryaki_points(f, iv)) == pytest.approx(mirrored, abs=1e-9)

    def test_quadratic_degenerate(self):
        pts = cakmak_tiryaki_points(parse("2*x^2+x"), Interval(-1.0, 1.0))
        assert len(pts) == 1
        assert pts[0].degenerate

    def test_missing_endpoint_slope_raises(self):
        with pytest.raises(DomainError):
            cakmak_tiryaki_points(parse("asin(x)"), Interval(-1.0, 1.0))


class TestSecondOrder:
    def test_anchored_at_a(self):
        pts = second_order_points("anchored_at_a", parse("x^4-2*x^2"),
                                  Interval(-1.0, 1.0))
        assert xs(pts) == pytest.approx([1 / 3], abs=1e-9)
        assert pts.hypothesis_satisfied is True

    def test_anchored_at_b_quartic(self):
        # residual for x^4-2x^2 anchored at b is (x-1)^2 (9x^2+2x-3),
        # interior roots (-1 +- 2*sqrt(7))/9
        pts = second_order_points("anchored_at_b", parse("x^4-2*x^2"),
                                  Interval(-1.0, 1.0))
        want = [(-1.0 - 2.0 * math.sqrt(7.0)) / 9.0,
                (-1.0 + 2.0 * math.sqrt(7.0)) / 9.0]
        assert xs(pts) == pytest.approx(want, abs=1e-9)
        assert pts.hypothesis_satisfied is True

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            second_order_points("anchored_at_c", parse("x^3"), Interval(0, 1))

    def test_hypothesis_helper(self):
        assert pawlikowska_hypothesis(parse("x^4-2*x^2"),
                                      Interval(-1.0, 1.0), 2) is True
        assert pawlikowska_hypothesis(parse("x^3"),
                                      Interval(0.0, 1.0), 2) is False

    def test_quadratic_degenerate(self):
        pts = second_order_points("anchored_at_a", parse("x^2+x"),
                                  Interval(0.0, 1.0))
        assert len(pts) == 1
        assert pts[0].degenerate


class TestPawlikowska:
    def test_order_two(self):
        pts = pawlikowska_points(parse("x^4-2*x^2"), Interval(-1.0, 1.0), 2)
        assert xs(pts) == pytest.approx([1 / 3], abs=1e-9)
        assert pts.hypothesis_satisfied is True

    def test_order_one_is_flett(self):
        f = parse("x^3+2*x-1")
        iv = Interval(-2.0, 2.0)
        assert xs(pawlikowska_points(f, iv, 1)) == pytest.approx(
            xs(find_flett_points(f, iv)), abs=1e-11)

    def test_low_degree_polynomial_degenerate(self):
        # degree <= n satisfies the alternating sum identically
        pts = pawlikowska_points(parse("x^3"), Interval(-1.0, 1.0), 3)
        assert len(pts) == 1
        assert pts[0].degenerate

    def test_transcendental_high_order(self):
        pts = pawlikowska_points(parse("sin(x)"), Interval(0.0, 2 * math.pi), 4)
        assert pts
        assert all(0.0 < p.xi < 2 * math.pi for p in pts)

    def test_forced_zero_at_a_is_not_a_point(self):
        # the residual vanishes to order n+1 at a; its flat stretch there
        # once came back as a degenerate point at 0.0703
        pts = pawlikowska_points(parse("exp(sin(x))*ln(x+2)"), Interval(0.0, 3.0), 6)
        assert xs(pts) == pytest.approx([0.908963374046370, 1.876510885074194,
                                         2.909644321885707], abs=1e-12)
        assert not any(p.degenerate for p in pts)

    @pytest.mark.parametrize("bad", [0, -1, 13, 2.0, True, "2"])
    def test_order_validation(self, bad):
        with pytest.raises(ValueError):
            pawlikowska_points(parse("x^3"), Interval(0.0, 1.0), bad)

    def test_cap_is_exported(self):
        assert MAX_SUM_ORDER == 12
        assert pawlikowska_points(parse("x^2"), Interval(0.0, 1.0),
                                  MAX_SUM_ORDER)[0].degenerate

    def test_hypothesis_helper_orders(self):
        f = parse("x^4")
        iv = Interval(-1.0, 1.0)
        assert pawlikowska_hypothesis(f, iv, 2) is True
        # f' is odd and nonzero at the endpoints, so the slopes differ
        assert pawlikowska_hypothesis(f, iv, 1) is False

    def test_endpoint_blowup_raises(self):
        with pytest.raises(DomainError):
            pawlikowska_points(parse("ln(x)"), Interval(0.0, 1.0), 2)
