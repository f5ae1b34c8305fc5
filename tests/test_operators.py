"""Running-integral operators on [0, 1] and the identities built on them."""

import math
import random

import pytest

from mvtlab.expr import compile_fn, parse
from mvtlab.numerics import (
    DomainError, HypothesisError, Interval, QuadratureError, SolverConfig,
    TheoremId, grid_points, integrate,
)
from mvtlab.flett import find_flett_points
from mvtlab.operators import (
    OperatorValue, apply_S, apply_T, apply_V, apply_V_weighted,
    cauchy_flett_hypothesis, cauchy_flett_points, lupu_4_6_points,
    lupu_4_7_points, thm_4_9_points, thm_4_10_points, weighted_norm_point,
    weighted_norms,
)

SAMPLE_TS = [0.0, 0.0312, 0.25, 0.333333, 0.5, 0.70001, 0.875, 0.9999, 1.0]


class TestOperatorValue:
    def test_prefix_cache_matches_direct_quadrature(self):
        fc = lambda x: math.exp(x)
        v = OperatorValue(None, fc)
        for t in SAMPLE_TS:
            assert v(t) == pytest.approx(math.exp(t) - 1.0, abs=1e-9)

    def test_pointwise_part_is_added(self):
        v = OperatorValue(lambda t: 10.0 * t, lambda x: 1.0)
        assert v(0.5) == pytest.approx(5.5, abs=1e-10)

    def test_out_of_range_falls_back_to_quadrature(self):
        v = OperatorValue(None, lambda x: 1.0, Interval(0.25, 0.75))
        assert v(0.1) == pytest.approx(-0.15, abs=1e-9)
        assert v(0.9) == pytest.approx(0.65, abs=1e-9)

    def test_grid_nodes_cost_no_quadrature(self):
        # the scan grid is the node set: evaluating there only reads the
        # prefix, which still matches direct quadrature from a
        calls = [0]

        def integrand(x):
            calls[0] += 1
            return math.exp(x) * math.cos(3.0 * x)

        iv, cfg = Interval(0.25, 1.75), SolverConfig(scan_points=512)
        v = OperatorValue(lambda t: 2.0 * t, integrand, iv, cfg)
        nodes = grid_points(iv, cfg)
        calls[0] = 0
        values = [v(t) for t in nodes]
        assert calls[0] == 0
        for t, got in zip(nodes, values):
            want = 2.0 * t + integrate(integrand, iv.a, t, cfg)
            assert abs(got - want) <= 10 * cfg.quad_tol * (1.0 + abs(got))

    def test_nonfinite_node_matches_direct_quadrature(self):
        # sin(x)/x is 0/0 at the interior node x = 0; the panels on both
        # sides fall back to one-sided endpoint samples
        sinc = compile_fn(parse("sin(x)/x"))
        iv = Interval(-1.0, 1.0)
        cfg = SolverConfig(scan_points=513, endpoint_margin=0.0)
        nodes = grid_points(iv, cfg)
        assert nodes[256] == 0.0 and math.isnan(sinc(0.0))
        v = OperatorValue(None, sinc, iv, cfg)
        for t in nodes[::8] + [0.0, 1e-3, 1.0]:
            got = v(t)
            # direct quadrature would sample 0 as an interior point: split there
            if t <= 0.0:
                want = integrate(sinc, iv.a, t, cfg)
            else:
                want = integrate(sinc, iv.a, 0.0, cfg) + integrate(sinc, 0.0, t, cfg)
            assert abs(got - want) <= 10 * cfg.quad_tol * (1.0 + abs(got))

    def test_unbounded_integrand_raises(self):
        with pytest.raises(QuadratureError):
            OperatorValue(None, compile_fn(parse("1/sqrt(x)")))


class TestApplyHelpers:
    def test_apply_V_cubes(self):
        v = apply_V(parse("x^2"))
        for t in SAMPLE_TS:
            assert v(t) == pytest.approx(t ** 3 / 3.0, abs=1e-9)

    def test_apply_T_subtracts_running_integral(self):
        v = apply_T(parse("x^2"))
        for t in SAMPLE_TS:
            assert v(t) == pytest.approx(t * t - t ** 3 / 3.0, abs=1e-9)

    def test_apply_S_weights_by_t(self):
        v = apply_S(parse("x^2"))
        for t in SAMPLE_TS:
            assert v(t) == pytest.approx(t ** 3 - t ** 4 / 4.0, abs=1e-9)

    def test_apply_V_weighted_multiplies(self):
        v = apply_V_weighted(parse("x"), parse("x^2"))
        for t in SAMPLE_TS:
            assert v(t) == pytest.approx(t ** 4 / 4.0, abs=1e-9)

    def test_T_and_S_track_polynomial_antiderivatives(self):
        # T(p)(t) = p(t) - P(t) and S(p)(t) = t p(t) - Q(t) with P, Q the
        # antiderivatives of p and x p fixed at 0; coefficient arithmetic
        # is an independent route around the quadrature cache
        rng = random.Random(7)
        cfg = SolverConfig(scan_points=512)
        for _ in range(20):
            deg = rng.randint(0, 5)
            coeffs = [rng.uniform(-3.0, 3.0) for _ in range(deg + 1)]
            text = "+".join(f"({c!r})*x^{i}" for i, c in enumerate(coeffs))
            p = parse(text)
            tf, sf = apply_T(p, cfg), apply_S(p, cfg)
            for t in (0.12, 0.5, 0.987):
                pt = sum(c * t ** i for i, c in enumerate(coeffs))
                bigp = sum(c * t ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))
                bigq = sum(c * t ** (i + 2) / (i + 2) for i, c in enumerate(coeffs))
                tol = 10.0 * cfg.quad_tol * max(1.0, abs(pt))
                assert abs(tf(t) - (pt - bigp)) <= tol
                assert abs(sf(t) - (t * pt - bigq)) <= tol


class TestLupu46:
    def test_constant_pair(self):
        xi1, xi2, xi3 = lupu_4_6_points(parse("1"), parse("1"))
        assert xi1.degenerate and xi3.degenerate
        assert xi2.xi == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
        assert xi2.theorem_id is TheoremId.LUPU_4_6_TS

    def test_monomial_pair(self):
        # residuals factor over the rationals:
        #   t(t^2-4t+2), t(2t^2-9t+6), t^2(9t^2-44t+24)
        xi1, xi2, xi3 = lupu_4_6_points(parse("x"), parse("x^2"))
        assert xi1.xi == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
        assert xi2.xi == pytest.approx((9.0 - math.sqrt(33.0)) / 4.0, abs=1e-9)
        assert xi3.xi == pytest.approx((44.0 - math.sqrt(1072.0)) / 18.0, abs=1e-9)
        assert xi1.theorem_id is TheoremId.LUPU_4_6_T
        assert xi3.theorem_id is TheoremId.LUPU_4_6_S


class TestLupu47:
    def test_monomial_pair(self):
        # same construction under the (1-x) weight:
        #   t(4t^2-15t+6) and t^2(3t^2-14t+6)
        xi1, xi2 = lupu_4_7_points(parse("x"), parse("x^2"))
        assert xi1.xi == pytest.approx((15.0 - math.sqrt(129.0)) / 8.0, abs=1e-9)
        assert xi2.xi == pytest.approx((7.0 - math.sqrt(31.0)) / 3.0, abs=1e-9)
        assert xi1.theorem_id is TheoremId.LUPU_4_7_T
        assert xi2.theorem_id is TheoremId.LUPU_4_7_S


class TestThm49:
    def test_sine_exponential(self):
        pts = thm_4_9_points(parse("sin(2*pi*x)"), parse("exp(x)"),
                             Interval(0.0, 1.0))
        assert [p.xi for p in pts] == pytest.approx([0.6959901379380051],
                                                    abs=1e-9)
        assert pts[0].hypothesis_satisfied is True
        assert pts[0].theorem_id is TheoremId.THM_4_9

    def test_nonzero_mean_rejected(self):
        with pytest.raises(HypothesisError):
            thm_4_9_points(parse("x"), parse("exp(x)"), Interval(0.0, 1.0))

    def test_flat_g_rejected(self):
        with pytest.raises(DomainError):
            thm_4_9_points(parse("sin(2*pi*x)"), parse("1"), Interval(0.0, 1.0))


class TestThm410:
    def test_linear_weight(self):
        pts = thm_4_10_points(parse("x"), parse("1"), parse("x"))
        assert [p.xi for p in pts] == pytest.approx([0.75], abs=1e-9)

    def test_nonzero_weight_at_origin_changes_nothing_here(self):
        # phi = x+1 engages the phi(0) correction pair; for this f, g the
        # corrected residual still reduces to t^3/3 - t^2/4
        pts = thm_4_10_points(parse("x"), parse("1"), parse("x+1"))
        assert [p.xi for p in pts] == pytest.approx([0.75], abs=1e-9)

    def test_equal_functions_degenerate(self):
        pts = thm_4_10_points(parse("x"), parse("x"), parse("x"))
        assert len(pts) == 1
        assert pts[0].degenerate

    def test_flat_weight_rejected(self):
        with pytest.raises(DomainError):
            thm_4_10_points(parse("x"), parse("1"), parse("1"))


class TestWeightedNorm:
    def test_median_of_three_crossings(self):
        # the balance function also vanishes near 0.1855 and 0.7328; the
        # median crossing is the deterministic representative
        p = weighted_norm_point(parse("sqrt(2)*sin(2*pi*x)"),
                                parse("sqrt(2)*cos(2*pi*x)"), parse("x"))
        assert p.xi == pytest.approx(0.5, abs=1e-9)
        assert p.theorem_id is TheoremId.WEIGHTED_NORM

    def test_norms_at_balance_point(self):
        nf, ng = weighted_norms(parse("sqrt(2)*sin(2*pi*x)"),
                                parse("sqrt(2)*cos(2*pi*x)"), parse("x"), 0.5)
        assert nf == pytest.approx(math.sqrt(0.125), abs=1e-9)
        assert ng == pytest.approx(math.sqrt(0.125), abs=1e-9)

    def test_norm_ratio_carries_over(self):
        # doubling f doubles its side everywhere, so the balance point stays
        # put and the prefix norms inherit the 2:1 ratio of the full norms
        f, g, w = parse("2*sqrt(2)*sin(2*pi*x)"), parse("sqrt(2)*cos(2*pi*x)"), parse("x")
        p = weighted_norm_point(f, g, w)
        assert p.xi == pytest.approx(0.5, abs=1e-9)
        nf, ng = weighted_norms(f, g, w, p.xi)
        assert nf == pytest.approx(2.0 * ng, rel=1e-9)

    def test_equal_functions_degenerate(self):
        p = weighted_norm_point(parse("x"), parse("x"), parse("x"))
        assert p.degenerate

    def test_weight_must_vanish_at_origin(self):
        with pytest.raises(HypothesisError):
            weighted_norm_point(parse("sin(2*pi*x)"), parse("cos(2*pi*x)"),
                                parse("x+1"))

    def test_flat_weight_rejected(self):
        with pytest.raises(DomainError):
            weighted_norm_point(parse("sin(2*pi*x)"), parse("cos(2*pi*x)"),
                                parse("1"))


class TestCauchyFlett:
    def test_equal_endpoint_ratio_pair(self):
        # residual is -x^2 (x^2+4x-3)/6, interior root sqrt(7)-2
        f, g = parse("x+x^3/3"), parse("x+x^2/2")
        pts = cauchy_flett_points(f, g, Interval(0.0, 1.0))
        assert [p.xi for p in pts] == pytest.approx([math.sqrt(7.0) - 2.0],
                                                    abs=1e-9)
        assert pts[0].hypothesis_satisfied is True
        assert cauchy_flett_hypothesis(f, g, Interval(0.0, 1.0)) is True

    def test_unequal_ratio_may_leave_no_points(self):
        # residual x(x-1)^2(x+2) has no interior crossing on (1, 2)
        pts = cauchy_flett_points(parse("x^3"), parse("x^2"), Interval(1.0, 2.0))
        assert pts == []
        assert cauchy_flett_hypothesis(parse("x^3"), parse("x^2"),
                                       Interval(1.0, 2.0)) is False

    def test_identity_g_reduces_to_flett(self):
        f = parse("x^3+2*x-1")
        iv = Interval(-2.0, 2.0)
        cfg = SolverConfig()
        got = [p.xi for p in cauchy_flett_points(f, parse("x"), iv, cfg)]
        want = [p.xi for p in find_flett_points(f, iv, cfg)]
        assert got == pytest.approx(want, abs=10.0 * cfg.root_tol)

    def test_flat_g_rejected(self):
        with pytest.raises(DomainError):
            cauchy_flett_points(parse("x^3"), parse("1"), Interval(0.0, 1.0))

    def test_unevaluable_g_at_endpoint(self):
        with pytest.raises(DomainError):
            cauchy_flett_points(parse("x"), parse("ln(x)"), Interval(0.0, 1.0))

    def test_hypothesis_none_when_g_slope_vanishes(self):
        assert cauchy_flett_hypothesis(parse("x"), parse("x^2"),
                                       Interval(0.0, 1.0)) is None
