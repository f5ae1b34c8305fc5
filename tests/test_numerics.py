"""Kernel tests: intervals, quadrature, root refinement, residual search."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed

import mvtlab.generalized
import mvtlab.mvt_points
import mvtlab.numerics
from conftest import central_diff, deadline, holds_both_signs
from mvtlab.expr import Const, Var, compile_fn, differentiate, evaluate, parse
from mvtlab.numerics import (
    DEFAULT_CONFIG, MAX_SCAN_POINTS, DomainError, Interval, PointResult, QuadratureError,
    SolverConfig, TheoremId, close, differentiable_on_interior,
    grid_points, integrate, one_sided_derivative, refine_root,
    solve_residual, tanh_sinh, whole_integral,
)
from mvtlab.generalized import pawlikowska_points
from mvtlab.mvt_points import lagrange_points

CFG = DEFAULT_CONFIG


class TestInterval:
    def test_width_and_midpoint(self):
        iv = Interval(-1.0, 3.0)
        assert iv.width == 4.0
        assert iv.midpoint == 1.0

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, -2.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_rejects_a_width_that_overflows(self):
        # both endpoints are finite, but b - a is inf
        with pytest.raises(ValueError, match="width"):
            Interval(-1e308, 1e308)
        assert Interval(-8e307, 8e307).width == 1.6e308


class TestSolverConfig:
    def test_defaults(self):
        assert CFG.scan_points == 4096
        assert CFG.root_tol == 1e-12
        assert CFG.residual_tol == 1e-9
        assert CFG.quad_tol == 1e-10
        assert CFG.endpoint_margin == 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(scan_points=4)
        assert SolverConfig(scan_points=MAX_SCAN_POINTS).scan_points == MAX_SCAN_POINTS
        with pytest.raises(ValueError):
            SolverConfig(scan_points=MAX_SCAN_POINTS + 1)
        with pytest.raises(ValueError):
            SolverConfig(root_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=-1e-9)
        with pytest.raises(ValueError):
            SolverConfig(endpoint_margin=0.5)


class TestGrid:
    def test_count_and_margins(self):
        iv = Interval(0.0, 1.0)
        xs = grid_points(iv, CFG)
        assert len(xs) == CFG.scan_points
        assert xs[0] == pytest.approx(CFG.endpoint_margin, rel=1e-6)
        assert xs[-1] == pytest.approx(1.0 - CFG.endpoint_margin, rel=1e-6)
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_closed_grid_hits_endpoints(self):
        xs = grid_points(Interval(-2.0, 3.0), CFG, margin=0.0)
        assert xs[0] == -2.0
        assert xs[-1] == pytest.approx(3.0)

    @pytest.mark.parametrize("a,b", [(1e17, 1e17 + 96.0), (-1e15 - 1.0, -1e15),
                                     (1.0, 1.0 + 2.0 ** -51)])
    def test_a_margin_that_rounds_away_stays_a_ulp_inside(self, a, b):
        # the 1e-9 margin is under half an ulp of a here
        iv = Interval(a, b)
        xs = grid_points(iv, CFG)
        assert (xs[0], xs[-1]) == (math.nextafter(a, b), math.nextafter(b, a))
        assert grid_points(iv, CFG, 0.0)[::len(xs) - 1] == [a, b]

    def test_an_interval_with_no_float_inside_has_no_open_grid(self):
        with pytest.raises(DomainError, match="no float lies strictly between"):
            grid_points(Interval(1.0, math.nextafter(1.0, 2.0)), CFG)

    def test_a_grid_is_built_once_and_shared(self):
        iv = Interval(0.0, 1.0)
        assert grid_points(iv, CFG) is grid_points(iv, CFG)
        # the default margin and the same margin given explicitly are one grid
        assert grid_points(iv, CFG, CFG.endpoint_margin) is grid_points(iv, CFG)
        assert grid_points(iv, CFG, 0.0) is not grid_points(iv, CFG)


class TestClose:
    def test_agreement_is_relative_past_one(self):
        assert close(1e6, 1e6 + 1e-4, 1e-9)
        assert not close(1e6, 1e6 + 1e-2, 1e-9)
        assert close(0.0, 1e-10, 1e-9) and not close(0.0, 1e-8, 1e-9)

    @pytest.mark.parametrize("u, v", [
        (math.inf, 0.5), (0.5, math.inf), (-math.inf, 0.5), (math.inf, math.inf),
        (math.inf, -math.inf), (math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan),
        (1e308, -1e308),  # finite values whose difference overflows
    ])
    def test_nothing_agrees_across_a_nonfinite_difference(self, u, v):
        assert not close(u, v, 1e-9)


class TestIntegrate:
    def test_polynomial(self):
        v = integrate(lambda x: x * x, 0.0, 1.0, CFG)
        assert v == pytest.approx(1 / 3, abs=1e-12)

    def test_sine(self):
        v = integrate(math.sin, 0.0, math.pi, CFG)
        assert v == pytest.approx(2.0, abs=1e-10)

    def test_empty_range(self):
        assert integrate(math.sin, 1.0, 1.0, CFG) == 0.0

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 0.0, CFG)

    def test_bounded_with_singular_derivative(self):
        v = integrate(lambda x: math.sqrt(x) if x >= 0 else math.nan,
                      0.0, 1.0, CFG)
        assert v == pytest.approx(2 / 3, abs=1e-10)

    def test_unbounded_integrand_raises(self):
        # integrable, but the spike outruns the per-level error budget
        with pytest.raises(QuadratureError):
            integrate(lambda x: 1.0 / math.sqrt(x) if x > 0 else math.inf,
                      0.0, 1.0, CFG)

    def test_removable_singularity_at_interior_sample(self):
        # the first midpoint is 0.5, where the formula reads 0/0
        f = compile_fn(parse("sin(x-0.5)/(x-0.5)"))
        assert math.isnan(f(0.5))
        v = integrate(f, 0.0, 1.0, CFG)
        assert v == pytest.approx(0.986214836086133, abs=1e-9)  # 2*Si(0.5)

    @pytest.mark.parametrize("src", ["1/(x-0.5)", "1/(x-0.5)^2",
                                     "ln(abs(x-0.5))"])
    def test_pole_at_interior_sample_raises(self, src):
        with pytest.raises(QuadratureError):
            integrate(compile_fn(parse(src)), 0.0, 1.0, CFG)

    @pytest.mark.parametrize("src", ["1/(x-0.5)", "1/(x-0.5)^2"])
    def test_pole_between_samples_raises_promptly(self, src):
        # no sample lands on 0.5: the panels around it shrink to float
        # resolution without meeting the error test; splitting on down to
        # the depth cap would double the work at every level
        with deadline(1.0), pytest.raises(QuadratureError):
            integrate(compile_fn(parse(src)), 0.0, 0.9, CFG)

    @pytest.mark.parametrize("rule", [integrate, tanh_sinh])
    @pytest.mark.parametrize("F, want", [
        (lambda x: 5e307 * (1.0 - abs(x - 0.5) / 0.5), 2.5e307),  # was -inf
        (lambda x: 5e307, 5e307),  # was QuadratureError
        (lambda x: 2.9e307, 2.9e307),  # Simpson's sums never overflowed
    ])
    def test_bounded_integrand_near_the_float_range(self, rule, F, want):
        # Simpson's first sum fa + 4 fm + fb overflows on these finite samples
        assert rule(F, 0.0, 1.0, CFG) == pytest.approx(want, rel=1e-12)

    def test_an_integral_past_the_float_range_raises(self):
        with pytest.raises(QuadratureError, match="overflows"):
            integrate(lambda x: 1.5e308, 0.0, 2.0, CFG)


class TestTanhSinh:
    """The whole-interval rule, against mpmath's quad as the oracle."""

    TIGHT = SolverConfig(quad_tol=1e-12)

    @staticmethod
    def _counted(src):
        fc, calls = compile_fn(parse(src)), [0]

        def F(x):
            calls[0] += 1
            return fc(x)

        return F, calls

    @pytest.mark.parametrize("src, lo, hi, oracle", [
        ("exp(sin(x))*ln(x+2)", 0.0, 3.0, lambda mp, x: mp.exp(mp.sin(x)) * mp.log(x + 2)),
        # derivative singular at an endpoint, where adaptive Simpson fails at 1e-12
        ("sqrt(1-x)", 0.0, 1.0, lambda mp, x: mp.sqrt(1 - x)),
        ("sqrt(1-x^2)", -1.0, 1.0, lambda mp, x: mp.sqrt(1 - x ** 2)),
        # unbounded, but integrable, at 0
        ("ln(x)", 0.0, 1.0, lambda mp, x: mp.log(x)),
        ("sin(30*x)", 0.0, 1.0, lambda mp, x: mp.sin(30 * x)),
    ])
    def test_agrees_with_mpmath(self, src, lo, hi, oracle):
        mpmath = pytest.importorskip("mpmath")
        want = float(mpmath.quad(lambda x: oracle(mpmath, x), [lo, hi]))
        F, calls = self._counted(src)
        got = tanh_sinh(F, lo, hi, self.TIGHT)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-14)
        # no fallback to adaptive Simpson: at most the last level's 449 nodes
        assert calls[0] <= 449

    def test_samples_a_smooth_integrand_sparingly(self):
        F, calls = self._counted("exp(sin(x))*ln(x+2)")
        tanh_sinh(F, 0.0, 3.0, self.TIGHT)
        assert calls[0] <= 130  # adaptive Simpson takes 1,517

    def test_a_kink_falls_back_to_integrate(self):
        # the levels do not settle on a kink: integrate()'s result, bit for bit
        f = compile_fn(parse("abs(x-0.3)"))
        assert tanh_sinh(f, 0.0, 1.0, CFG) == integrate(f, 0.0, 1.0, CFG)

    def test_a_removable_singularity_on_a_node_falls_back(self):
        # the midpoint node reads 0/0; integrate() bridges it
        f = compile_fn(parse("sin(x)/x"))
        got = tanh_sinh(f, -1.0, 1.0, CFG)
        assert got == integrate(f, -1.0, 1.0, CFG)
        assert got == pytest.approx(1.8921661407343662, abs=1e-9)  # 2*Si(1)

    @pytest.mark.parametrize("src, lo, hi", [
        ("1/(x-0.5)", 0.0, 1.0),        # a node lands on the pole
        ("1/(x-0.3)^2", 0.0, 1.0),      # no node does
        ("1/sqrt(x)", 0.0, 1.0),        # unbounded at an endpoint
        ("1/(1-x)", 0.0, 1.0),
    ])
    def test_poles_raise(self, src, lo, hi):
        with pytest.raises(QuadratureError):
            tanh_sinh(compile_fn(parse(src)), lo, hi, CFG)

    def test_empty_and_reversed_ranges(self):
        assert tanh_sinh(math.sin, 1.0, 1.0, CFG) == 0.0
        with pytest.raises(ValueError):
            tanh_sinh(math.sin, 1.0, 0.0, CFG)


class TestWholeIntegral:
    """tanh-sinh, or integrate() first for an integrand with a kink."""

    @staticmethod
    def _counted(F):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return F(x)

        return counted, calls

    def test_a_kink_goes_to_integrate_alone(self):
        # tanh-sinh does not settle on a kink and hands it to integrate():
        # 533 samples in all, where integrate() alone takes 105
        f = parse("abs(x-0.3)")
        F, calls = self._counted(compile_fn(f))
        got = whole_integral(F, 0.0, 1.0, CFG, Var(), f)  # any tree with a kink
        assert calls[0] == 105
        G, via_tanh_sinh = self._counted(compile_fn(f))
        assert got.hex() == tanh_sinh(G, 0.0, 1.0, CFG).hex() == integrate(F, 0.0, 1.0, CFG).hex()
        assert via_tanh_sinh[0] == 533

    def test_a_smooth_integrand_goes_to_tanh_sinh(self):
        f = parse("exp(sin(x))*ln(x+2)")
        F, calls = self._counted(compile_fn(f))
        assert whole_integral(F, 0.0, 3.0, CFG, f) == tanh_sinh(F, 0.0, 3.0, CFG)
        assert calls[0] <= 2 * 130

    def test_what_integrate_cannot_take_goes_to_tanh_sinh(self):
        # the square root at 1 defeats adaptive Simpson at 1e-12
        f = parse("sqrt(abs(x-1))")
        fc, tight = compile_fn(f), SolverConfig(quad_tol=1e-12)
        with pytest.raises(QuadratureError):
            integrate(fc, 0.0, 1.0, tight)
        got = whole_integral(fc, 0.0, 1.0, tight, f)
        assert got == tanh_sinh(fc, 0.0, 1.0, tight) == pytest.approx(2.0 / 3.0, rel=1e-12)


class TestRefineRoot:
    def test_converges(self):
        r = refine_root(math.cos, 1.0, 2.0, CFG)
        assert r == pytest.approx(math.pi / 2, abs=1e-11)

    def test_endpoint_exact_zero(self):
        assert refine_root(lambda x: x, 0.0, 1.0, CFG) == 0.0

    def test_requires_sign_change(self):
        with pytest.raises(ValueError):
            refine_root(lambda x: x * x + 1, 0.0, 1.0, CFG)

    def test_steep_function(self):
        r = refine_root(lambda x: math.tan(x) - 1e6, 1.5, 1.5707962, CFG)
        assert math.tan(r) == pytest.approx(1e6, rel=1e-5)


class TestCentralDiff:
    def test_first_order(self):
        d = central_diff(math.sin, 0.7)
        assert d == pytest.approx(math.cos(0.7), abs=1e-10)

    def test_second_order(self):
        d = central_diff(math.exp, 0.3, order=2)
        assert d == pytest.approx(math.exp(0.3), abs=1e-6)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            central_diff(math.sin, 0.0, order=3)

    def test_nonfinite_stencil(self):
        from mvtlab.expr import compile_fn
        with pytest.raises(DomainError):
            central_diff(compile_fn(parse("sqrt(x)")), 0.0)


@seed(20220)
@given(st.floats(-2.0, 2.0), st.floats(0.1, 3.0))
def test_central_diff_tracks_symbolic(c, h):
    # polynomial with a known derivative, sampled away from the scale floor
    f = lambda x: (x - c) ** 3 + 2 * (x - c)
    d = central_diff(f, c + h)
    assert d == pytest.approx(3 * h * h + 2, rel=1e-7)


class TestSolveResidual:
    def test_single_crossing(self):
        pts = solve_residual((lambda x: x - 0.3,), Interval(0.0, 1.0), CFG,
                             TheoremId.FLETT)
        assert len(pts) == 1
        assert pts[0].xi == pytest.approx(0.3, abs=1e-10)
        assert not pts[0].degenerate

    def test_multiple_crossings_sorted(self):
        pts = solve_residual((math.sin,), Interval(1.0, 10.0), CFG,
                             TheoremId.ROLLE)
        want = [math.pi, 2 * math.pi, 3 * math.pi]
        assert [p.xi for p in pts] == pytest.approx(want, abs=1e-9)

    def test_identically_zero_is_degenerate(self):
        pts = solve_residual((lambda x: 0.0,), Interval(0.0, 1.0), CFG,
                             TheoremId.FLETT, hypothesis=True)
        assert len(pts) == 1
        assert pts[0].degenerate
        assert pts[0].xi == 0.5
        assert pts.hypothesis_satisfied is True

    def test_tiny_residual_counts_as_zero(self):
        # scale comes from the terms, so a 1e-7 residual between terms of
        # size 1e3 is zero (against the unit floor it would not be)
        pts = solve_residual((lambda x: 1e3, lambda x: 1e3 - 1e-7),
                             Interval(0.0, 1.0), CFG, TheoremId.FLETT)
        assert pts[0].degenerate

    def test_residual_is_left_fold_of_terms(self):
        # x - 0.25 - 0 - (-x^2): the minus-signed fold of four terms, the
        # last entering with a plus sign, so passed negated
        terms = (lambda x: x, lambda x: 0.25, lambda x: 0.0, lambda x: -x * x)
        (p,) = solve_residual(terms, Interval(0.0, 1.0), CFG, TheoremId.FLETT)
        assert p.xi == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0, abs=1e-12)
        assert repr(p.residual) == repr(p.xi - 0.25 - 0.0 - (-p.xi * p.xi))
        pts = solve_residual((lambda x: x * x, lambda x: 0.25),
                             Interval(0.0, 1.0), CFG, TheoremId.FLETT)
        assert [p.xi for p in pts] == pytest.approx([0.5], abs=1e-12)

    def test_scan_evaluates_each_term_once_per_grid_point(self):
        calls = [0, 0]

        def t1(x):
            calls[0] += 1
            return x * x + 1.0

        def t2(x):
            calls[1] += 1
            return x - 5.0

        cfg = SolverConfig(scan_points=300)
        pts = solve_residual((t1, t2), Interval(0.0, 1.0), cfg, TheoremId.FLETT)
        assert pts == []
        assert calls == [cfg.scan_points, cfg.scan_points]

    def test_zero_run_reported_once(self):
        def plateau(x):
            if x < 0.3:
                return x - 0.3
            if x <= 0.6:
                return 0.0
            return x - 0.6

        pts = solve_residual((plateau,), Interval(0.0, 1.0), CFG,
                             TheoremId.FLETT)
        assert len(pts) == 1
        assert pts[0].degenerate
        assert 0.4 < pts[0].xi < 0.5

    @pytest.mark.parametrize("at_b", [False, True])
    def test_a_stretch_at_the_forced_zero_is_dropped(self, at_b):
        # x^8 (x - 0.5) sits below the zero threshold on [0, 0.08]: the kind
        # of trivial zero an identity has at its anchor
        iv = Interval(0.0, 1.0)
        if at_b:
            F, anchor, other = (lambda x: (1.0 - x) ** 8 * (0.5 - x)), iv.b, iv.a
        else:
            F, anchor, other = (lambda x: x ** 8 * (x - 0.5)), iv.a, iv.b
        kept = solve_residual((F,), iv, CFG, TheoremId.PAWLIKOWSKA)
        assert sorted(p.degenerate for p in kept) == [False, True]
        pts = solve_residual((F,), iv, CFG, TheoremId.PAWLIKOWSKA, forced_zero=anchor)
        assert [p.xi for p in pts] == pytest.approx([0.5], abs=1e-10)
        assert not pts[0].degenerate
        # a stretch at the other endpoint is still reported
        assert solve_residual((F,), iv, CFG, TheoremId.PAWLIKOWSKA,
                              forced_zero=other) == kept

    def test_exact_grid_zero_is_reported(self):
        xs = grid_points(Interval(0.0, 1.0), CFG)
        target = xs[137]
        pts = solve_residual((lambda x: x - target,), Interval(0.0, 1.0), CFG,
                             TheoremId.FLETT)
        assert [p.xi for p in pts] == [target]

    def test_exact_grid_touch_is_not_a_root(self):
        xs = grid_points(Interval(0.0, 1.0), CFG)
        target = xs[411]
        pts = solve_residual((lambda x: (x - target) ** 2,), Interval(0.0, 1.0),
                             CFG, TheoremId.FLETT)
        assert pts == []

    def test_anchored_endpoint_noise_is_rejected(self):
        # the residual of x^3+2x-1 under the tangency identity factors as
        # 2(x-1)(x+2)^2: the double zero at the left endpoint wobbles inside
        # roundoff and must not surface as a second root
        f = parse("x^3+2*x-1")
        from mvtlab.flett import flett_residual
        F = flett_residual(f, -2.0)
        pts = solve_residual((F,), Interval(-2.0, 2.0), CFG, TheoremId.FLETT)
        assert len(pts) == 1
        assert pts[0].xi == pytest.approx(1.0, abs=1e-8)

    def test_nonfinite_everywhere_raises(self):
        with pytest.raises(DomainError):
            solve_residual((lambda x: math.nan,), Interval(0.0, 1.0), CFG,
                           TheoremId.FLETT)

    def test_theorem_id_attached(self):
        pts = solve_residual((lambda x: x - 0.5,), Interval(0.0, 1.0), CFG,
                             TheoremId.MEYERS_2_4)
        assert pts[0].theorem_id is TheoremId.MEYERS_2_4


class TestExpressionTerms:
    """Expression terms scan exactly like the callables they mirror."""

    @pytest.mark.parametrize("text, a, b", [
        ("sin(3*x)+x^2", -2.0, 2.0), ("exp(sin(x))*ln(x+2)", -1.0, 3.0),
        ("x^3+2*x-1", -2.0, 2.0),
    ])
    def test_residual_is_evaluate_s_difference_bit_for_bit(self, text, a, b):
        # a point's residual is read from the grid on that one point, whose
        # values are evaluate's
        f, iv = parse(text), Interval(a, b)
        t1, t2 = differentiate(f) * (Var() - a), f - evaluate(f, a)
        pts = [p for p in solve_residual((t1, t2), iv, CFG, TheoremId.FLETT)
               if not p.degenerate]
        assert pts
        for p in pts:
            assert repr(p.residual) == repr(evaluate(t1, p.xi) - evaluate(t2, p.xi))

    def test_flett(self):
        f = parse("x^3+2*x-1")
        iv = Interval(-2.0, 2.0)
        fc, d1 = compile_fn(f), compile_fn(differentiate(f))
        fa = fc(iv.a)
        callables = (lambda x: d1(x) * (x - iv.a), lambda x: fc(x) - fa)
        exprs = (differentiate(f) * (Var() - iv.a), f - fa)
        want = solve_residual(callables, iv, CFG, TheoremId.FLETT)
        assert [p.xi for p in want] == pytest.approx([1.0], abs=1e-8)
        assert solve_residual(exprs, iv, CFG, TheoremId.FLETT) == want

    def test_pawlikowska_order_3(self):
        f = parse("exp(sin(x))*ln(x+2)")
        iv = Interval(-1.0, 2.0)
        a = iv.a
        fc = compile_fn(f)
        fa = fc(a)
        ds = [differentiate(f, i) for i in (1, 2, 3)]
        coeffs = [1.0, -0.5, 1.0 / 6.0]
        dfs = [compile_fn(d) for d in ds]

        def total(x):
            s, p = 0.0, 1.0
            for c, d in zip(coeffs, dfs):
                p *= x - a
                s += c * p * d(x)
            return s

        h = Var() - a
        sum_expr, p = Const(0.0), Const(1.0)
        for c, d in zip(coeffs, ds):
            p = p * h
            sum_expr = sum_expr + c * p * d
        want = solve_residual((lambda x: fc(x) - fa, total), iv, CFG,
                              TheoremId.PAWLIKOWSKA)
        assert want
        assert solve_residual((f - fa, sum_expr), iv, CFG,
                              TheoremId.PAWLIKOWSKA) == want

    def test_integral_mvt_closed(self):
        f = parse("x^2")
        iv = Interval(0.0, 1.0)
        fc = compile_fn(f)
        mean = integrate(fc, iv.a, iv.b, CFG) / iv.width
        want = solve_residual((fc, lambda x: mean), iv, CFG,
                              TheoremId.INTEGRAL_MVT, closed=True)
        assert [p.xi for p in want] == pytest.approx([3 ** -0.5], abs=1e-8)
        assert solve_residual((f, Const(mean)), iv, CFG, TheoremId.INTEGRAL_MVT,
                              closed=True) == want


    @staticmethod
    def both_branches(monkeypatch, module, solve, *args):
        """The Points a solver's expression terms give, and those of their compile_fn callables."""
        seen = []

        def capture(terms, *rest, **kwargs):
            seen.append((terms, rest, kwargs))
            return solve_residual(terms, *rest, **kwargs)

        monkeypatch.setattr(module, "solve_residual", capture)
        solve(*args)
        ((terms, rest, kwargs),) = seen
        as_exprs = solve_residual(terms, *rest, **kwargs)
        as_fns = solve_residual([compile_fn(t) for t in terms], *rest, **kwargs)
        assert [repr(p) for p in as_exprs] == [repr(p) for p in as_fns]
        assert as_exprs.hypothesis_satisfied == as_fns.hypothesis_satisfied
        return as_exprs, (terms, rest, kwargs)

    def test_degenerate_lagrange_on_a_linear_f(self, monkeypatch):
        pts, _ = self.both_branches(monkeypatch, mvtlab.mvt_points, lagrange_points,
                                    parse("3*x+1"), Interval(0.0, 1.0))
        assert [(p.xi, p.degenerate) for p in pts] == [(0.5, True)]
        assert pts.hypothesis_satisfied is True

    def test_forced_zero_stretch_of_the_order_n_sum(self, monkeypatch):
        pts, (terms, rest, kwargs) = self.both_branches(
            monkeypatch, mvtlab.generalized, pawlikowska_points,
            parse("exp(x)"), Interval(0.0, 1.0), 3)
        assert not any(p.degenerate for p in pts)
        # the stretch at a is there, and forced_zero is what drops it
        del kwargs["forced_zero"]
        kept = solve_residual(terms, *rest, **kwargs)
        assert [p.degenerate for p in kept][:1] == [True] and kept[0].xi < 0.5

    def test_exact_grid_point_zero(self, monkeypatch):
        # x^3 - 0.125 is 0.0 exactly at the grid point 0.5
        terms = (parse("x^3"), Const(0.125))
        args = (Interval(0.0, 1.0), SolverConfig(scan_points=9), TheoremId.ROLLE)
        pts = solve_residual(terms, *args, closed=True)
        assert [repr(p) for p in pts] == [repr(PointResult(0.5, 0.0, TheoremId.ROLLE))]
        fns = solve_residual([compile_fn(t) for t in terms], *args, closed=True)
        assert [repr(p) for p in fns] == [repr(p) for p in pts]

    def test_expression_terms_build_no_column(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a per-term column was built")

        monkeypatch.setattr(mvtlab.numerics, "compile_terms", refuse)
        f = parse("x^3-x")
        pts = solve_residual((differentiate(f) * (Var() - -1.0), f), Interval(-1.0, 1.5),
                             CFG, TheoremId.FLETT)
        assert pts and not any(p.degenerate for p in pts)


class TestBracketScan:
    """The grid bracketing inside solve_residual."""

    def test_finds_brackets(self):
        pts = solve_residual((math.sin,), Interval(1.0, 7.0), CFG,
                             TheoremId.ROLLE)
        assert [p.xi for p in pts] == pytest.approx([math.pi, 2 * math.pi],
                                                    abs=1e-9)
        assert not any(p.degenerate for p in pts)

    def test_identically_zero_flag(self):
        pts = solve_residual((lambda x: 0.0,), Interval(0.0, 1.0), CFG,
                             TheoremId.FLETT)
        assert len(pts) == 1
        assert pts[0].degenerate

    @staticmethod
    def scan(f, forced_zero=None):
        # the closed 9-point grid on [0, 8] is x = 0.0, 1.0, ..., 8.0, and
        # a near-zero run needs 3 points
        return [(p.xi, p.residual, p.degenerate) for p in solve_residual(
            (f,), Interval(0.0, 8.0), SolverConfig(scan_points=9), TheoremId.FLETT,
            closed=True, forced_zero=forced_zero)]

    def test_no_sign_change(self):
        assert self.scan(lambda x: x + 1.0) == []

    def test_flips_at_the_first_and_the_last_pair(self):
        pts = self.scan(lambda x: (x - 0.5) * (x - 7.5))
        assert [xi for xi, _, _ in pts] == pytest.approx([0.5, 7.5], abs=1e-12)

    def test_near_runs_touching_each_end(self):
        # exact zeros inside a run are the run, not points of their own
        start, end = (lambda x: max(0.0, x - 2.0)), (lambda x: min(0.0, x - 6.0))
        assert self.scan(start) == [(1.0, 0.0, True)]
        assert self.scan(start, forced_zero=0.0) == []
        assert self.scan(end) == [(7.0, 0.0, True)]
        assert self.scan(end, forced_zero=8.0) == []
        assert self.scan(start, forced_zero=8.0) == [(1.0, 0.0, True)]

    def test_an_exact_zero_outside_a_run(self):
        assert self.scan(lambda x: x - 3.0) == [(3.0, 0.0, False)]

    def test_all_near_is_one_degenerate_midpoint(self):
        assert self.scan(lambda x: 1e-12 * (x - 3.0)) == [(4.0, 1e-12, True)]

    def test_flips_into_nan_and_inf_stretches_are_no_brackets(self):
        def f(x):
            if x < 0.5:
                return math.nan
            return -math.inf if x > 5.5 else x - 2.5

        pts = self.scan(f)
        assert [xi for xi, _, _ in pts] == pytest.approx([2.5], abs=1e-12)
        assert self.scan(lambda x: math.inf if x > 5.5 else x + 1.0) == []


@seed(20221)
@given(st.lists(st.booleans(), min_size=1, max_size=40))
def test_index_hops_match_a_pass_over_every_entry(flags):
    assert mvtlab.numerics._flips(flags) == [
        i for i in range(len(flags) - 1) if flags[i] != flags[i + 1]]


class TestSmoothnessChecks:
    def test_one_sided_derivative_finite(self):
        assert one_sided_derivative(parse("x^3"), 1.0, CFG) == pytest.approx(3.0)

    def test_one_sided_derivative_singular(self):
        assert one_sided_derivative(parse("asin(x)"), 1.0, CFG) is None
        assert one_sided_derivative(parse("sqrt(x)"), 0.0, CFG) is None

    def test_differentiable_polynomial(self):
        assert differentiable_on_interior(parse("x^3"), Interval(-1, 1), CFG)

    def test_kink_detected(self):
        assert not differentiable_on_interior(parse("abs(x)"),
                                              Interval(-1, 1), CFG)
        assert not differentiable_on_interior(parse("abs(x-0.3)"),
                                              Interval(0, 1), CFG)

    def test_jump_detected(self):
        assert not differentiable_on_interior(parse("sgn(x)"),
                                              Interval(-1, 1), CFG)

    def test_kink_outside_interval_is_fine(self):
        assert differentiable_on_interior(parse("abs(x)"),
                                          Interval(0.5, 1.0), CFG)

    def test_asin_smooth_inside(self):
        # the derivative blows up only at the closed endpoints
        assert differentiable_on_interior(parse("asin(x)"),
                                          Interval(-1, 1), CFG)

    @pytest.mark.parametrize("text,a,b,want", [
        ("abs(x-0.3)", 0.0, 1.0, False),            # interior kink
        ("sgn(x-0.4)+x", 0.0, 1.0, False),          # jump
        ("abs(abs(x-0.5)-0.2)", 0.0, 1.0, False),   # outer kinks
        ("abs(abs(x-0.5)-0.2)", 0.35, 0.65, False),  # the inner kink only
        ("abs(abs(x-0.5)+0.2)", 0.6, 1.0, True),
        ("x*abs(x-2)", 0.0, 1.0, True),
        ("abs(x-0.3)", 0.3, 1.0, True),             # the kink on an endpoint
    ])
    def test_kinks_are_read_from_the_one_grid_pass(self, monkeypatch, text, a, b, want):
        calls = []
        original = mvtlab.numerics.compile_terms

        def compile_terms(exprs):
            calls.append("compile_terms")
            return original(exprs)

        monkeypatch.setattr(mvtlab.numerics, "compile_terms", compile_terms)
        monkeypatch.setattr(mvtlab.numerics, "compile_fn",
                            lambda e: calls.append("compile_fn"))
        assert differentiable_on_interior(parse(text), Interval(a, b), CFG) is want
        assert calls == ["compile_terms"]


_sign_column = st.lists(st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
                                  st.floats()), max_size=8)


@seed(27)
@given(st.lists(_sign_column, max_size=3))
def test_the_kink_rule_matches_the_sign_tracking_loop(cols):
    # f and f' read finite here, so the abs()/sgn() argument columns alone decide
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mvtlab.numerics, "compile_terms",
                   lambda exprs: lambda xs: [[1.0], [1.0], *cols])
        smooth = differentiable_on_interior(parse("x"), Interval(0.0, 1.0), CFG)
    assert smooth is not any(map(holds_both_signs, cols))


def test_point_result_defaults():
    p = PointResult(0.5, 1e-12, TheoremId.FLETT)
    assert p.degenerate is False
