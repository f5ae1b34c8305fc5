"""Running-integral operators on [0, 1] and the identities built on them."""

import bisect
import contextlib
import io
import json
import math
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import mvtlab.mvt_points
import mvtlab.operators
import mvtlab.verify
from mvtlab.cli import main
from mvtlab.expr import Var, compile_fn, compile_panels, parse
from mvtlab.numerics import (
    DomainError, HypothesisError, Interval, QuadratureError, SolverConfig,
    TheoremId, grid_points, integrate, solve_residual,
)
from mvtlab.flett import find_flett_points
from mvtlab.operators import (
    UNIT_INTERVAL, OperatorValue, _Scaled, apply_S, apply_T, apply_V, apply_V_weighted,
    operator_values, cauchy_flett_hypothesis, cauchy_flett_points, lupu_4_6_points,
    lupu_4_7_points, thm_4_9_points, thm_4_10_points, weighted_norm_point,
    weighted_norms,
)

SAMPLE_TS = [0.0, 0.0312, 0.25, 0.333333, 0.5, 0.70001, 0.875, 0.9999, 1.0]

GOLDEN = Path(__file__).parent / "fixtures" / "stable_golden.jsonl"
# the golden request of each solver built on operator values
OPERATOR_REQUESTS = {
    argv[1]: argv
    for argv in (json.loads(line)["argv"] for line in GOLDEN.read_text().splitlines())
    if argv[1] in ("lupu-4.6", "lupu-4.7", "thm-4.9", "thm-4.10", "weighted-norm")
}


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


def running_prefix(F, iv, cfg):
    """The prefix the build must reproduce, written out independently of the
    build: one step over each run of four panels from the first node on,
    Simpson over the whole run against Simpson over each half, accepted on
    integrate()'s error test when its result and the cubic rules for the
    first and third panels are finite; the margin panel, the 0-3 panels
    past the last run and all four panels of any other run take one
    integrate() each."""
    nodes = grid_points(iv, cfg)
    panel_cfg = replace(cfg, quad_tol=cfg.quad_tol / len(nodes))
    acc = integrate(F, iv.a, nodes[0], panel_cfg)
    prefix = [acc]
    i = 0
    while i + 4 < len(nodes):
        a, b, c, d, e = nodes[i:i + 5]
        fa, fb, fc, fd, fe = map(F, (a, b, c, d, e))
        sl = (c - a) * (fa + 4.0 * fb + fc) / 6.0
        sr = (e - c) * (fc + 4.0 * fd + fe) / 6.0
        whole = (e - a) * (fa + 4.0 * fc + fe) / 6.0
        delta = sl + sr - whole
        eps = panel_cfg.quad_tol * (1.0 + abs(whole))
        part = sl + sr + delta / 15.0
        # the integrals over [a, b] and [c, d] of the cubics through a..d and b..e
        ab = (b - a) * (9.0 * fa + 19.0 * fb - 5.0 * fc + fd) / 24.0
        cd = (d - c) * (13.0 * (fc + fd) - fb - fe) / 24.0
        if abs(delta) <= 15.0 * eps and all(map(math.isfinite, (part, ab, cd))):
            prefix += [acc + ab, acc + sl, acc + sl + cd, acc + part]
            acc += part
        else:
            for lo, hi in zip(nodes[i:i + 4], nodes[i + 1:i + 5]):
                acc += integrate(F, lo, hi, panel_cfg)
                prefix.append(acc)
        i += 4
    for lo, hi in zip(nodes[i:], nodes[i + 1:]):
        acc += integrate(F, lo, hi, panel_cfg)
        prefix.append(acc)
    return nodes, prefix


def per_panel_prefix(F, iv, cfg):
    """One adaptive integrate() per panel, accumulated from iv.a."""
    nodes = grid_points(iv, cfg)
    panel_cfg = replace(cfg, quad_tol=cfg.quad_tol / len(nodes))
    acc = integrate(F, iv.a, nodes[0], panel_cfg)
    prefix = [acc]
    for lo, hi in zip(nodes, nodes[1:]):
        acc += integrate(F, lo, hi, panel_cfg)
        prefix.append(acc)
    return prefix


def structural_panels(iv, cfg):
    """The panels every build hands to integrate(): the margin panel, and
    the 0-3 panels past the last run of four from the first node on."""
    nodes = grid_points(iv, cfg)
    start = len(nodes) - 1 - (len(nodes) - 1) % 4
    return [(iv.a, nodes[0])] + list(zip(nodes[start:], nodes[start + 1:]))


def count_integrate(monkeypatch):
    calls = []
    original = mvtlab.operators.integrate

    def counted(F, lo, hi, *args, **kwargs):
        calls.append((lo, hi))
        return original(F, lo, hi, *args, **kwargs)

    monkeypatch.setattr(mvtlab.operators, "integrate", counted)
    return calls


class TestBatchedBuild:
    """The steps over four panels give running_prefix's prefixes bit for bit."""

    @pytest.mark.parametrize("text,iv,cfg,fallbacks", [
        ("exp(0.7*x)", Interval(0.0, 1.0), SolverConfig(), False),
        ("sin(6*pi*x)", Interval(0.0, 1.0), SolverConfig(), False),
        # the steps next to 0 fail the first error test
        ("sqrt(x)", Interval(0.0, 1.0), SolverConfig(), True),
        # 0/0 at the node x = 0
        ("sin(x)/x", Interval(-1.0, 1.0),
         SolverConfig(scan_points=513, endpoint_margin=0.0), True),
    ])
    def test_prefix_equals_running_integrate(self, monkeypatch, text, iv, cfg, fallbacks):
        f = parse(text)
        nodes, want = running_prefix(compile_fn(f), iv, cfg)
        calls = count_integrate(monkeypatch)
        v = OperatorValue(None, f, iv, cfg)
        structural = structural_panels(iv, cfg)
        failed = [panel for panel in calls if panel not in structural]
        assert calls == structural[:1] + failed + structural[1:]
        assert bool(failed) == fallbacks and len(failed) < len(nodes) // 10
        assert [v(t) for t in nodes] == want

    @pytest.mark.parametrize("text,iv,cfg", [
        ("exp(0.7*x)", UNIT_INTERVAL, SolverConfig()),
        ("sin(6*pi*x)", UNIT_INTERVAL, SolverConfig()),
        ("sqrt(x)", UNIT_INTERVAL, SolverConfig()),
        ("sqrt(1-x)", UNIT_INTERVAL, SolverConfig()),
        ("abs(x-0.3)", UNIT_INTERVAL, SolverConfig()),
        ("sin(x)/x", Interval(-1.0, 1.0), SolverConfig(scan_points=513, endpoint_margin=0.0)),
        ("2*sin(6*pi*x)*exp(1.5*x)", UNIT_INTERVAL, SolverConfig()),
    ])
    def test_prefix_is_near_a_running_integrate_per_panel(self, text, iv, cfg):
        F = compile_fn(parse(text))
        v = OperatorValue(None, F, iv, cfg)
        want = per_panel_prefix(F, iv, cfg)
        got = v.column(grid_points(iv, cfg))
        assert all(abs(p - q) <= cfg.quad_tol * (1.0 + abs(q)) for p, q in zip(got, want))

    def test_a_default_build_samples_once_a_node(self):
        # a Simpson step per panel took 4 new samples a panel (16,385), and
        # one per pair of panels 2 (8,199); a step over four panels samples
        # its nodes only: 4,093 of them, then integrate() takes 5 in the
        # margin panel and 5 in each of the 3 panels left over
        calls = [0]

        def F(x):
            calls[0] += 1
            return math.exp(0.7 * x) * math.cos(3.0 * x)

        OperatorValue(None, F)
        assert calls[0] == 4113 <= len(grid_points(UNIT_INTERVAL, SolverConfig())) + 64

    def test_a_kink_hands_over_the_step_that_holds_it(self, monkeypatch):
        # abs(x-0.3) is linear on every other step, which passes at roundoff
        iv, cfg = UNIT_INTERVAL, SolverConfig()
        nodes = grid_points(iv, cfg)
        i = 4 * (bisect.bisect(nodes, 0.3) // 4)  # nodes[i] < 0.3 < nodes[i + 4]
        assert nodes[i] < 0.3 < nodes[i + 4] and 0.3 not in nodes
        f = parse("abs(x-0.3)")
        calls = count_integrate(monkeypatch)
        v = OperatorValue(None, f, iv, cfg)
        structural = structural_panels(iv, cfg)
        step = list(zip(nodes[i:i + 4], nodes[i + 1:i + 5]))
        assert calls == structural[:1] + step + structural[1:]
        assert _bits(v.column(nodes)) == _bits(running_prefix(compile_fn(f), iv, cfg)[1])

    @pytest.mark.parametrize("cfg", [
        SolverConfig(scan_points=8), SolverConfig(scan_points=9),
        SolverConfig(scan_points=10), SolverConfig(scan_points=11),
        SolverConfig(scan_points=1001), SolverConfig(endpoint_margin=0.0),
    ], ids=["8-points", "9-points", "10-points", "11-points", "1001-points", "no-margin"])
    def test_odd_and_even_panel_counts_equal_the_reference(self, cfg):
        # 3, 0, 1, 2, 0 and 3 panels are left over past the last step. The
        # steps' rules are exact on the cubic, so its steps pass even on 8
        # points; sqrt(x) fails the test on the steps next to 0
        f, g = parse("sqrt(x)"), parse("1.2*x^3-0.5*x^2+x+0.3")
        gc = compile_fn(g)
        u, v = operator_values([(None, f), (g, g)], UNIT_INTERVAL, cfg)
        nodes, want_u = running_prefix(compile_fn(f), UNIT_INTERVAL, cfg)
        _, want_v = running_prefix(gc, UNIT_INTERVAL, cfg)
        assert _bits(u.column(nodes)) == _bits(want_u)
        assert _bits(v.column(nodes)) == _bits([gc(t) + p for t, p in zip(nodes, want_v)])

    def test_pointwise_table_equals_pointwise_plus_prefix(self):
        f = parse("sin(6*pi*x)")
        fc = compile_fn(f)
        cfg = SolverConfig(scan_points=1000)
        nodes, want = running_prefix(lambda x: -fc(x), UNIT_INTERVAL, cfg)
        v = apply_T(f, cfg)
        assert [v(t) for t in nodes] == [fc(t) + p for t, p in zip(nodes, want)]

    def test_pointwise_part_is_evaluated_at_the_nodes_only(self):
        seen = []

        def pointwise(t):
            seen.append(t)
            return t

        cfg = SolverConfig(scan_points=700)
        operator_values([(pointwise, parse("x")), (None, parse("x^2"))],
                        UNIT_INTERVAL, cfg)
        assert seen == grid_points(UNIT_INTERVAL, cfg)

    def test_callables_and_expressions_build_alike(self):
        f = parse("exp(0.7*x)*cos(3*x)")
        fc = compile_fn(f)
        cfg = SolverConfig(scan_points=700)
        by_expr = OperatorValue(Var() * f, f, UNIT_INTERVAL, cfg)
        by_fn = OperatorValue(lambda t: t * fc(t), fc, UNIT_INTERVAL, cfg)
        for t in grid_points(UNIT_INTERVAL, cfg) + SAMPLE_TS:
            assert by_expr(t) == by_fn(t)

    def test_group_equals_separate_builds(self):
        f, g, phi = parse("exp(0.7*x)"), parse("1.2*x^3-0.5*x^2+x+0.3"), parse("sin(x)")
        x = Var()
        cfg = SolverConfig(scan_points=600)
        pairs = [(f, -f), (g, -g), (x * f, -x * f), (None, phi * (g * g)),
                 (None, f * g)]
        group = operator_values(pairs, UNIT_INTERVAL, cfg)
        alone = [OperatorValue(p, q, UNIT_INTERVAL, cfg) for p, q in pairs]
        ts = grid_points(UNIT_INTERVAL, cfg) + SAMPLE_TS + [0.123456789, -0.5, 1.5]
        for u, w in zip(group, alone):
            assert [u(t) for t in ts] == [w(t) for t in ts]

    @staticmethod
    def _overflow_pairs(pole):
        # F is -inf at every panel midpoint and every odd node, and 1e308
        # elsewhere. On the step over the first four panels the samples at
        # its ends and middle node overflow the whole-step estimate to inf,
        # so the error test passes (eps = inf) although sl and sr are -inf;
        # the non-finite result sends its panels to integrate(), as it does
        # the 3 panels left over, which replaces each -inf by a one-sided
        # sample and scales its overflowing sums down, or raises when that
        # looks like a pole. (The margin panel is empty.)
        cfg = SolverConfig(scan_points=8, endpoint_margin=0.0)
        nodes = grid_points(UNIT_INTERVAL, cfg)
        panels = list(zip(nodes, nodes[1:]))
        mids = [0.5 * (a + b) for a, b in panels]

        def F(x):
            if x in mids or x in nodes[1::2]:
                return -math.inf
            if pole and abs(x - mids[0]) < 1e-6:
                return 1.0 / (mids[0] - x)
            return 1e308

        return F, cfg, panels

    def test_nonfinite_sample_takes_the_fallback(self, monkeypatch):
        F, cfg, panels = self._overflow_pairs(pole=False)
        nodes, want = running_prefix(F, UNIT_INTERVAL, cfg)
        calls = count_integrate(monkeypatch)
        v = OperatorValue(None, F, UNIT_INTERVAL, cfg)
        assert calls == [(0.0, 0.0)] + panels
        assert [v(t) for t in nodes] == want

    @pytest.mark.parametrize("at_nodes", [
        # Simpson's sums reach 6e307, the cubic rules' 2.8e308 and 2.6e308
        [1e307] * 9,
        # on the first step Simpson's sum over the whole step reaches
        # 1.9e308 (then eps = inf, and the error test passes) and no other
        [0.0, 0.0, 1e307, 0.0, 1.5e308, 0.0, 0.0, 0.0, 0.0],
    ], ids=["cubic-rules", "whole-step"])
    def test_a_sum_that_overflows_takes_the_fallback(self, monkeypatch, at_nodes):
        # F interpolates at_nodes linearly between the nodes k/8; a step that
        # read an overflowing sum would put an infinity in the prefixes
        cfg = SolverConfig(scan_points=9, endpoint_margin=0.0)

        def F(x):
            i = min(int(8.0 * x), 7)
            return at_nodes[i] + (8.0 * x - i) * (at_nodes[i + 1] - at_nodes[i])

        nodes, want = running_prefix(F, UNIT_INTERVAL, cfg)
        calls = count_integrate(monkeypatch)
        v = OperatorValue(None, F, UNIT_INTERVAL, cfg)
        assert calls == [(0.0, 0.0)] + list(zip(nodes, nodes[1:]))
        assert [v(t) for t in nodes] == want and all(map(math.isfinite, want))

    def test_nonfinite_sample_at_a_pole_raises(self):
        F, cfg, _ = self._overflow_pairs(pole=True)
        with pytest.raises(QuadratureError):
            running_prefix(F, UNIT_INTERVAL, cfg)
        with pytest.raises(QuadratureError):
            OperatorValue(None, F, UNIT_INTERVAL, cfg)

    def test_first_failing_pair_raises(self):
        # what the first of the separate builds would raise, although the
        # panel where 1/(x-0.5)^2 fails is evaluated after 1/sqrt(x)'s
        cfg = SolverConfig()
        bad1, bad2 = parse("1/sqrt(x)"), parse("1/(x-0.5)^2")
        for pairs in ([(None, bad1), (None, bad2)], [(None, bad2), (None, bad1)]):
            with pytest.raises(QuadratureError) as alone:
                OperatorValue(*pairs[0], UNIT_INTERVAL, cfg)
            with pytest.raises(QuadratureError) as grouped:
                operator_values(pairs, UNIT_INTERVAL, cfg)
            assert str(grouped.value) == str(alone.value)

    def test_lupu_4_6_peak_memory(self):
        # the panel kernel keeps no sample lists (measured: 2.12 MB)
        f, g = parse("exp(0.7*x)"), parse("1.2*x^3-0.5*x^2+x+0.3")
        lupu_4_6_points(f, g)
        tracemalloc.start()
        try:
            lupu_4_6_points(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_compile_panels_equals_running_integrate_for_callables(self):
        iv, cfg = UNIT_INTERVAL, SolverConfig(scan_points=700)
        # sqrt(x) takes the fallback on the panels next to 0
        F = compile_fn(parse("sqrt(x)"))
        G = lambda x: math.exp(0.7 * x) * math.cos(3.0 * x)
        nodes = grid_points(iv, cfg)
        panel_cfg = replace(cfg, quad_tol=cfg.quad_tol / len(nodes))
        panels, q_points, p_points = compile_panels([F, G], [None, G])
        assert q_points == [F, G] and p_points == [None, G]

        def fallback(k, a, b):
            return integrate(q_points[k], a, b, panel_cfg)

        prefixes, tables = panels([iv.a] + nodes, panel_cfg.quad_tol, fallback)
        assert prefixes == [running_prefix(F, iv, cfg)[1], running_prefix(G, iv, cfg)[1]]
        assert tables[0] is prefixes[0]
        assert tables[1] == [G(t) + p for t, p in zip(nodes, prefixes[1])]

    def test_a_failed_pair_makes_no_further_integrate_calls(self, monkeypatch):
        # 1/sqrt(x) raises on the first panel; sqrt(x) goes on to fall back
        # on several panels after it
        bad, good = compile_fn(parse("1/sqrt(x)")), compile_fn(parse("sqrt(x)"))
        calls = []
        original = mvtlab.operators.integrate

        def counted(F, lo, hi, *args, **kwargs):
            calls.append(F)
            return original(F, lo, hi, *args, **kwargs)

        monkeypatch.setattr(mvtlab.operators, "integrate", counted)
        with pytest.raises(QuadratureError):
            operator_values([(None, bad), (None, good)], UNIT_INTERVAL, SolverConfig())
        assert calls.count(bad) == 1 and calls.count(good) > 1


def _bits(values):
    return [v.hex() for v in values]


# rounding repeats nodes: the steps are half an ulp of 1
REPEATED_NODES = (Interval(1.0, 1.0 + 32 * 2.0 ** -52), SolverConfig(scan_points=64))
NODE_AT_ZERO = (Interval(-1.0, 1.0), SolverConfig(scan_points=513, endpoint_margin=0.0))


class TestColumns:
    """A value's column, and a solver term's, equal calling it at each point."""

    @staticmethod
    def _values(iv, cfg):
        sign = lambda t: math.copysign(1.0, t)
        return operator_values([(parse("cos(x)"), parse("exp(x)")), (None, parse("x^2")),
                                (sign, lambda x: 1.0)], iv, cfg)

    @pytest.mark.parametrize("iv,cfg", [
        (UNIT_INTERVAL, SolverConfig(scan_points=600)), REPEATED_NODES, NODE_AT_ZERO,
    ], ids=["unit", "repeated-nodes", "node-at-zero"])
    def test_column_equals_calls(self, iv, cfg):
        nodes = grid_points(iv, cfg)
        # -0.0 == 0.0, so a list holding it still equals the nodes
        signed = [-0.0 if x == 0.0 else x for x in nodes]
        for v in self._values(iv, cfg):
            for xs in (nodes, list(nodes), signed, nodes[::-1], nodes + [0.5 * (iv.a + iv.b)]):
                assert _bits(v.column(xs)) == _bits([v(x) for x in xs])

    def test_the_grids_above_repeat_a_node_and_hold_zero(self):
        assert len(set(grid_points(*REPEATED_NODES))) < REPEATED_NODES[1].scan_points
        nodes = grid_points(*NODE_AT_ZERO)
        signed = [-0.0 if x == 0.0 else x for x in nodes]
        sign_value = self._values(*NODE_AT_ZERO)[2]
        assert sign_value.column(signed) != sign_value.column(nodes)

    def test_a_repeated_node_reads_the_copy_a_call_reads(self):
        # the margin panel's integral is -0.0 (integrate()'s quarter-point
        # samples are so small that the products underflow); the first
        # step's first panel, zero-width up to the first node's second copy,
        # adds its cubic rule's value +0.0, so the two copies' table entries
        # differ in sign, and a call at that node reads the first
        iv = Interval(1.0, 1.0 + 32 * 2.0 ** -52)
        cfg = SolverConfig(scan_points=64, endpoint_margin=0.25)
        nodes = grid_points(iv, cfg)
        m0 = 0.5 * (iv.a + nodes[0])
        v = OperatorValue(None, lambda x: -1e-310 if iv.a < x < nodes[0] and x != m0 else 0.0,
                          iv, cfg)
        assert nodes[0] == nodes[1]
        assert _bits(v._table[:2]) == ["-0x0.0p+0", "0x0.0p+0"]
        assert _bits(v.column(nodes)) == _bits([v(x) for x in nodes])
        assert _bits(v.column(nodes)[:2]) == ["-0x0.0p+0"] * 2

    def test_scaled_terms_keep_their_order(self):
        cfg = SolverConfig(scan_points=300)
        (v,) = operator_values([(parse("sin(3*x)"), parse("exp(x)"))], UNIT_INTERVAL, cfg)
        nodes = grid_points(UNIT_INTERVAL, cfg)
        c, d = 1.0 / 3.0, 0.1
        terms = [(_Scaled(v, c=c), lambda t: c * v(t)),
                 (_Scaled(v, d=d), lambda t: v(t) * d),
                 (_Scaled(v, c=c, d=d), lambda t: c * v(t) * d),
                 (_Scaled(v, c=c, d=-d), lambda t: -(c * v(t) * d))]
        for term, written in terms:
            assert _bits(term.column(nodes)) == _bits([written(t) for t in nodes])
            assert _bits([term(t) for t in SAMPLE_TS]) == _bits([written(t) for t in SAMPLE_TS])

    @pytest.mark.parametrize("neg", [False, True])
    @pytest.mark.parametrize("d", [None, 0.1, -7.0, 0.0, -0.0])
    @pytest.mark.parametrize("c", [None, 1.0 / 3.0, -2.5, 0.0, -0.0])
    def test_a_scaled_column_is_the_products_in_one_pass(self, c, d, neg):
        # a factor given as None is left at its default, 1.0, and a term
        # with ``neg`` is given -d (-1.0 for a default d), as a term that
        # enters negated is; each value equals c * v, then * d, then
        # negated, signed zeros and infinities included (a nan's sign is
        # never read)
        col = [-0.0, 0.0, 1.5, -3.25, 1e308, -1e-310, 5e-324, math.inf, -math.inf, math.nan]

        class Value:  # an OperatorValue's two reads, over the column above
            def __call__(self, x):
                return col[int(x)]

            def column(self, xs):
                return [col[int(x)] for x in xs]

        def written(v):
            v = v if c is None else c * v
            v = v if d is None else v * d
            return -v if neg else v

        def bits(values):
            return ["nan" if math.isnan(v) else v.hex() for v in values]

        factors = {k: v for k, v in (("c", c), ("d", d)) if v is not None}
        if neg:
            factors["d"] = -factors.get("d", 1.0)
        term = _Scaled(Value(), **factors)
        xs = [float(i) for i in range(len(col))]
        assert bits(term.column(xs)) == bits([term(x) for x in xs]) == bits(map(written, col))

    @pytest.mark.parametrize("theorem", sorted(OPERATOR_REQUESTS))
    def test_operator_scans_read_columns(self, monkeypatch, theorem):
        # the scan reads whole columns; only Brent polishing, crossing
        # checks and a degenerate midpoint call a value (lupu-4.6 made
        # 24,624 calls when the scan called them)
        calls = [0]
        original = OperatorValue.__call__

        def counted(self, t):
            calls[0] += 1
            return original(self, t)

        monkeypatch.setattr(OperatorValue, "__call__", counted)
        assert main(list(OPERATOR_REQUESTS[theorem])) == 0
        assert 0 < calls[0] < 100

    def test_no_root_error_names_the_smallest_grid_residual(self):
        # read from the columns, the residual is the one calls give
        cfg = SolverConfig(scan_points=300)
        u, v = operator_values([(parse("cos(x)"), parse("exp(x)")), (None, parse("x^2"))],
                               UNIT_INTERVAL, cfg)
        t1 = _Scaled(u, c=2.0)
        err = mvtlab.operators._no_root_error(t1, v, UNIT_INTERVAL, cfg,
                                              TheoremId.WEIGHTED_NORM)
        xs = grid_points(UNIT_INTERVAL, cfg)
        residuals = [abs(t1(x) - v(x)) for x in xs]
        k = residuals.index(min(residuals))
        assert (err.x, err.value) == (xs[k], residuals[k])

    @pytest.mark.parametrize("pair", ["t", "s", "ts"])
    def test_residual_is_the_terms_difference_bit_for_bit(self, pair):
        # a point's residual calls each term once there; the columns are
        # read only for the whole grid
        cfg = SolverConfig(scan_points=512)
        t_pair, s_pair, tf, sf = mvtlab.operators._coupled_terms(
            parse("x"), parse("x^2"), lambda h: h, cfg)
        t1, t2 = {"t": t_pair, "s": s_pair, "ts": (tf, sf)}[pair]
        pts = [p for p in solve_residual((t1, t2), UNIT_INTERVAL, cfg, TheoremId.LUPU_4_7_T)
               if not p.degenerate]
        assert pts
        for p in pts:
            assert repr(p.residual) == repr(t1(p.xi) - t2(p.xi))

    def test_lupu_4_6_builds_its_grid_once(self, monkeypatch):
        # the operator build and the three scans share one node list, so
        # every whole-grid read is of each value's table (root polishing
        # reads one-point grids)
        shared = []
        original = OperatorValue.column

        def column(self, xs):
            if len(xs) > 1:
                shared.append(xs is self._nodes)
            return original(self, xs)

        monkeypatch.setattr(OperatorValue, "column", column)
        lupu_4_6_points(parse("exp(0.7*x)"), parse("1.2*x^3-0.5*x^2+x+0.3"))
        assert len(shared) == 6 and all(shared)


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


def _solve_groups(argv):
    """(exit code, {theorem id: degenerate}) of one ``solve`` request."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["solve", *argv, "--stable"])
    return code, {r["theorem_id"]: r["degenerate"] for r in json.loads(out.getvalue())["results"]}


class TestCoupledTermsApart:
    # c_f·Tg and c_g·Tf are built and scaled apart. Fused by linearity into
    # T(c_f·g - c_g·f), the integrand cancels to the roundoff of two
    # products as large as 4e14, and its quadrature ends both requests in
    # QuadratureError.
    def test_lupu_4_6_on_proportional_exponentials(self):
        code, groups = _solve_groups(["lupu-4.6", "--fn", "1e6*exp(3*x)",
                                      "--gn", "3e6*exp(3*x)+1e-3"])
        assert code == 0
        assert groups == {"lupu-4.6-t": True, "lupu-4.6-ts": False, "lupu-4.6-s": True}

    def test_lupu_4_7_on_proportional_quadratics(self):
        code, groups = _solve_groups(["lupu-4.7", "--fn", "1e5*(x^2+1)",
                                      "--gn", "7e5*(x^2+1)"])
        assert code == 0
        assert groups == {"lupu-4.7-t": True, "lupu-4.7-s": True}


class TestThm49:
    def test_sine_exponential(self):
        pts = thm_4_9_points(parse("sin(2*pi*x)"), parse("exp(x)"),
                             Interval(0.0, 1.0))
        assert [p.xi for p in pts] == pytest.approx([0.6959901379380051],
                                                    abs=1e-9)
        assert pts.hypothesis_satisfied is True
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
        assert pts.hypothesis_satisfied is True
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


def test_whole_interval_samples_on_the_operator_list(monkeypatch):
    # the coupling constants, the zero-mean total, the reported norms and
    # every self-check side take whole-interval integrals; at ~4,100 samples
    # a request adaptive Simpson made verification most of the work
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import request_list

    samples = [0]

    def counted(rule):
        def whole(F, *args, **kwargs):
            def sample(x):
                samples[0] += 1
                return F(x)
            return rule(sample, *args, **kwargs)
        return whole

    for mod in (mvtlab.operators, mvtlab.verify, mvtlab.mvt_points):
        monkeypatch.setattr(mod, "whole_integral", counted(mod.whole_integral))
    requests = request_list("operator", 1)
    for req in requests:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(list(req.argv)) in (0, 1, 2, 3)
    assert 0 < samples[0] <= 1400 * len(requests)
