"""Independent identity re-verification at located and at bogus points."""

import math

import pytest

from mvtlab.expr import parse
from mvtlab.flett import find_flett_points, meyers_points
from mvtlab.generalized import (
    cakmak_tiryaki_points, pawlikowska_points, riedel_sahoo_points,
    second_order_points,
)
from mvtlab.mvt_points import (
    cauchy_points, integral_mvt_points, lagrange_points, rolle_points,
)
from mvtlab.numerics import DEFAULT_CONFIG, Interval, TheoremId
from mvtlab.operators import (
    cauchy_flett_points, lupu_4_6_points, lupu_4_7_points, thm_4_9_points,
    thm_4_10_points, weighted_norm_point,
)
from mvtlab.verify import Inputs, _check, verify_point

CUBIC = parse("x^3+2*x-1")
QUARTIC = parse("x^4-2*x^2")
WIDE = Interval(-2.0, 2.0)
UNIT = Interval(0.0, 1.0)


def _located():
    """One representative (xis, f, g, weight, iv, n, bogus) per theorem id."""
    sin2 = parse("sqrt(2)*sin(2*pi*x)")
    cos2 = parse("sqrt(2)*cos(2*pi*x)")
    cases = {
        TheoremId.ROLLE: ([p.xi for p in rolle_points(parse("x^2-x"), UNIT)],
                          parse("x^2-x"), None, None, UNIT, 1, 0.123456789),
        TheoremId.LAGRANGE: ([p.xi for p in lagrange_points(parse("x^3"), UNIT)],
                             parse("x^3"), None, None, UNIT, 1, 0.123456789),
        TheoremId.CAUCHY: (
            [p.xi for p in cauchy_points(parse("x^3"), parse("x^2"),
                                         Interval(1.0, 2.0))],
            parse("x^3"), parse("x^2"), None, Interval(1.0, 2.0), 1, 1.3456789),
        TheoremId.INTEGRAL_MVT: (
            [p.xi for p in integral_mvt_points(parse("sin(x)"),
                                               Interval(0.0, math.pi))],
            parse("sin(x)"), None, None, Interval(0.0, math.pi), 1, 0.123456789),
        TheoremId.FLETT: ([p.xi for p in find_flett_points(CUBIC, WIDE)],
                          CUBIC, None, None, WIDE, 1, 0.333),
        TheoremId.RIEDEL_SAHOO: (
            [p.xi for p in riedel_sahoo_points(parse("x^3"), UNIT)],
            parse("x^3"), None, None, UNIT, 1, 0.123456789),
        TheoremId.CAKMAK_TIRYAKI: (
            [p.xi for p in cakmak_tiryaki_points(parse("x^3"), UNIT)],
            parse("x^3"), None, None, UNIT, 1, 0.123456789),
        TheoremId.SECOND_ORDER_A: (
            [p.xi for p in second_order_points("anchored_at_a", QUARTIC,
                                               Interval(-1.0, 1.0))],
            QUARTIC, None, None, Interval(-1.0, 1.0), 1, 0.1234),
        TheoremId.SECOND_ORDER_B: (
            [p.xi for p in second_order_points("anchored_at_b", QUARTIC,
                                               Interval(-1.0, 1.0))],
            QUARTIC, None, None, Interval(-1.0, 1.0), 1, 0.1234),
        TheoremId.PAWLIKOWSKA: (
            [p.xi for p in pawlikowska_points(QUARTIC, Interval(-1.0, 1.0), 2)],
            QUARTIC, None, None, Interval(-1.0, 1.0), 2, 0.1234),
        TheoremId.CAUCHY_FLETT: (
            [p.xi for p in cauchy_flett_points(parse("x+x^3/3"),
                                               parse("x+x^2/2"), UNIT)],
            parse("x+x^3/3"), parse("x+x^2/2"), None, UNIT, 1, 0.123456789),
        TheoremId.THM_4_9: (
            [p.xi for p in thm_4_9_points(parse("sin(2*pi*x)"), parse("exp(x)"),
                                          UNIT)],
            parse("sin(2*pi*x)"), parse("exp(x)"), None, UNIT, 1, 0.123456789),
        TheoremId.THM_4_10: (
            [p.xi for p in thm_4_10_points(parse("x"), parse("1"), parse("x"))],
            parse("x"), parse("1"), parse("x"), UNIT, 1, 0.123456789),
        TheoremId.WEIGHTED_NORM: (
            [weighted_norm_point(sin2, cos2, parse("x")).xi],
            sin2, cos2, parse("x"), UNIT, 1, 0.123456789),
    }
    for v in (TheoremId.MEYERS_2_3, TheoremId.MEYERS_2_4, TheoremId.MEYERS_2_5,
              TheoremId.MEYERS_2_6, TheoremId.MEYERS_2_7, TheoremId.MEYERS_2_8,
              TheoremId.MEYERS_2_9):
        pts = meyers_points(v, CUBIC, WIDE)
        cases[v] = ([p.xi for p in pts], CUBIC, None, None,
                                     WIDE, 1, 0.333)
    l1, l2, l3 = lupu_4_6_points(parse("x"), parse("x^2"))
    for tid, p in ((TheoremId.LUPU_4_6_T, l1), (TheoremId.LUPU_4_6_TS, l2),
                   (TheoremId.LUPU_4_6_S, l3)):
        cases[tid] = ([p.xi], parse("x"), parse("x^2"), None, UNIT, 1,
                      0.123456789)
    w1, w2 = lupu_4_7_points(parse("x"), parse("x^2"))
    cases[TheoremId.LUPU_4_7_T] = ([w1.xi], parse("x"), parse("x^2"), None,
                                   UNIT, 1, 0.123456789)
    cases[TheoremId.LUPU_4_7_S] = ([w2.xi], parse("x"), parse("x^2"), None,
                                   UNIT, 1, 0.123456789)
    return cases


@pytest.fixture(scope="module")
def located():
    return _located()


ALL_IDS = sorted(TheoremId, key=lambda t: t.value)


@pytest.mark.parametrize("tid", ALL_IDS, ids=lambda t: t.value)
def test_located_points_verify(tid, located):
    xis, f, g, weight, iv, n, _ = located[tid]
    assert xis, f"no points located for {tid}"
    # one Inputs shared by every point, as the CLI shares it
    shared = Inputs(f, g, weight, iv, n, DEFAULT_CONFIG)
    for xi in xis:
        ic = verify_point(tid, xi, f, g=g, weight=weight, iv=iv, n=n)
        assert ic.ok, f"{tid} failed at {xi}: {ic}"
        assert ic.defect <= ic.tolerance
        assert math.isfinite(ic.lhs) and math.isfinite(ic.rhs)
        assert _check(tid, shared, xi) == ic


@pytest.mark.parametrize("tid", ALL_IDS, ids=lambda t: t.value)
def test_bogus_points_fail(tid, located):
    _, f, g, weight, iv, n, bogus = located[tid]
    ic = verify_point(tid, bogus, f, g=g, weight=weight, iv=iv, n=n)
    assert not ic.ok
    assert ic.defect > ic.tolerance


def test_string_and_enum_ids_agree():
    a = verify_point("flett", 1.0, CUBIC, iv=WIDE)
    b = verify_point(TheoremId.FLETT, 1.0, CUBIC, iv=WIDE)
    assert a == b and a.ok


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        verify_point("meyers-9.9", 0.5, CUBIC, iv=WIDE)


def test_missing_g_rejected():
    with pytest.raises(ValueError):
        verify_point("cauchy", 0.5, parse("x^2"), iv=UNIT)


def test_missing_weight_rejected():
    with pytest.raises(ValueError):
        verify_point("thm-4.10", 0.5, parse("x"), g=parse("1"), iv=UNIT)
