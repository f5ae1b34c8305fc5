"""Independent re-verification of located points.

The solvers search multiplied-through residuals on cached grids; this
module re-evaluates each identity in its stated two-sided form at a
candidate point, with fresh quadrature at a hundredfold tighter tolerance
for the operator identities. Agreement is therefore evidence about the
point, not a tautology of the search form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .expr import Expr, compile_fn, differentiate
from .flett import MeyersVariant, quotient_sides
from .numerics import (
    DEFAULT_CONFIG, Interval, SolverConfig, TheoremId, integrate,
)

__all__ = ["IdentityCheck", "verify_point"]


@dataclass(frozen=True, slots=True)
class IdentityCheck:
    """Two sides of an identity at one point, and whether they agree."""

    ok: bool
    defect: float
    tolerance: float
    lhs: float
    rhs: float


_FLETT_FAMILY = {
    TheoremId.FLETT, TheoremId.MEYERS_2_3, TheoremId.MEYERS_2_4,
    TheoremId.MEYERS_2_5, TheoremId.MEYERS_2_6, TheoremId.MEYERS_2_7,
    TheoremId.MEYERS_2_8, TheoremId.MEYERS_2_9,
}

_NEEDS_G = {
    TheoremId.CAUCHY, TheoremId.CAUCHY_FLETT, TheoremId.THM_4_9,
    TheoremId.THM_4_10, TheoremId.LUPU_4_6_T, TheoremId.LUPU_4_6_S,
    TheoremId.LUPU_4_7_T, TheoremId.LUPU_4_7_S, TheoremId.WEIGHTED_NORM,
}

_NEEDS_WEIGHT = {TheoremId.THM_4_10, TheoremId.WEIGHTED_NORM}


def _check(lhs: float, rhs: float, tol_unit: float) -> IdentityCheck:
    defect = abs(lhs - rhs)
    tol = tol_unit * max(1.0, abs(lhs), abs(rhs))
    ok = math.isfinite(defect) and defect <= tol
    return IdentityCheck(ok, defect, tol, lhs, rhs)


def verify_point(theorem_id: TheoremId | str, xi: float, f: Expr,
                 g: Expr | None = None, weight: Expr | None = None,
                 iv: Interval | None = None, n: int = 1,
                 cfg: SolverConfig | None = None) -> IdentityCheck:
    """Evaluate both sides of the named identity at xi and compare.

    Agreement is judged relative to max(1, |lhs|, |rhs|): residual_tol for
    the pointwise identities, 100*quad_tol for the quadrature-based ones
    (whose sides are recomputed here at quad_tol/100).
    """
    tid = TheoremId(theorem_id)
    cfg = cfg or DEFAULT_CONFIG
    iv = iv or Interval(0.0, 1.0)
    if tid in _NEEDS_G and g is None:
        raise ValueError(f"{tid} needs g")
    if tid in _NEEDS_WEIGHT and weight is None:
        raise ValueError(f"{tid} needs a weight")

    fc = compile_fn(f)
    a, b, w = iv.a, iv.b, iv.width
    rtol = cfg.residual_tol

    if tid is TheoremId.ROLLE:
        return _check(compile_fn(differentiate(f))(xi), 0.0, rtol)
    if tid is TheoremId.LAGRANGE:
        lhs = compile_fn(differentiate(f))(xi)
        return _check(lhs, (fc(b) - fc(a)) / w, rtol)
    if tid is TheoremId.CAUCHY:
        gc = compile_fn(g)
        lhs = compile_fn(differentiate(f))(xi) * (gc(b) - gc(a))
        rhs = compile_fn(differentiate(g))(xi) * (fc(b) - fc(a))
        return _check(lhs, rhs, rtol)
    if tid is TheoremId.INTEGRAL_MVT:
        return _check(fc(xi), integrate(fc, a, b, cfg) / w, rtol)

    if tid in _FLETT_FAMILY:
        lhs_fn, rhs_fn = quotient_sides(MeyersVariant(tid.value), f, iv)
        return _check(lhs_fn(xi), rhs_fn(xi), rtol)

    d1 = compile_fn(differentiate(f))
    if tid is TheoremId.RIEDEL_SAHOO:
        k = (d1(b) - d1(a)) / w
        rhs = (xi - a) * d1(xi) - 0.5 * k * (xi - a) ** 2
        return _check(fc(xi) - fc(a), rhs, rtol)
    if tid is TheoremId.CAKMAK_TIRYAKI:
        k = (d1(b) - d1(a)) / w
        rhs = (b - xi) * d1(xi) + 0.5 * k * (b - xi) ** 2
        return _check(fc(b) - fc(xi), rhs, rtol)
    if tid is TheoremId.SECOND_ORDER_A:
        d2 = compile_fn(differentiate(f, 2))
        rhs = (xi - a) * d1(xi) - 0.5 * (xi - a) ** 2 * d2(xi)
        return _check(fc(xi) - fc(a), rhs, rtol)
    if tid is TheoremId.SECOND_ORDER_B:
        d2 = compile_fn(differentiate(f, 2))
        rhs = (b - xi) * d1(xi) - 0.5 * (b - xi) ** 2 * d2(xi)
        return _check(fc(b) - fc(xi), rhs, rtol)
    if tid is TheoremId.PAWLIKOWSKA:
        rhs = 0.0
        p = 1.0
        gexpr = f
        for i in range(1, n + 1):
            gexpr = differentiate(gexpr)
            p *= xi - a
            rhs += (-1.0) ** (i + 1) / math.factorial(i) * p * compile_fn(gexpr)(xi)
        return _check(fc(xi) - fc(a), rhs, rtol)
    if tid is TheoremId.CAUCHY_FLETT:
        gc = compile_fn(g)
        dg = compile_fn(differentiate(g))
        lhs = (fc(xi) - fc(a)) / (gc(xi) - gc(a))
        rhs = d1(xi) / dg(xi)
        if math.isfinite(lhs) and math.isfinite(rhs):
            return _check(lhs, rhs, rtol)
        # quotient blew up (shared root of both numerators); fall back to
        # the multiplied-through form
        lhs = (fc(xi) - fc(a)) * dg(xi)
        rhs = d1(xi) * (gc(xi) - gc(a))
        return _check(lhs, rhs, rtol)

    # quadrature-backed identities: recompute at a hundredfold tighter
    # tolerance and judge at 100*quad_tol
    vcfg = replace(cfg, quad_tol=cfg.quad_tol / 100.0)
    qtol = 100.0 * cfg.quad_tol

    if tid is TheoremId.THM_4_9:
        gc = compile_fn(g)
        lhs = integrate(lambda x: fc(x) * gc(x), a, xi, vcfg)
        rhs = gc(a) * integrate(fc, a, xi, vcfg)
        return _check(lhs, rhs, qtol)

    # the rest live on [0, 1] regardless of iv
    if tid is TheoremId.THM_4_10:
        gc, pc = compile_fn(g), compile_fn(weight)
        int_f = integrate(fc, 0.0, 1.0, vcfg)
        int_g = integrate(gc, 0.0, 1.0, vcfg)
        vpf = integrate(lambda x: pc(x) * fc(x), 0.0, xi, vcfg)
        vpg = integrate(lambda x: pc(x) * gc(x), 0.0, xi, vcfg)
        vf = integrate(fc, 0.0, xi, vcfg)
        vg = integrate(gc, 0.0, xi, vcfg)
        lhs = vpf * int_g - vpg * int_f
        rhs = pc(0.0) * (vf * int_g - vg * int_f)
        return _check(lhs, rhs, qtol)
    if tid is TheoremId.WEIGHTED_NORM:
        gc, pc = compile_fn(g), compile_fn(weight)
        int_f2 = integrate(lambda x: (v := fc(x)) * v, 0.0, 1.0, vcfg)
        int_g2 = integrate(lambda x: (v := gc(x)) * v, 0.0, 1.0, vcfg)
        lhs = integrate(lambda x: pc(x) * ((v := fc(x)) * v), 0.0, xi, vcfg) * int_g2
        rhs = integrate(lambda x: pc(x) * ((v := gc(x)) * v), 0.0, xi, vcfg) * int_f2
        return _check(lhs, rhs, qtol)

    def t_of(h):
        return h(xi) - integrate(h, 0.0, xi, vcfg)

    def s_of(h):
        return xi * h(xi) - integrate(lambda x: x * h(x), 0.0, xi, vcfg)

    if tid is TheoremId.LUPU_4_6_TS:
        return _check(t_of(fc), s_of(fc), qtol)

    gc = compile_fn(g)
    if tid in (TheoremId.LUPU_4_6_T, TheoremId.LUPU_4_6_S):
        cf = integrate(fc, 0.0, 1.0, vcfg)
        cg = integrate(gc, 0.0, 1.0, vcfg)
    else:
        cf = integrate(lambda x: (1.0 - x) * fc(x), 0.0, 1.0, vcfg)
        cg = integrate(lambda x: (1.0 - x) * gc(x), 0.0, 1.0, vcfg)
    if tid in (TheoremId.LUPU_4_6_T, TheoremId.LUPU_4_7_T):
        return _check(cf * t_of(gc), cg * t_of(fc), qtol)
    if tid in (TheoremId.LUPU_4_6_S, TheoremId.LUPU_4_7_S):
        return _check(cf * s_of(gc), cg * s_of(fc), qtol)
    raise ValueError(f"no verifier for theorem id {theorem_id!r}")
