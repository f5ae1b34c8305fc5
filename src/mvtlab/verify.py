"""The theorem table, and independent re-verification of located points.

:data:`THEOREMS` holds, for every theorem id, the inputs the identity takes,
its domain, and its stated two-sided form. The solvers search
multiplied-through residuals on cached grids; this module re-evaluates each
identity in its stated form at a candidate point, with fresh quadrature at a
hundredfold tighter tolerance for the operator identities. Agreement is
therefore evidence about the point, not a tautology of the search form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

from .expr import Expr, compile_fn, differentiate
from .numerics import (
    DEFAULT_CONFIG, Interval, SolverConfig, TheoremId, integrate, tolerance,
)

__all__ = ["IdentityCheck", "Inputs", "Theorem", "THEOREMS", "verify_point"]


@dataclass(frozen=True, slots=True)
class IdentityCheck:
    """Two sides of an identity at one point, and whether they agree."""

    ok: bool
    defect: float
    tolerance: float
    lhs: float
    rhs: float


class Inputs:
    """One request's inputs; f, g and f' compile on first use."""

    def __init__(self, f: Expr, g: Expr | None, weight: Expr | None,
                 iv: Interval, n: int, cfg: SolverConfig):
        self.f, self.g, self.weight, self.iv, self.n, self.cfg = f, g, weight, iv, n, cfg
        self.a, self.b, self.w = iv.a, iv.b, iv.width

    @cached_property
    def fc(self) -> Callable[[float], float]:
        return compile_fn(self.f)

    @cached_property
    def gc(self) -> Callable[[float], float]:
        return compile_fn(self.g)

    @cached_property
    def d1(self) -> Callable[[float], float]:
        return compile_fn(differentiate(self.f))


@dataclass(frozen=True, slots=True)
class Theorem:
    """One identity: the inputs it takes, its domain, its stated form.

    ``sides(inputs, xi)`` returns (lhs, rhs) as the theorem states them,
    written apart from the solvers' search residuals. ``unit_only``
    identities are defined on [0, 1] only. ``quadrature`` forms are
    recomputed at quad_tol/100 and judged at 100*quad_tol; the others are
    judged at residual_tol.
    """

    sides: Callable[[Inputs, float], tuple[float, float]]
    needs_g: bool = False
    needs_weight: bool = False
    takes_n: bool = False
    unit_only: bool = False
    quadrature: bool = False


def _slope_gap(q: Inputs) -> float:
    return (q.d1(q.b) - q.d1(q.a)) / q.w


def _pawlikowska(q: Inputs, xi: float) -> tuple[float, float]:
    rhs = 0.0
    p = 1.0
    gexpr = q.f
    for i in range(1, q.n + 1):
        gexpr = differentiate(gexpr)
        p *= xi - q.a
        rhs += (-1.0) ** (i + 1) / math.factorial(i) * p * compile_fn(gexpr)(xi)
    return q.fc(xi) - q.fc(q.a), rhs


def _cauchy_flett(q: Inputs, xi: float) -> tuple[float, float]:
    fc, gc, a = q.fc, q.gc, q.a
    dg = compile_fn(differentiate(q.g))
    lhs = (fc(xi) - fc(a)) / (gc(xi) - gc(a))
    rhs = q.d1(xi) / dg(xi)
    if math.isfinite(lhs) and math.isfinite(rhs):
        return lhs, rhs
    # quotient blew up (shared root of both numerators); fall back to
    # the multiplied-through form
    return (fc(xi) - fc(a)) * dg(xi), q.d1(xi) * (gc(xi) - gc(a))


def _thm_4_9(q: Inputs, xi: float) -> tuple[float, float]:
    fc, gc, a = q.fc, q.gc, q.a
    return integrate(lambda x: fc(x) * gc(x), a, xi, q.cfg), gc(a) * integrate(fc, a, xi, q.cfg)


# the identities below live on [0, 1] regardless of iv


def _thm_4_10(q: Inputs, xi: float) -> tuple[float, float]:
    fc, gc, pc = q.fc, q.gc, compile_fn(q.weight)
    int_f = integrate(fc, 0.0, 1.0, q.cfg)
    int_g = integrate(gc, 0.0, 1.0, q.cfg)
    vpf = integrate(lambda x: pc(x) * fc(x), 0.0, xi, q.cfg)
    vpg = integrate(lambda x: pc(x) * gc(x), 0.0, xi, q.cfg)
    vf = integrate(fc, 0.0, xi, q.cfg)
    vg = integrate(gc, 0.0, xi, q.cfg)
    return vpf * int_g - vpg * int_f, pc(0.0) * (vf * int_g - vg * int_f)


def _weighted_norm(q: Inputs, xi: float) -> tuple[float, float]:
    fc, gc, pc = q.fc, q.gc, compile_fn(q.weight)
    int_f2 = integrate(lambda x: (v := fc(x)) * v, 0.0, 1.0, q.cfg)
    int_g2 = integrate(lambda x: (v := gc(x)) * v, 0.0, 1.0, q.cfg)
    lhs = integrate(lambda x: pc(x) * ((v := fc(x)) * v), 0.0, xi, q.cfg) * int_g2
    rhs = integrate(lambda x: pc(x) * ((v := gc(x)) * v), 0.0, xi, q.cfg) * int_f2
    return lhs, rhs


def _t_of(q: Inputs, h, xi: float) -> float:
    return h(xi) - integrate(h, 0.0, xi, q.cfg)


def _s_of(q: Inputs, h, xi: float) -> float:
    return xi * h(xi) - integrate(lambda x: x * h(x), 0.0, xi, q.cfg)


def _coupled(op, weighted):
    """Sides c_f·op(g)(xi) and c_g·op(f)(xi), c_h the integral of weighted(h)."""
    def sides(q: Inputs, xi: float) -> tuple[float, float]:
        cf = integrate(weighted(q.fc), 0.0, 1.0, q.cfg)
        cg = integrate(weighted(q.gc), 0.0, 1.0, q.cfg)
        return cf * op(q, q.gc, xi), cg * op(q, q.fc, xi)
    return sides


def _one_minus_x(h):
    return lambda x: (1.0 - x) * h(x)


# the operator identities: defined on [0, 1], sides by quadrature
_OPERATOR = {"unit_only": True, "quadrature": True}

THEOREMS: dict[TheoremId, Theorem] = {
    TheoremId.ROLLE: Theorem(lambda q, x: (q.d1(x), 0.0)),
    TheoremId.LAGRANGE: Theorem(lambda q, x: (q.d1(x), (q.fc(q.b) - q.fc(q.a)) / q.w)),
    TheoremId.CAUCHY: Theorem(lambda q, x: (
        q.d1(x) * (q.gc(q.b) - q.gc(q.a)),
        compile_fn(differentiate(q.g))(x) * (q.fc(q.b) - q.fc(q.a))), needs_g=True),
    TheoremId.INTEGRAL_MVT: Theorem(lambda q, x: (
        q.fc(x), integrate(q.fc, q.a, q.b, q.cfg) / q.w)),
    # Flett's identity and the Meyers variants: f' equals a difference quotient
    TheoremId.FLETT: Theorem(lambda q, x: (q.d1(x), (q.fc(x) - q.fc(q.a)) / (x - q.a))),
    TheoremId.MEYERS_2_3: Theorem(lambda q, x: (q.d1(x), (q.fc(q.b) - q.fc(x)) / (q.b - x))),
    TheoremId.MEYERS_2_4: Theorem(lambda q, x: (q.d1(x), (q.fc(q.b) - q.fc(x)) / (x - q.a))),
    TheoremId.MEYERS_2_5: Theorem(lambda q, x: (q.d1(x), (q.fc(x) - q.fc(q.a)) / (q.b - x))),
    TheoremId.MEYERS_2_6: Theorem(lambda q, x: (q.d1(x), (q.fc(q.b) - q.fc(q.a)) / (x - q.a))),
    TheoremId.MEYERS_2_7: Theorem(lambda q, x: (q.d1(x), (q.fc(q.b) - q.fc(q.a)) / (q.b - x))),
    TheoremId.MEYERS_2_8: Theorem(lambda q, x: (q.d1(x), (q.fc(x) - q.fc(q.a)) / q.w)),
    TheoremId.MEYERS_2_9: Theorem(lambda q, x: (q.d1(x), (q.fc(q.b) - q.fc(x)) / q.w)),
    TheoremId.RIEDEL_SAHOO: Theorem(lambda q, x: (
        q.fc(x) - q.fc(q.a), (x - q.a) * q.d1(x) - 0.5 * _slope_gap(q) * (x - q.a) ** 2)),
    TheoremId.CAKMAK_TIRYAKI: Theorem(lambda q, x: (
        q.fc(q.b) - q.fc(x), (q.b - x) * q.d1(x) + 0.5 * _slope_gap(q) * (q.b - x) ** 2)),
    TheoremId.SECOND_ORDER_A: Theorem(lambda q, x: (
        q.fc(x) - q.fc(q.a),
        (x - q.a) * q.d1(x) - 0.5 * (x - q.a) ** 2 * compile_fn(differentiate(q.f, 2))(x))),
    TheoremId.SECOND_ORDER_B: Theorem(lambda q, x: (
        q.fc(q.b) - q.fc(x),
        (q.b - x) * q.d1(x) - 0.5 * (q.b - x) ** 2 * compile_fn(differentiate(q.f, 2))(x))),
    TheoremId.PAWLIKOWSKA: Theorem(_pawlikowska, takes_n=True),
    TheoremId.CAUCHY_FLETT: Theorem(_cauchy_flett, needs_g=True),
    TheoremId.THM_4_9: Theorem(_thm_4_9, needs_g=True, quadrature=True),
    TheoremId.THM_4_10: Theorem(_thm_4_10, needs_g=True, needs_weight=True, **_OPERATOR),
    TheoremId.WEIGHTED_NORM: Theorem(_weighted_norm, needs_g=True, needs_weight=True,
                                     **_OPERATOR),
    TheoremId.LUPU_4_6_T: Theorem(_coupled(_t_of, lambda h: h), needs_g=True, **_OPERATOR),
    TheoremId.LUPU_4_6_TS: Theorem(lambda q, x: (_t_of(q, q.fc, x), _s_of(q, q.fc, x)),
                                   **_OPERATOR),
    TheoremId.LUPU_4_6_S: Theorem(_coupled(_s_of, lambda h: h), needs_g=True, **_OPERATOR),
    TheoremId.LUPU_4_7_T: Theorem(_coupled(_t_of, _one_minus_x), needs_g=True, **_OPERATOR),
    TheoremId.LUPU_4_7_S: Theorem(_coupled(_s_of, _one_minus_x), needs_g=True, **_OPERATOR),
}


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
    thm = THEOREMS[tid]
    cfg = cfg or DEFAULT_CONFIG
    if thm.needs_g and g is None:
        raise ValueError(f"{tid} needs g")
    if thm.needs_weight and weight is None:
        raise ValueError(f"{tid} needs a weight")
    unit = cfg.residual_tol
    if thm.quadrature:
        unit = 100.0 * cfg.quad_tol
        cfg = replace(cfg, quad_tol=cfg.quad_tol / 100.0)
    lhs, rhs = thm.sides(Inputs(f, g, weight, iv or Interval(0.0, 1.0), n, cfg), xi)
    defect = abs(lhs - rhs)
    tol = tolerance(lhs, rhs, unit)
    return IdentityCheck(math.isfinite(defect) and defect <= tol, defect, tol, lhs, rhs)
