"""The theorem table, and independent re-verification of located points.

:data:`THEOREMS` holds, for every theorem id, the inputs the identity takes,
its domain, and its stated two-sided form. The solvers search
multiplied-through residuals on cached grids; this module re-evaluates each
identity in its stated form at a candidate point, with fresh quadrature at a
hundredfold tighter tolerance for the operator identities. Agreement is
therefore evidence about the point, not a tautology of the search form.

The quadrature is a different rule from the search's, too: the search
reads its running integrals from prefixes built on the scan grid's nodes,
while every side here is one :func:`~mvtlab.numerics.whole_integral` over
[0, xi] (or [a, xi]), a tanh-sinh integral, or adaptive Simpson for an
integrand with a kink, at a hundredth of the tolerance, which shares no
sample or error test with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable

from .expr import Expr, compile_fn, differentiate, evaluate
from .generalized import endpoint_slopes
# integrate is unused here but bench/tracer.py patches it
from .numerics import (
    DEFAULT_CONFIG, Interval, SolverConfig, TheoremId, integrate, tolerance, whole_integral,
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
    """One request's inputs, and what verifying its points shares.

    The functions (f, g and the weight compiled; f', f'' and g' read at a
    point or two, so :func:`~mvtlab.expr.evaluate` walks) are plain reads
    through :func:`~mvtlab.expr.compile_fn` and
    :func:`~mvtlab.expr.differentiate`, which memoize on the request's
    trees, so the solver, the hypothesis and every point verified share one
    derivative chain and one compile per tree. What does not depend on the
    point (integrals over [0, 1], the slope gap) is made on first use and kept.
    ``quad_cfg`` is ``cfg`` at a hundredth of its quadrature tolerance: the
    quadrature identities' sides are recomputed at it, each by
    :func:`~mvtlab.numerics.whole_integral`.
    """

    def __init__(self, f: Expr, g: Expr | None, weight: Expr | None,
                 iv: Interval, n: int, cfg: SolverConfig):
        self.f, self.g, self.weight, self.iv, self.n, self.cfg = f, g, weight, iv, n, cfg
        self.a, self.b, self.w = iv.a, iv.b, iv.width

    @cached_property
    def quad_cfg(self) -> SolverConfig:
        return replace(self.cfg, quad_tol=self.cfg.quad_tol / 100.0)

    fc = property(lambda self: compile_fn(self.f))
    gc = property(lambda self: compile_fn(self.g))
    pc = property(lambda self: compile_fn(self.weight))
    d1 = property(lambda self: partial(evaluate, differentiate(self.f)))
    d2 = property(lambda self: partial(evaluate, differentiate(self.f, 2)))
    dg = property(lambda self: partial(evaluate, differentiate(self.g)))

    def _over_unit(self, F: Callable[[float], float], tree: Expr) -> float:
        return whole_integral(F, 0.0, 1.0, self.quad_cfg, tree)

    @cached_property
    def slope_gap(self) -> float:
        # from the slopes the solvers read; nan, a failing check, where one is None
        da, db = endpoint_slopes(self.f, self.iv, self.cfg)
        return math.nan if da is None or db is None else (db - da) / self.w

    @cached_property
    def int_f(self) -> float:
        return self._over_unit(self.fc, self.f)

    @cached_property
    def int_g(self) -> float:
        return self._over_unit(self.gc, self.g)

    @cached_property
    def int_f2(self) -> float:
        fc = self.fc
        return self._over_unit(lambda x: (v := fc(x)) * v, self.f)

    @cached_property
    def int_g2(self) -> float:
        gc = self.gc
        return self._over_unit(lambda x: (v := gc(x)) * v, self.g)

    @cached_property
    def int_1mx_f(self) -> float:
        """The integral of (1-x)·f over [0, 1]."""
        return self._over_unit(_one_minus_x(self.fc), self.f)

    @cached_property
    def int_1mx_g(self) -> float:
        return self._over_unit(_one_minus_x(self.gc), self.g)


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


def _pawlikowska(q: Inputs, xi: float) -> tuple[float, float]:
    rhs = 0.0
    p = 1.0
    gexpr = q.f
    for i in range(1, q.n + 1):
        gexpr = differentiate(gexpr)
        p *= xi - q.a
        rhs += (-1.0) ** (i + 1) / math.factorial(i) * p * evaluate(gexpr, xi)
    return q.fc(xi) - q.fc(q.a), rhs


def _cauchy_flett(q: Inputs, xi: float) -> tuple[float, float]:
    fc, gc, a = q.fc, q.gc, q.a
    chord_f, chord_g, df, dg = fc(xi) - fc(a), gc(xi) - gc(a), q.d1(xi), q.dg(xi)
    if chord_g and dg:
        lhs, rhs = chord_f / chord_g, df / dg
        if math.isfinite(lhs) and math.isfinite(rhs):
            return lhs, rhs
    # a denominator is 0, or a quotient blew up (shared root of both
    # numerators): fall back to the multiplied-through form
    return chord_f * dg, df * chord_g


def _thm_4_9(q: Inputs, xi: float) -> tuple[float, float]:
    f, g, fc, gc, a, cfg = q.f, q.g, q.fc, q.gc, q.a, q.quad_cfg
    return (whole_integral(lambda x: fc(x) * gc(x), a, xi, cfg, f, g),
            gc(a) * whole_integral(fc, a, xi, cfg, f))


# the identities below live on [0, 1] regardless of iv


def _thm_4_10(q: Inputs, xi: float) -> tuple[float, float]:
    f, g, phi, fc, gc, pc, cfg = q.f, q.g, q.weight, q.fc, q.gc, q.pc, q.quad_cfg
    int_f, int_g = q.int_f, q.int_g
    vpf = whole_integral(lambda x: pc(x) * fc(x), 0.0, xi, cfg, phi, f)
    vpg = whole_integral(lambda x: pc(x) * gc(x), 0.0, xi, cfg, phi, g)
    vf = whole_integral(fc, 0.0, xi, cfg, f)
    vg = whole_integral(gc, 0.0, xi, cfg, g)
    return vpf * int_g - vpg * int_f, pc(0.0) * (vf * int_g - vg * int_f)


def _weighted_norm(q: Inputs, xi: float) -> tuple[float, float]:
    f, g, phi, fc, gc, pc, cfg = q.f, q.g, q.weight, q.fc, q.gc, q.pc, q.quad_cfg
    lhs = whole_integral(lambda x: pc(x) * ((v := fc(x)) * v), 0.0, xi, cfg, phi, f) * q.int_g2
    rhs = whole_integral(lambda x: pc(x) * ((v := gc(x)) * v), 0.0, xi, cfg, phi, g) * q.int_f2
    return lhs, rhs


def _t_of(q: Inputs, h: Expr, xi: float) -> float:
    hc = compile_fn(h)
    return hc(xi) - whole_integral(hc, 0.0, xi, q.quad_cfg, h)


def _s_of(q: Inputs, h: Expr, xi: float) -> float:
    hc = compile_fn(h)
    return xi * hc(xi) - whole_integral(lambda x: x * hc(x), 0.0, xi, q.quad_cfg, h)


def _coupled(op, constants):
    """Sides c_f·op(g)(xi) and c_g·op(f)(xi), (c_f, c_g) = constants(q)."""
    def sides(q: Inputs, xi: float) -> tuple[float, float]:
        cf, cg = constants(q)
        return cf * op(q, q.g, xi), cg * op(q, q.f, xi)
    return sides


def _one_minus_x(h):
    return lambda x: (1.0 - x) * h(x)


def _plain(q: Inputs) -> tuple[float, float]:
    return q.int_f, q.int_g


def _one_minus_x_weighted(q: Inputs) -> tuple[float, float]:
    return q.int_1mx_f, q.int_1mx_g


# the operator identities: defined on [0, 1], sides by quadrature
_OPERATOR = {"unit_only": True, "quadrature": True}

THEOREMS: dict[TheoremId, Theorem] = {
    TheoremId.ROLLE: Theorem(lambda q, x: (q.d1(x), 0.0)),
    TheoremId.LAGRANGE: Theorem(lambda q, x: (q.d1(x), (q.fc(q.b) - q.fc(q.a)) / q.w)),
    TheoremId.CAUCHY: Theorem(lambda q, x: (
        q.d1(x) * (q.gc(q.b) - q.gc(q.a)), q.dg(x) * (q.fc(q.b) - q.fc(q.a))), needs_g=True),
    TheoremId.INTEGRAL_MVT: Theorem(lambda q, x: (
        q.fc(x), whole_integral(q.fc, q.a, q.b, q.cfg, q.f) / q.w)),
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
        q.fc(x) - q.fc(q.a), (x - q.a) * q.d1(x) - 0.5 * q.slope_gap * (x - q.a) ** 2)),
    TheoremId.CAKMAK_TIRYAKI: Theorem(lambda q, x: (
        q.fc(q.b) - q.fc(x), (q.b - x) * q.d1(x) + 0.5 * q.slope_gap * (q.b - x) ** 2)),
    TheoremId.SECOND_ORDER_A: Theorem(lambda q, x: (
        q.fc(x) - q.fc(q.a),
        (x - q.a) * q.d1(x) - 0.5 * (x - q.a) ** 2 * q.d2(x))),
    TheoremId.SECOND_ORDER_B: Theorem(lambda q, x: (
        q.fc(q.b) - q.fc(x),
        (q.b - x) * q.d1(x) - 0.5 * (q.b - x) ** 2 * q.d2(x))),
    TheoremId.PAWLIKOWSKA: Theorem(_pawlikowska, takes_n=True),
    TheoremId.CAUCHY_FLETT: Theorem(_cauchy_flett, needs_g=True),
    TheoremId.THM_4_9: Theorem(_thm_4_9, needs_g=True, quadrature=True),
    TheoremId.THM_4_10: Theorem(_thm_4_10, needs_g=True, needs_weight=True, **_OPERATOR),
    TheoremId.WEIGHTED_NORM: Theorem(_weighted_norm, needs_g=True, needs_weight=True,
                                     **_OPERATOR),
    TheoremId.LUPU_4_6_T: Theorem(_coupled(_t_of, _plain), needs_g=True, **_OPERATOR),
    TheoremId.LUPU_4_6_TS: Theorem(lambda q, x: (_t_of(q, q.f, x), _s_of(q, q.f, x)),
                                   **_OPERATOR),
    TheoremId.LUPU_4_6_S: Theorem(_coupled(_s_of, _plain), needs_g=True, **_OPERATOR),
    TheoremId.LUPU_4_7_T: Theorem(_coupled(_t_of, _one_minus_x_weighted), needs_g=True,
                                  **_OPERATOR),
    TheoremId.LUPU_4_7_S: Theorem(_coupled(_s_of, _one_minus_x_weighted), needs_g=True,
                                  **_OPERATOR),
}


def verify_point(theorem_id: TheoremId | str, xi: float, f: Expr,
                 g: Expr | None = None, weight: Expr | None = None,
                 iv: Interval | None = None, n: int = 1,
                 cfg: SolverConfig = DEFAULT_CONFIG) -> IdentityCheck:
    """Evaluate both sides of the named identity at xi and compare.

    Agreement is judged relative to max(1, |lhs|, |rhs|): residual_tol for
    the pointwise identities, 100*quad_tol for the quadrature-based ones
    (whose sides are recomputed here at quad_tol/100).
    """
    tid = TheoremId(theorem_id)
    thm = THEOREMS[tid]
    if thm.needs_g and g is None:
        raise ValueError(f"{tid} needs g")
    if thm.needs_weight and weight is None:
        raise ValueError(f"{tid} needs a weight")
    return _check(tid, Inputs(f, g, weight, iv or Interval(0.0, 1.0), n, cfg), xi)


def _check(tid: TheoremId, q: Inputs, xi: float) -> IdentityCheck:
    """verify_point() of q's inputs: a request verifying several points
    passes the same q each time, so what they share is computed once."""
    thm = THEOREMS[tid]
    unit = 100.0 * q.cfg.quad_tol if thm.quadrature else q.cfg.residual_tol
    lhs, rhs = thm.sides(q, xi)
    defect = abs(lhs - rhs)
    tol = tolerance(lhs, rhs, unit)
    return IdentityCheck(math.isfinite(defect) and defect <= tol, defect, tol, lhs, rhs)
