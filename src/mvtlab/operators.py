"""Volterra-style operators on [0, 1] and the point solvers built on them.

The operators combine a pointwise part with a running integral from the
left endpoint, so a naive grid scan would perform a full quadrature per
grid node. ``OperatorValue`` instead caches prefix sums of per-panel
integrals once, with its nodes on exactly the grid that
:func:`~mvtlab.numerics.solve_residual` scans. A scan therefore does no
quadrature at all: a node hit returns its cached prefix, and only
arguments off the grid (Brent polishing, crossing checks) pay for the
fraction of a panel containing them.

The identity solvers mirror the structure used elsewhere: multiply through
so the residual is denominator-free, scan, refine, and stamp the theorem id
on every located point. The two-constant identities are searched per
identity; a tuple result never mixes them.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import replace
from typing import Callable

from .expr import Expr, compile_fn, differentiate
from .numerics import (
    DEFAULT_CONFIG, DomainError, HypothesisError, Interval, NoRootFound,
    PointResult, SolverConfig, TheoremId, fold_terms, grid_points, integrate,
    one_sided_derivative, residual_scale, solve_residual,
)

__all__ = [
    "UNIT_INTERVAL", "OperatorValue", "apply_T", "apply_S", "apply_V",
    "apply_V_weighted", "lupu_4_6_points", "lupu_4_7_points",
    "cauchy_flett_points", "cauchy_flett_hypothesis", "thm_4_9_points",
    "thm_4_10_points", "weighted_norm_point", "weighted_norms",
]

UNIT_INTERVAL = Interval(0.0, 1.0)


class OperatorValue:
    """Callable t -> pointwise(t) + integral of a fixed integrand over [a, t].

    The prefix cache is built eagerly on the scan grid ``grid_points(iv,
    cfg)`` -- the very floats solve_residual evaluates -- with the partial
    panel from a to the first node folded into the first prefix entry. It
    is immutable afterwards, so evaluation is deterministic for a fixed
    config. An argument on a node costs no quadrature; any other argument
    adds direct quadrature between it and the nearest node at or below it
    (the first node, for arguments left of the grid).
    """

    __slots__ = ("_pointwise", "_integrand", "_nodes", "_prefix", "_panel_cfg")

    def __init__(self, pointwise: Callable[[float], float] | None,
                 integrand: Callable[[float], float],
                 iv: Interval = UNIT_INTERVAL,
                 cfg: SolverConfig | None = None):
        cfg = cfg or DEFAULT_CONFIG
        nodes = grid_points(iv, cfg)
        # per-panel tolerance divided down so the accumulated prefix error
        # stays near the configured quadrature tolerance
        panel_cfg = replace(cfg, quad_tol=cfg.quad_tol / len(nodes))
        # each node is sampled once and handed to both panels sharing it
        fa = integrand(nodes[0])
        acc = integrate(integrand, iv.a, nodes[0], panel_cfg, fb=fa)
        prefix = [acc]
        for lo, hi in zip(nodes, nodes[1:]):
            fb = integrand(hi)
            acc += integrate(integrand, lo, hi, panel_cfg, fa=fa, fb=fb)
            prefix.append(acc)
            fa = fb
        self._pointwise = pointwise
        self._integrand = integrand
        self._nodes = nodes
        self._prefix = prefix
        self._panel_cfg = panel_cfg

    def __call__(self, t: float) -> float:
        nodes = self._nodes
        if t <= nodes[0]:
            j = 0
        elif t >= nodes[-1]:
            j = len(nodes) - 1
        else:
            j = bisect.bisect_right(nodes, t) - 1
        lo = nodes[j]
        if t == lo:
            run = self._prefix[j]
        elif t > lo:
            run = self._prefix[j] + integrate(self._integrand, lo, t, self._panel_cfg)
        else:
            run = self._prefix[j] - integrate(self._integrand, t, lo, self._panel_cfg)
        if self._pointwise is None:
            return run
        return self._pointwise(t) + run


def apply_T(phi: Expr, cfg: SolverConfig | None = None) -> OperatorValue:
    """t -> phi(t) - integral of phi over [0, t]."""
    p = compile_fn(phi)
    return OperatorValue(p, lambda x: -p(x), UNIT_INTERVAL, cfg)


def apply_S(psi: Expr, cfg: SolverConfig | None = None) -> OperatorValue:
    """t -> t*psi(t) - integral of x*psi(x) over [0, t]."""
    p = compile_fn(psi)
    return OperatorValue(lambda t: t * p(t), lambda x: -x * p(x), UNIT_INTERVAL, cfg)


def apply_V(f: Expr, cfg: SolverConfig | None = None) -> OperatorValue:
    """t -> integral of f over [0, t]."""
    return OperatorValue(None, compile_fn(f), UNIT_INTERVAL, cfg)


def apply_V_weighted(phi: Expr, psi: Expr,
                     cfg: SolverConfig | None = None) -> OperatorValue:
    """t -> integral of phi(x)*psi(x) over [0, t]."""
    wp, pp = compile_fn(phi), compile_fn(psi)
    return OperatorValue(None, lambda x: wp(x) * pp(x), UNIT_INTERVAL, cfg)


def _no_root_error(terms: tuple[Callable[[float], float], ...], iv: Interval,
                   cfg: SolverConfig, tid: TheoremId) -> NoRootFound:
    F = fold_terms(terms)
    best_x, best_v = math.nan, math.inf
    for x in grid_points(iv, cfg):
        v = F(x)
        if math.isfinite(v) and abs(v) < best_v:
            best_x, best_v = x, abs(v)
    err = NoRootFound(f"no sign change found for {tid}; the smallest grid "
                      f"residual is {best_v:.6g} at x = {best_x:.6g}")
    err.x = best_x
    err.value = best_v
    return err


def _single_point(t1: Callable[[float], float], t2: Callable[[float], float],
                  tid: TheoremId, cfg: SolverConfig,
                  iv: Interval = UNIT_INTERVAL) -> PointResult:
    pts = solve_residual((t1, t2), iv, cfg, tid)
    if pts:
        return pts[0]
    raise _no_root_error((t1, t2), iv, cfg, tid)


def lupu_4_6_points(f: Expr, g: Expr,
                    cfg: SolverConfig | None = None
                    ) -> tuple[PointResult, PointResult, PointResult]:
    """The three identities coupling T, S and plain integrals on [0, 1].

    Returns (xi1, xi2, xi3) where
      xi1 solves  (int f)·(Tg)(x) = (int g)·(Tf)(x),
      xi2 solves  (Tf)(x) = (Sf)(x),
      xi3 solves  (int f)·(Sg)(x) = (int g)·(Sf)(x),
    with int taken over [0, 1]. Identities are searched independently, so
    one may come back degenerate (f = g collapses xi1 and xi3) while the
    others carry genuine roots.
    """
    cfg = cfg or DEFAULT_CONFIG
    fc, gc = compile_fn(f), compile_fn(g)
    int_f = integrate(fc, 0.0, 1.0, cfg)
    int_g = integrate(gc, 0.0, 1.0, cfg)
    tf, tg = apply_T(f, cfg), apply_T(g, cfg)
    sf, sg = apply_S(f, cfg), apply_S(g, cfg)
    xi1 = _single_point(lambda x: int_f * tg(x), lambda x: int_g * tf(x),
                        TheoremId.LUPU_4_6_T, cfg)
    xi2 = _single_point(tf, sf, TheoremId.LUPU_4_6_TS, cfg)
    xi3 = _single_point(lambda x: int_f * sg(x), lambda x: int_g * sf(x),
                        TheoremId.LUPU_4_6_S, cfg)
    return xi1, xi2, xi3


def lupu_4_7_points(f: Expr, g: Expr,
                    cfg: SolverConfig | None = None
                    ) -> tuple[PointResult, PointResult]:
    """The (1-x)-weighted versions of the two coupling identities.

    Same shape as lupu_4_6_points but the coupling constants are
    int (1-x) f(x) dx and int (1-x) g(x) dx over [0, 1], for the T pair and
    the S pair.
    """
    cfg = cfg or DEFAULT_CONFIG
    fc, gc = compile_fn(f), compile_fn(g)
    wf = integrate(lambda x: (1.0 - x) * fc(x), 0.0, 1.0, cfg)
    wg = integrate(lambda x: (1.0 - x) * gc(x), 0.0, 1.0, cfg)
    tf, tg = apply_T(f, cfg), apply_T(g, cfg)
    sf, sg = apply_S(f, cfg), apply_S(g, cfg)
    xi1 = _single_point(lambda x: wf * tg(x), lambda x: wg * tf(x),
                        TheoremId.LUPU_4_7_T, cfg)
    xi2 = _single_point(lambda x: wf * sg(x), lambda x: wg * sf(x),
                        TheoremId.LUPU_4_7_S, cfg)
    return xi1, xi2


def cauchy_flett_hypothesis(f: Expr, g: Expr, iv: Interval,
                            cfg: SolverConfig | None = None) -> bool | None:
    """Whether f'/g' agrees at the two endpoints (one-sided values)."""
    cfg = cfg or DEFAULT_CONFIG
    da = one_sided_derivative(f, iv.a, cfg)
    db = one_sided_derivative(f, iv.b, cfg)
    ea = one_sided_derivative(g, iv.a, cfg)
    eb = one_sided_derivative(g, iv.b, cfg)
    if None in (da, db, ea, eb) or ea == 0.0 or eb == 0.0:
        return None
    ra, rb = da / ea, db / eb
    return abs(ra - rb) <= cfg.residual_tol * max(1.0, abs(ra), abs(rb))


def cauchy_flett_points(f: Expr, g: Expr, iv: Interval,
                        cfg: SolverConfig | None = None) -> list[PointResult]:
    """Two-function tangent-chord points: (f(x)-f(a)) g'(x) = f'(x) (g(x)-g(a)).

    g' must be nonzero across the scan grid so the identity's quotient form
    is meaningful. The flag reports whether f'/g' agrees at both endpoints.
    """
    cfg = cfg or DEFAULT_CONFIG
    fc, gc = compile_fn(f), compile_fn(g)
    dfc = compile_fn(differentiate(f))
    dgc = compile_fn(differentiate(g))
    fa, ga = fc(iv.a), gc(iv.a)
    if not (math.isfinite(fa) and math.isfinite(ga)):
        raise DomainError("f(a) and g(a) must be finite")
    for x in grid_points(iv, cfg):
        v = dgc(x)
        if not math.isfinite(v) or v == 0.0:
            raise DomainError(f"g' vanishes or is not finite at x = {x!r}")
    hyp = cauchy_flett_hypothesis(f, g, iv, cfg)
    t1 = lambda x: (fc(x) - fa) * dgc(x)
    t2 = lambda x: dfc(x) * (gc(x) - ga)
    return solve_residual((t1, t2), iv, cfg, TheoremId.CAUCHY_FLETT,
                          hypothesis=hyp)


def thm_4_9_points(f: Expr, g: Expr, iv: Interval,
                   cfg: SolverConfig | None = None) -> list[PointResult]:
    """Roots of R(t) = int_a^t f·g - g(a)·int_a^t f, for zero-mean f.

    The zero-mean membership is a hard precondition: a nonzero integral of
    f over [a, b] (beyond quadrature tolerance) raises HypothesisError
    rather than reporting points of a vacuous identity. g' must be nonzero
    on the grid.
    """
    cfg = cfg or DEFAULT_CONFIG
    fc, gc = compile_fn(f), compile_fn(g)
    dgc = compile_fn(differentiate(g))
    for x in grid_points(iv, cfg):
        v = dgc(x)
        if not math.isfinite(v) or v == 0.0:
            raise DomainError(f"g' vanishes or is not finite at x = {x!r}")
    ga = gc(iv.a)
    if not math.isfinite(ga):
        raise DomainError("g(a) is not finite")
    total = integrate(fc, iv.a, iv.b, cfg)
    scale = residual_scale((fc,), iv, cfg, margin=0.0) * iv.width
    if abs(total) > cfg.quad_tol * max(1.0, scale):
        raise HypothesisError(
            f"integral of f over [{iv.a:g}, {iv.b:g}] is {total:.6g}, not 0; "
            "the identity only applies to zero-mean f")
    vfg = OperatorValue(None, lambda x: fc(x) * gc(x), iv, cfg)
    vf = OperatorValue(None, fc, iv, cfg)
    t2 = lambda t: ga * vf(t)
    return solve_residual((vfg, t2), iv, cfg, TheoremId.THM_4_9,
                          hypothesis=True)


def thm_4_10_points(f: Expr, g: Expr, phi: Expr,
                    cfg: SolverConfig | None = None) -> list[PointResult]:
    """Roots of the four-term weighted/unweighted running-integral identity.

        R(t) = V_phi f(t)·int g - V_phi g(t)·int f
               - phi(0)·( V f(t)·int g - V g(t)·int f )

    on [0, 1], where V_phi is the phi-weighted running integral. The weight
    must have a nonvanishing derivative on the grid; phi(0) may be anything,
    with phi(0) = 0 reducing the residual to its first two terms.
    """
    cfg = cfg or DEFAULT_CONFIG
    fc, gc, pc = compile_fn(f), compile_fn(g), compile_fn(phi)
    dpc = compile_fn(differentiate(phi))
    for x in grid_points(UNIT_INTERVAL, cfg):
        v = dpc(x)
        if not math.isfinite(v) or v == 0.0:
            raise DomainError(f"the weight's derivative vanishes or is not "
                              f"finite at x = {x!r}")
    int_f = integrate(fc, 0.0, 1.0, cfg)
    int_g = integrate(gc, 0.0, 1.0, cfg)
    phi0 = pc(0.0)
    vpf = apply_V_weighted(phi, f, cfg)
    vpg = apply_V_weighted(phi, g, cfg)
    vf = apply_V(f, cfg)
    vg = apply_V(g, cfg)
    t1 = lambda t: vpf(t) * int_g
    t2 = lambda t: vpg(t) * int_f
    t3 = lambda t: phi0 * vf(t) * int_g
    # t4 enters with a plus sign, so it is folded in negated
    neg_t4 = lambda t: -(phi0 * vg(t) * int_f)
    return solve_residual((t1, t2, t3, neg_t4), UNIT_INTERVAL, cfg,
                          TheoremId.THM_4_10)


def weighted_norm_point(f: Expr, g: Expr, phi: Expr,
                        cfg: SolverConfig | None = None) -> PointResult:
    """Point where the phi-weighted prefix norms of f and g balance.

    Locates a sign change of

        N(t) = int_0^t f^2 phi · int_0^1 g^2  -  int_0^t g^2 phi · int_0^1 f^2

    so that at the returned point the weighted norms of f and g over (0, t)
    hold the same ratio as their plain norms over (0, 1). The weight must
    vanish at 0 and have a nonvanishing derivative on the grid.

    N can oscillate and cross zero several times; every crossing satisfies
    the identity, and the median crossing is returned as the deterministic
    representative. Companion values for reporting come from
    weighted_norms().
    """
    cfg = cfg or DEFAULT_CONFIG
    fc, gc, pc = compile_fn(f), compile_fn(g), compile_fn(phi)
    dpc = compile_fn(differentiate(phi))
    for x in grid_points(UNIT_INTERVAL, cfg):
        v = dpc(x)
        if not math.isfinite(v) or v == 0.0:
            raise DomainError(f"the weight's derivative vanishes or is not "
                              f"finite at x = {x!r}")
    phi0 = pc(0.0)
    if not math.isfinite(phi0) or abs(phi0) > cfg.residual_tol:
        raise HypothesisError(f"the weight must vanish at 0, got phi(0) = {phi0!r}")
    int_f2 = integrate(lambda x: fc(x) ** 2, 0.0, 1.0, cfg)
    int_g2 = integrate(lambda x: gc(x) ** 2, 0.0, 1.0, cfg)
    nf = OperatorValue(None, lambda x: pc(x) * fc(x) ** 2, UNIT_INTERVAL, cfg)
    ng = OperatorValue(None, lambda x: pc(x) * gc(x) ** 2, UNIT_INTERVAL, cfg)
    t1 = lambda t: nf(t) * int_g2
    t2 = lambda t: ng(t) * int_f2
    pts = solve_residual((t1, t2), UNIT_INTERVAL, cfg, TheoremId.WEIGHTED_NORM)
    if not pts:
        raise _no_root_error((t1, t2), UNIT_INTERVAL, cfg, TheoremId.WEIGHTED_NORM)
    return pts[(len(pts) - 1) // 2]


def weighted_norms(f: Expr, g: Expr, phi: Expr, xi: float,
                   cfg: SolverConfig | None = None) -> tuple[float, float]:
    """The two phi-weighted prefix L2 norms over (0, xi), for reporting."""
    cfg = cfg or DEFAULT_CONFIG
    fc, gc, pc = compile_fn(f), compile_fn(g), compile_fn(phi)
    a = integrate(lambda x: pc(x) * fc(x) ** 2, 0.0, xi, cfg)
    b = integrate(lambda x: pc(x) * gc(x) ** 2, 0.0, xi, cfg)
    return math.sqrt(max(a, 0.0)), math.sqrt(max(b, 0.0))
