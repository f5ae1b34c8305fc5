"""Volterra-style operators on [0, 1] and the point solvers built on them.

The operators combine a pointwise part with a running integral from the
left endpoint, so a naive grid scan would perform a full quadrature per
grid node. ``OperatorValue`` instead caches prefix sums of per-panel
integrals once, with its nodes on exactly the grid that
:func:`~mvtlab.numerics.solve_residual` scans, and a table of pointwise
part plus prefix at every node. A scan hands a value the node list itself,
which :func:`~mvtlab.numerics.grid_points` shares, and reads the table
as one column without a call; a call bisects for its node, and only
arguments off the grid (Brent polishing, crossing checks) pay for the
fraction of a panel containing them.

A solver builds all its operator values in one pass with
:func:`operator_values`: one generated panel kernel
(:func:`~mvtlab.expr.compile_panels`) runs over the grid's panels four at
a time, evaluating every integrand and every pointwise part once at each
node, with the subexpressions they share computed once. For each run of
four panels the kernel takes one step: Simpson over the run on its two
ends and middle node against Simpson over each half on its three nodes,
with the error test of :func:`~mvtlab.numerics.integrate`. A step that
passes adds the Richardson-corrected sum; its middle node reads the left
half's Simpson value, and the two nodes between read cubic rules on four
nodes (exact on cubics, error of order h^5 a panel). A step that fails,
or has a non-finite value, the margin panel from the interval's left end
to the first node, and the 0-3 panels left over past the last step are
integrated by ``integrate`` itself, panel by panel. The prefixes therefore
agree with a running ``integrate`` per panel to quadrature roundoff, with
one integrand sample a node.

Integrals over the whole interval (the coupling constants, thm-4.9's
zero-mean total, the reported weighted norms) are one
:func:`~mvtlab.numerics.whole_integral` each, not a prefix.

The identity solvers mirror the structure used elsewhere: multiply through
so the residual is denominator-free, scan, refine, and stamp the theorem id
on every located point. Their terms are operator values scaled by
constants (``_Scaled``). :func:`~mvtlab.expr.compile_residual` reads each
term as one column, the value's column scaled, both over the whole grid
and on the one-point grids of root polishing.
The two-constant identities are searched per identity; a tuple result
never mixes them.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import replace
from typing import Callable, Sequence

from .expr import Expr, Var, compile_fn, compile_panels, compile_residual, differentiate
from .generalized import endpoint_slopes, endpoint_value
# one_sided_derivative is unused here but bench/tracer.py patches it
from .numerics import (
    DEFAULT_CONFIG, DomainError, HypothesisError, Interval, NoRootFound,
    PointResult, Points, QuadratureError, SolverConfig, TheoremId, close,
    grid_points, integrate, one_sided_derivative, solve_residual, whole_integral,
)

__all__ = [
    "UNIT_INTERVAL", "OperatorValue", "operator_values", "apply_T", "apply_S",
    "apply_V", "apply_V_weighted", "lupu_4_6_points", "lupu_4_7_points",
    "cauchy_flett_hypothesis", "cauchy_flett_points", "thm_4_9_points",
    "thm_4_10_points", "weighted_norm_point", "weighted_norms",
]

UNIT_INTERVAL = Interval(0.0, 1.0)

_X = Var()

_Fn = Expr | Callable[[float], float]


class OperatorValue:
    """Callable t -> pointwise(t) + integral of a fixed integrand over [a, t].

    ``pointwise`` (or None) and ``integrand`` are expressions or plain
    callables. The prefix cache is built eagerly on the scan grid
    ``grid_points(iv, cfg)`` -- the very floats solve_residual evaluates --
    with the partial panel from a to the first node folded into the first
    prefix entry. The prefixes come from one step per run of four
    adjacent panels, or from integrate() panel by panel where a step fails
    its error test (see :func:`_build`); :func:`operator_values` builds
    several values with one generated panel kernel. It is immutable
    afterwards, so evaluation is deterministic for a fixed config. A call
    reads the prefix at the last node at or below its argument (the first
    node, for arguments left of the grid), adds direct quadrature from
    there when off the node, and the pointwise part; :meth:`column` reads
    the table of both instead.
    """

    __slots__ = ("_pointwise", "_integrand", "_nodes", "_repeats",
                 "_prefix", "_table", "_panel_cfg")

    def __init__(self, pointwise: _Fn | None, integrand: _Fn,
                 iv: Interval = UNIT_INTERVAL, cfg: SolverConfig = DEFAULT_CONFIG):
        (state,) = _build(((pointwise, integrand),), iv, cfg)
        self._set(*state)

    @classmethod
    def _of(cls, state: tuple) -> OperatorValue:
        """A value from its share of an operator_values() build."""
        self = cls.__new__(cls)
        self._set(*state)
        return self

    def _set(self, pointwise, integrand, nodes, repeats, prefix, table, panel_cfg):
        self._pointwise, self._integrand = pointwise, integrand
        self._nodes, self._repeats = nodes, repeats
        self._prefix, self._table, self._panel_cfg = prefix, table, panel_cfg

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

    def column(self, xs: Sequence[float]) -> list[float]:
        """``[self(x) for x in xs]``, a copy of the table when xs is the node list.

        Any other list, even an equal one, and nodes that rounding repeats
        (an interval a few thousand ulps wide) are called point by point.
        """
        if xs is self._nodes and not self._repeats:
            return self._table[:]
        return [self(x) for x in xs]


class _Scaled:
    """x -> c * value(x) * d: a solver's residual term.

    The products run left to right, ``(c*v)*d``, over the value's column in
    one pass. A factor left at its default 1.0 changes nothing, exactly
    (``1.0*v == v``), and a term that enters negated passes -d
    (``v*-d == -(v*d)``).
    """

    __slots__ = ("value", "c", "d")

    def __init__(self, value: OperatorValue, c: float = 1.0, d: float = 1.0):
        self.value, self.c, self.d = value, c, d

    def __call__(self, x: float) -> float:
        return self.column((x,))[0]

    def column(self, xs: Sequence[float]) -> list[float]:
        c, d = self.c, self.d
        return [c * v * d for v in self.value.column(xs)]


def operator_values(pairs: Sequence[tuple[_Fn | None, _Fn]],
                    iv: Interval = UNIT_INTERVAL,
                    cfg: SolverConfig = DEFAULT_CONFIG) -> list[OperatorValue]:
    """One OperatorValue per (pointwise, integrand) pair, built in one pass.

    Equal, value for value, to ``[OperatorValue(p, q, iv, cfg) for p, q in
    pairs]``, and it raises what the first of those builds to fail raises.
    One generated panel kernel takes the four-panel steps of all the
    integrands and evaluates the pointwise parts, so subexpressions they
    share are evaluated once per node.
    """
    return [OperatorValue._of(state) for state in _build(pairs, iv, cfg)]


def _build(pairs: Sequence[tuple[_Fn | None, _Fn]], iv: Interval,
           cfg: SolverConfig) -> list[tuple]:
    """Each pair's OperatorValue state, from one run of a panel kernel.

    Panel k runs from node k-1 to node k, panel 0 from iv.a to node 0. The
    kernel (:func:`~mvtlab.expr.compile_panels`) takes one step over each
    run of four panels from node 0 on, sampling the integrands and the
    pointwise parts at the nodes only, and accepts it on integrate()'s
    error test with the per-panel tolerance. The panels of a step that
    fails, or has a non-finite value (whose arithmetic the error test
    alone does not guard), panel 0 and the 0-3 panels left over past the
    last step go to integrate() itself.
    """
    nodes = grid_points(iv, cfg)
    # per-panel tolerance divided down so the accumulated prefix error
    # stays near the configured quadrature tolerance
    panel_cfg = replace(cfg, quad_tol=cfg.quad_tol / len(nodes))
    panels, q_calls, p_calls = compile_panels([q for _, q in pairs],
                                              [p for p, _ in pairs])
    errors: list[QuadratureError | None] = [None] * len(pairs)

    def fallback(k: int, a: float, b: float) -> float:
        # a pair whose integrand has raised makes no further integrate()
        # calls: its values are never used, the error is raised below
        if errors[k] is None:
            try:
                return integrate(q_calls[k], a, b, panel_cfg)
            except QuadratureError as exc:
                errors[k] = exc
        return math.nan

    prefixes, tables = panels([iv.a] + nodes, panel_cfg.quad_tol, fallback)
    for exc in errors:
        if exc is not None:
            raise exc
    # the grid never decreases, so a repeated node sits next to its copy
    repeats = any(map(operator.eq, nodes, nodes[1:]))
    return [(P, F, nodes, repeats, prefix, table, panel_cfg)
            for P, F, prefix, table in zip(p_calls, q_calls, prefixes, tables)]


# The operators as (pointwise part, integrand) pairs, for operator_values().

def _t_pair(phi: Expr) -> tuple[Expr, Expr]:
    return phi, -phi


def _s_pair(psi: Expr) -> tuple[Expr, Expr]:
    return _X * psi, -_X * psi


def _v_weighted_pair(phi: Expr, psi: Expr) -> tuple[None, Expr]:
    return None, phi * psi


def apply_T(phi: Expr, cfg: SolverConfig = DEFAULT_CONFIG) -> OperatorValue:
    """t -> phi(t) - integral of phi over [0, t]."""
    return OperatorValue(*_t_pair(phi), UNIT_INTERVAL, cfg)


def apply_S(psi: Expr, cfg: SolverConfig = DEFAULT_CONFIG) -> OperatorValue:
    """t -> t*psi(t) - integral of x*psi(x) over [0, t]."""
    return OperatorValue(*_s_pair(psi), UNIT_INTERVAL, cfg)


def apply_V(f: Expr, cfg: SolverConfig = DEFAULT_CONFIG) -> OperatorValue:
    """t -> integral of f over [0, t]."""
    return OperatorValue(None, f, UNIT_INTERVAL, cfg)


def apply_V_weighted(phi: Expr, psi: Expr, cfg: SolverConfig = DEFAULT_CONFIG) -> OperatorValue:
    """t -> integral of phi(x)*psi(x) over [0, t]."""
    return OperatorValue(*_v_weighted_pair(phi, psi), UNIT_INTERVAL, cfg)


def _no_root_error(t1: OperatorValue | _Scaled, t2: OperatorValue | _Scaled,
                   iv: Interval, cfg: SolverConfig, tid: TheoremId) -> NoRootFound:
    xs = grid_points(iv, cfg)
    best_x, best_v = math.nan, math.inf
    for x, v in zip(xs, compile_residual((t1, t2))(xs)[0]):
        if math.isfinite(v) and abs(v) < best_v:
            best_x, best_v = x, abs(v)
    err = NoRootFound(f"no sign change found for {tid}; the smallest grid "
                      f"residual is {best_v:.6g} at x = {best_x:.6g}")
    err.x = best_x
    err.value = best_v
    return err


def _points(t1: OperatorValue | _Scaled, t2: OperatorValue | _Scaled,
            tid: TheoremId, cfg: SolverConfig) -> Points:
    """The roots of t1 - t2 on [0, 1]; NoRootFound naming the nearest miss if none."""
    pts = solve_residual((t1, t2), UNIT_INTERVAL, cfg, tid)
    if pts:
        return pts
    raise _no_root_error(t1, t2, UNIT_INTERVAL, cfg, tid)


def _coupled_terms(f: Expr, g: Expr, weighted, cfg: SolverConfig):
    """Terms of the T pair and the S pair, then Tf and Sf.

    The pairs are coupled by c_f and c_g, the integrals of weighted(f) and
    weighted(g) over [0, 1]: c_f·(Tg)(x) = c_g·(Tf)(x), and likewise for S.
    """
    cf = whole_integral(weighted(compile_fn(f)), 0.0, 1.0, cfg, f)
    cg = whole_integral(weighted(compile_fn(g)), 0.0, 1.0, cfg, g)
    tf, tg, sf, sg = operator_values(
        (_t_pair(f), _t_pair(g), _s_pair(f), _s_pair(g)), UNIT_INTERVAL, cfg)
    return ((_Scaled(tg, c=cf), _Scaled(tf, c=cg)),
            (_Scaled(sg, c=cf), _Scaled(sf, c=cg)), tf, sf)


def lupu_4_6_points(f: Expr, g: Expr,
                    cfg: SolverConfig = DEFAULT_CONFIG
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
    t_pair, s_pair, tf, sf = _coupled_terms(f, g, lambda h: h, cfg)
    return (_points(*t_pair, TheoremId.LUPU_4_6_T, cfg)[0],
            _points(tf, sf, TheoremId.LUPU_4_6_TS, cfg)[0],
            _points(*s_pair, TheoremId.LUPU_4_6_S, cfg)[0])


def lupu_4_7_points(f: Expr, g: Expr,
                    cfg: SolverConfig = DEFAULT_CONFIG
                    ) -> tuple[PointResult, PointResult]:
    """The (1-x)-weighted versions of the two coupling identities.

    Same shape as lupu_4_6_points but the coupling constants are
    int (1-x) f(x) dx and int (1-x) g(x) dx over [0, 1], for the T pair and
    the S pair.
    """
    t_pair, s_pair, _, _ = _coupled_terms(f, g, lambda h: lambda x: (1.0 - x) * h(x), cfg)
    return (_points(*t_pair, TheoremId.LUPU_4_7_T, cfg)[0],
            _points(*s_pair, TheoremId.LUPU_4_7_S, cfg)[0])


def _nonvanishing_derivative(h: Expr, iv: Interval, cfg: SolverConfig,
                             name: str) -> Expr:
    """h', once it is checked finite and nonzero at every scan-grid point."""
    dh = differentiate(h)
    xs = grid_points(iv, cfg)
    dv = compile_residual((), (dh,))(xs)[3]
    for x, v in zip(xs, dv):
        if not (v and math.isfinite(v)):
            raise DomainError(f"{name} vanishes or is not finite at x = {x!r}")
    return dh


def cauchy_flett_hypothesis(f: Expr, g: Expr, iv: Interval,
                            cfg: SolverConfig = DEFAULT_CONFIG) -> bool | None:
    """Whether f'/g' agrees at the two endpoints (one-sided values)."""
    da, db = endpoint_slopes(f, iv, cfg)
    ea, eb = endpoint_slopes(g, iv, cfg)
    if None in (da, db, ea, eb) or ea == 0.0 or eb == 0.0:
        return None
    return close(da / ea, db / eb, cfg.residual_tol)


def cauchy_flett_points(f: Expr, g: Expr, iv: Interval,
                        cfg: SolverConfig = DEFAULT_CONFIG) -> Points:
    """Two-function tangent-chord points: (f(x)-f(a)) g'(x) = f'(x) (g(x)-g(a)).

    g' must be nonzero across the scan grid so the identity's quotient form
    is meaningful. The flag reports whether f'/g' agrees at both endpoints.
    """
    fa, ga = endpoint_value(f, iv, "a"), endpoint_value(g, iv, "a", "g")
    dg = _nonvanishing_derivative(g, iv, cfg, "g'")
    hyp = cauchy_flett_hypothesis(f, g, iv, cfg)
    t1 = (f - fa) * dg
    t2 = differentiate(f) * (g - ga)
    return solve_residual((t1, t2), iv, cfg, TheoremId.CAUCHY_FLETT,
                          hypothesis=hyp)


def thm_4_9_points(f: Expr, g: Expr, iv: Interval, cfg: SolverConfig = DEFAULT_CONFIG) -> Points:
    """Roots of R(t) = int_a^t f·g - g(a)·int_a^t f, for zero-mean f.

    The zero-mean membership is a hard precondition: a nonzero integral of
    f over [a, b] (beyond quadrature tolerance) raises HypothesisError
    rather than reporting points of a vacuous identity. g' must be nonzero
    on the grid.
    """
    _nonvanishing_derivative(g, iv, cfg, "g'")
    ga = endpoint_value(g, iv, "a", "g")
    total = whole_integral(compile_fn(f), iv.a, iv.b, cfg, f)
    scale = compile_residual((f,))(grid_points(iv, cfg, 0.0))[1] * iv.width
    if abs(total) > cfg.quad_tol * max(1.0, scale):
        raise HypothesisError(
            f"integral of f over [{iv.a:g}, {iv.b:g}] is {total:.6g}, not 0; "
            "the identity only applies to zero-mean f")
    vfg, vf = operator_values((_v_weighted_pair(f, g), (None, f)), iv, cfg)
    t2 = _Scaled(vf, c=ga)
    return solve_residual((vfg, t2), iv, cfg, TheoremId.THM_4_9,
                          hypothesis=True)


def thm_4_10_points(f: Expr, g: Expr, phi: Expr, cfg: SolverConfig = DEFAULT_CONFIG) -> Points:
    """Roots of the four-term weighted/unweighted running-integral identity.

        R(t) = V_phi f(t)·int g - V_phi g(t)·int f
               - phi(0)·( V f(t)·int g - V g(t)·int f )

    on [0, 1], where V_phi is the phi-weighted running integral. The weight
    must have a nonvanishing derivative on the grid; phi(0) may be any
    finite value ("phi(a) is not finite" otherwise), with phi(0) = 0
    reducing the residual to its first two terms.
    """
    _nonvanishing_derivative(phi, UNIT_INTERVAL, cfg, "the weight's derivative")
    int_f = whole_integral(compile_fn(f), 0.0, 1.0, cfg, f)
    int_g = whole_integral(compile_fn(g), 0.0, 1.0, cfg, g)
    phi0 = endpoint_value(phi, UNIT_INTERVAL, "a", "phi")
    vpf, vpg, vf, vg = operator_values(
        (_v_weighted_pair(phi, f), _v_weighted_pair(phi, g), (None, f), (None, g)),
        UNIT_INTERVAL, cfg)
    t1 = _Scaled(vpf, d=int_g)
    t2 = _Scaled(vpg, d=int_f)
    t3 = _Scaled(vf, c=phi0, d=int_g)
    # t4 enters with a plus sign, so it is folded in negated
    neg_t4 = _Scaled(vg, c=phi0, d=-int_f)
    return solve_residual((t1, t2, t3, neg_t4), UNIT_INTERVAL, cfg,
                          TheoremId.THM_4_10)


def weighted_norm_point(f: Expr, g: Expr, phi: Expr,
                        cfg: SolverConfig = DEFAULT_CONFIG) -> PointResult:
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
    fc, gc, pc = compile_fn(f), compile_fn(g), compile_fn(phi)
    _nonvanishing_derivative(phi, UNIT_INTERVAL, cfg, "the weight's derivative")
    phi0 = pc(0.0)
    if not math.isfinite(phi0) or abs(phi0) > cfg.residual_tol:
        raise HypothesisError(f"the weight must vanish at 0, got phi(0) = {phi0!r}")
    int_f2 = whole_integral(lambda x: (v := fc(x)) * v, 0.0, 1.0, cfg, f)
    int_g2 = whole_integral(lambda x: (v := gc(x)) * v, 0.0, 1.0, cfg, g)
    nf, ng = operator_values(
        (_v_weighted_pair(phi, f * f), _v_weighted_pair(phi, g * g)), UNIT_INTERVAL, cfg)
    t1 = _Scaled(nf, d=int_g2)
    t2 = _Scaled(ng, d=int_f2)
    pts = _points(t1, t2, TheoremId.WEIGHTED_NORM, cfg)
    return pts[(len(pts) - 1) // 2]


def weighted_norms(f: Expr, g: Expr, phi: Expr, xi: float,
                   cfg: SolverConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """The two phi-weighted prefix L2 norms over (0, xi), for reporting."""
    fc, gc, pc = compile_fn(f), compile_fn(g), compile_fn(phi)
    a = whole_integral(lambda x: pc(x) * ((v := fc(x)) * v), 0.0, xi, cfg, phi, f)
    b = whole_integral(lambda x: pc(x) * ((v := gc(x)) * v), 0.0, xi, cfg, phi, g)
    return math.sqrt(max(a, 0.0)), math.sqrt(max(b, 0.0))
