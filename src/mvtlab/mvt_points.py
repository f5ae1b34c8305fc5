"""Point solvers for the four classical mean value identities.

Each solver multiplies its identity through into a residual with no
denominators, scans the interval, and polishes sign changes. Hypotheses are
evaluated and reported on the results but never enforced: the search runs
regardless, since the identities frequently hold without their sufficient
hypotheses.
"""

from __future__ import annotations

import math

from .expr import Const, Expr, compile_fn, differentiate, sign_sensitive_args
from .generalized import endpoint_value
from .numerics import (
    DEFAULT_CONFIG, DomainError, Interval, Points, SolverConfig,
    TheoremId, close, differentiable_on_interior, grid_points, integrate, solve_residual,
    tanh_sinh,
)

__all__ = [
    "rolle_points", "rolle_hypothesis", "lagrange_points",
    "cauchy_points", "integral_mean", "integral_mvt_points",
]


def rolle_hypothesis(f: Expr, iv: Interval, cfg: SolverConfig | None = None) -> bool | None:
    """Whether f(a) = f(b) within tolerance (None if an endpoint blows up)."""
    cfg = cfg or DEFAULT_CONFIG
    try:
        fa, fb = endpoint_value(f, iv, "a"), endpoint_value(f, iv, "b")
    except DomainError:
        return None
    return close(fa, fb, cfg.residual_tol)


def rolle_points(f: Expr, iv: Interval, cfg: SolverConfig | None = None) -> Points:
    """Interior zeros of f'. Reported whether or not f(a) = f(b) holds."""
    cfg = cfg or DEFAULT_CONFIG
    hyp = rolle_hypothesis(f, iv, cfg)
    return solve_residual((differentiate(f),), iv, cfg, TheoremId.ROLLE,
                          hypothesis=hyp)


def lagrange_points(f: Expr, iv: Interval, cfg: SolverConfig | None = None) -> Points:
    """Points where f' equals the secant slope over [a, b].

    The hypothesis flag reports interior differentiability (grid test);
    linear f makes the residual vanish identically and is reported as
    degenerate.
    """
    cfg = cfg or DEFAULT_CONFIG
    fa, fb = endpoint_value(f, iv, "a"), endpoint_value(f, iv, "b")
    slope = (fb - fa) / iv.width
    hyp = True if differentiable_on_interior(f, iv, cfg) else None
    return solve_residual((differentiate(f), Const(slope)), iv, cfg,
                          TheoremId.LAGRANGE, hypothesis=hyp)


def cauchy_points(f: Expr, g: Expr, iv: Interval,
                  cfg: SolverConfig | None = None) -> Points:
    """Points where f'(x)(g(b)-g(a)) = g'(x)(f(b)-f(a)).

    With f = g (or g affine in f) the residual vanishes identically and the
    result is a single degenerate representative.
    """
    cfg = cfg or DEFAULT_CONFIG
    fa, fb = endpoint_value(f, iv, "a"), endpoint_value(f, iv, "b")
    ga, gb = endpoint_value(g, iv, "a", "g"), endpoint_value(g, iv, "b", "g")
    dfv, dgv = fb - fa, gb - ga
    hyp = True if (differentiable_on_interior(f, iv, cfg)
                   and differentiable_on_interior(g, iv, cfg)) else None
    t1 = differentiate(f) * dgv
    t2 = differentiate(g) * dfv
    return solve_residual((t1, t2), iv, cfg, TheoremId.CAUCHY, hypothesis=hyp)


def integral_mean(f: Expr, iv: Interval, cfg: SolverConfig) -> float:
    """The mean of f over [a, b]; DomainError if f is not finite on the closed grid.

    The mean is a :func:`~mvtlab.numerics.tanh_sinh` integral, or an
    :func:`~mvtlab.numerics.integrate` one when f has an abs() or sgn():
    tanh-sinh would not settle on the kink and fall back to it anyway.
    """
    fc = compile_fn(f)
    for x in grid_points(iv, cfg, margin=0.0):
        if not math.isfinite(fc(x)):
            raise DomainError(f"f is not finite at x={x!r}; the mean value "
                              "identity needs a continuous integrand")
    rule = integrate if sign_sensitive_args(f) else tanh_sinh
    return rule(fc, iv.a, iv.b, cfg) / iv.width


def integral_mvt_points(f: Expr, iv: Interval,
                        cfg: SolverConfig | None = None) -> Points:
    """Points where f equals its average value over [a, b].

    The guaranteed point may sit on the boundary, so the scan runs with the
    endpoints included; f must be finite on the whole closed grid.
    """
    cfg = cfg or DEFAULT_CONFIG
    mean = integral_mean(f, iv, cfg)
    return solve_residual((f, Const(mean)), iv, cfg, TheoremId.INTEGRAL_MVT,
                          closed=True)
