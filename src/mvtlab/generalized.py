"""Tangent-chord identities that trade the equal-slope hypothesis away.

The first pair corrects the Flett identity with a quadratic term built from
the endpoint slopes, one version anchored at each endpoint. The second pair
replaces the correction with the second derivative at the sought point. The
last solver generalizes to an alternating Taylor-style sum of order n.
"""

from __future__ import annotations

import math

from .expr import Expr, compile_fn, differentiate
from .numerics import (
    DEFAULT_CONFIG, DomainError, Interval, PointResult, SolverConfig, TheoremId,
    one_sided_derivative, solve_residual,
)

__all__ = [
    "MAX_SUM_ORDER", "riedel_sahoo_points", "cakmak_tiryaki_points",
    "second_order_points", "second_order_hypothesis",
    "pawlikowska_points", "pawlikowska_hypothesis",
]

# Factorial coefficients shrink fast while symbolic derivatives grow fast;
# past this order the AST blow-up dominates any numerical content.
MAX_SUM_ORDER = 12


def _endpoint_slopes(f: Expr, iv: Interval, cfg: SolverConfig) -> tuple[float, float]:
    da = one_sided_derivative(f, iv.a, cfg)
    db = one_sided_derivative(f, iv.b, cfg)
    if da is None:
        raise DomainError("one-sided derivative at the left endpoint does not exist finitely")
    if db is None:
        raise DomainError("one-sided derivative at the right endpoint does not exist finitely")
    return da, db


def _close(u: float | None, v: float | None, cfg: SolverConfig) -> bool | None:
    if u is None or v is None:
        return None
    return abs(u - v) <= cfg.residual_tol * max(1.0, abs(u), abs(v))


def riedel_sahoo_points(f: Expr, iv: Interval,
                        cfg: SolverConfig | None = None) -> list[PointResult]:
    """Roots of f(x) - f(a) - (x-a)f'(x) + (K/2)(x-a)^2, K the slope gap rate.

    K = (f'(b) - f'(a))/(b - a); when the endpoint slopes agree the
    correction vanishes and the root set is the Flett one. Quadratics
    satisfy the identity everywhere and come back degenerate.
    """
    cfg = cfg or DEFAULT_CONFIG
    fc = compile_fn(f)
    d1 = compile_fn(differentiate(f))
    fa = fc(iv.a)
    if not math.isfinite(fa):
        raise DomainError("f(a) is not finite")
    da, db = _endpoint_slopes(f, iv, cfg)
    k = (db - da) / iv.width
    a = iv.a
    t1 = lambda x: fc(x) - fa + 0.5 * k * (x - a) ** 2
    t2 = lambda x: (x - a) * d1(x)
    return solve_residual((t1, t2), iv, cfg, TheoremId.RIEDEL_SAHOO)


def cakmak_tiryaki_points(f: Expr, iv: Interval,
                          cfg: SolverConfig | None = None) -> list[PointResult]:
    """The same corrected identity anchored at b instead of a.

    Roots of f(b) - f(x) - (b-x)f'(x) - (K/2)(b-x)^2. Mirror image of
    riedel_sahoo_points under x -> a+b-x.
    """
    cfg = cfg or DEFAULT_CONFIG
    fc = compile_fn(f)
    d1 = compile_fn(differentiate(f))
    fb = fc(iv.b)
    if not math.isfinite(fb):
        raise DomainError("f(b) is not finite")
    da, db = _endpoint_slopes(f, iv, cfg)
    k = (db - da) / iv.width
    b = iv.b
    t1 = lambda x: fb - fc(x)
    t2 = lambda x: (b - x) * d1(x) + 0.5 * k * (b - x) ** 2
    return solve_residual((t1, t2), iv, cfg, TheoremId.CAKMAK_TIRYAKI)


def second_order_hypothesis(f: Expr, iv: Interval,
                            cfg: SolverConfig | None = None) -> bool | None:
    """Whether f''(a) = f''(b), one-sided; None if either side blows up."""
    cfg = cfg or DEFAULT_CONFIG
    df = differentiate(f)
    return _close(one_sided_derivative(df, iv.a, cfg),
                  one_sided_derivative(df, iv.b, cfg), cfg)


def pawlikowska_hypothesis(f: Expr, iv: Interval, n: int,
                           cfg: SolverConfig | None = None) -> bool | None:
    """Whether the n-th derivatives at the endpoints agree, one-sided."""
    cfg = cfg or DEFAULT_CONFIG
    pre = f
    for _ in range(n - 1):
        pre = differentiate(pre)
    return _close(one_sided_derivative(pre, iv.a, cfg),
                  one_sided_derivative(pre, iv.b, cfg), cfg)


def second_order_points(variant: str, f: Expr, iv: Interval,
                        cfg: SolverConfig | None = None) -> list[PointResult]:
    """Identities with a second-derivative correction at the point itself.

    variant "anchored_at_a": roots of
        f(x) - f(a) - (x-a)f'(x) + ((x-a)^2/2) f''(x)
    variant "anchored_at_b": roots of
        f(b) - f(x) - (b-x)f'(x) + ((b-x)^2/2) f''(x)
    The sufficient hypothesis f''(a) = f''(b) is reported as a flag.
    """
    cfg = cfg or DEFAULT_CONFIG
    if variant not in ("anchored_at_a", "anchored_at_b"):
        raise ValueError(f"variant must be 'anchored_at_a' or 'anchored_at_b', got {variant!r}")
    fc = compile_fn(f)
    df = differentiate(f)
    d1 = compile_fn(df)
    d2 = compile_fn(differentiate(df))
    hyp = second_order_hypothesis(f, iv, cfg)
    if variant == "anchored_at_a":
        fa = fc(iv.a)
        if not math.isfinite(fa):
            raise DomainError("f(a) is not finite")
        a = iv.a
        t1 = lambda x: fc(x) - fa + 0.5 * (x - a) ** 2 * d2(x)
        t2 = lambda x: (x - a) * d1(x)
        tid = TheoremId.SECOND_ORDER_A
    else:
        fb = fc(iv.b)
        if not math.isfinite(fb):
            raise DomainError("f(b) is not finite")
        b = iv.b
        t1 = lambda x: fb - fc(x) + 0.5 * (b - x) ** 2 * d2(x)
        t2 = lambda x: (b - x) * d1(x)
        tid = TheoremId.SECOND_ORDER_B
    return solve_residual((t1, t2), iv, cfg, tid, hypothesis=hyp)


def pawlikowska_points(f: Expr, iv: Interval, n: int,
                       cfg: SolverConfig | None = None) -> list[PointResult]:
    """Roots of the order-n alternating sum identity anchored at a.

        f(x) - f(a) = sum_{i=1}^{n} ((-1)^(i+1) / i!) (x-a)^i f^(i)(x)

    n = 1 is the plain Flett identity; polynomials of degree at most n
    satisfy the identity everywhere and come back degenerate. The flag
    reports f^(n)(a) = f^(n)(b) with one-sided endpoint evaluation.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > MAX_SUM_ORDER:
        raise ValueError(f"n capped at {MAX_SUM_ORDER}, got {n}")
    fc = compile_fn(f)
    fa = fc(iv.a)
    if not math.isfinite(fa):
        raise DomainError("f(a) is not finite")
    exprs = []
    g = f
    for _ in range(n):
        g = differentiate(g)
        exprs.append(g)
    dfs = [compile_fn(e) for e in exprs]
    coeffs = [(-1.0) ** (i + 1) / math.factorial(i) for i in range(1, n + 1)]
    hyp = pawlikowska_hypothesis(f, iv, n, cfg)
    a = iv.a

    def total(x: float) -> float:
        s = 0.0
        p = 1.0
        for c, d in zip(coeffs, dfs):
            p *= x - a
            s += c * p * d(x)
        return s

    t1 = lambda x: fc(x) - fa
    return solve_residual((t1, total), iv, cfg, TheoremId.PAWLIKOWSKA,
                          hypothesis=hyp)
