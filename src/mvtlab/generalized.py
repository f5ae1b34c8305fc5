"""Tangent-chord identities that trade the equal-slope hypothesis away.

The first pair corrects the Flett identity with a quadratic term built from
the endpoint slopes, one version anchored at each endpoint. The second pair
replaces the correction with the second derivative at the sought point. The
last solver generalizes to an alternating Taylor-style sum of order n.
"""

from __future__ import annotations

import math

# compile_fn is unused here but bench/tracer.py patches it
from .expr import Const, Expr, Var, compile_fn, differentiate, evaluate, sign_sensitive_args
from .numerics import (
    DEFAULT_CONFIG, DomainError, Interval, Points, SolverConfig,
    TheoremId, close, one_sided_derivative, solve_residual,
)

__all__ = [
    "MAX_SUM_ORDER", "one_sided_slope", "endpoint_slopes", "slopes_agree", "endpoint_value",
    "riedel_sahoo_points",
    "cakmak_tiryaki_points", "second_order_points",
    "pawlikowska_points", "pawlikowska_hypothesis",
]

# Factorial coefficients shrink fast while symbolic derivatives grow fast;
# past this order the AST blow-up dominates any numerical content.
MAX_SUM_ORDER = 12


def one_sided_slope(f: Expr, x: float, inward: float, cfg: SolverConfig,
                    order: int = 1) -> float | None:
    """f's ``order``-th derivative at x from the side of ``inward``; None if not finite.

    Where an abs()/sgn() argument of f is 0 at x, f's derivatives hold
    sgn(0) = 0 there (abs' = sgn(u)·u', sgn' = 0), so the value is read up
    to 4 ulps toward ``inward``, past the zero.
    """
    args = sign_sensitive_args(f)
    for _ in range(4):
        if all(evaluate(g, x) != 0.0 for g in args):
            break
        x = math.nextafter(x, inward)
    return one_sided_derivative(f if order == 1 else differentiate(f, order - 1), x, cfg)


def endpoint_slopes(f: Expr, iv: Interval,
                    cfg: SolverConfig) -> tuple[float | None, float | None]:
    """(f'(a+), f'(b-)), each a :func:`one_sided_slope`."""
    return one_sided_slope(f, iv.a, iv.b, cfg), one_sided_slope(f, iv.b, iv.a, cfg)


def slopes_agree(slopes: tuple[float | None, float | None],
                 cfg: SolverConfig) -> bool | None:
    """Whether two endpoint slopes agree within residual_tol; None if either is None.

    The equal-slope hypothesis of Flett's identity, of the first Meyers
    variants and of the order-n sums, and the Flett checker's test.
    """
    da, db = slopes
    return None if da is None or db is None else close(da, db, cfg.residual_tol)


def endpoint_value(f: Expr, iv: Interval, end: str, name: str = "f") -> float:
    """f at the endpoint ``end`` ("a" or "b") that an identity reads.

    Raises DomainError "f(a) is not finite" (or f(b), with ``name`` in place
    of f) when it is not.
    """
    v = evaluate(f, iv.a if end == "a" else iv.b)
    if not math.isfinite(v):
        raise DomainError(f"{name}({end}) is not finite")
    return v


def _slope_gap_rate(f: Expr, iv: Interval, cfg: SolverConfig) -> float:
    da, db = endpoint_slopes(f, iv, cfg)
    if da is None:
        raise DomainError("one-sided derivative at the left endpoint does not exist finitely")
    if db is None:
        raise DomainError("one-sided derivative at the right endpoint does not exist finitely")
    return (db - da) / iv.width


def pawlikowska_hypothesis(f: Expr, iv: Interval, n: int,
                           cfg: SolverConfig | None = None) -> bool | None:
    """Whether the n-th derivatives at the endpoints agree, one-sided.

    n = 1 is Flett's hypothesis, n = 2 the second-order one; None when
    either value does not exist finitely.
    """
    cfg = cfg or DEFAULT_CONFIG
    pre = f if n == 1 else differentiate(f, n - 1)
    return slopes_agree(endpoint_slopes(pre, iv, cfg), cfg)


def riedel_sahoo_points(f: Expr, iv: Interval,
                        cfg: SolverConfig | None = None) -> Points:
    """Roots of f(x) - f(a) - (x-a)f'(x) + (K/2)(x-a)^2, K the slope gap rate.

    K = (f'(b) - f'(a))/(b - a); when the endpoint slopes agree the
    correction vanishes and the root set is the Flett one. Quadratics
    satisfy the identity everywhere and come back degenerate.
    """
    cfg = cfg or DEFAULT_CONFIG
    fa = endpoint_value(f, iv, "a")
    k = _slope_gap_rate(f, iv, cfg)
    h = Var() - iv.a
    t1 = f - fa + 0.5 * k * h ** 2
    t2 = h * differentiate(f)
    return solve_residual((t1, t2), iv, cfg, TheoremId.RIEDEL_SAHOO)


def cakmak_tiryaki_points(f: Expr, iv: Interval,
                          cfg: SolverConfig | None = None) -> Points:
    """The same corrected identity anchored at b instead of a.

    Roots of f(b) - f(x) - (b-x)f'(x) - (K/2)(b-x)^2. Mirror image of
    riedel_sahoo_points under x -> a+b-x.
    """
    cfg = cfg or DEFAULT_CONFIG
    fb = endpoint_value(f, iv, "b")
    k = _slope_gap_rate(f, iv, cfg)
    h = iv.b - Var()
    t1 = fb - f
    t2 = h * differentiate(f) + 0.5 * k * h ** 2
    return solve_residual((t1, t2), iv, cfg, TheoremId.CAKMAK_TIRYAKI)


def second_order_points(variant: str, f: Expr, iv: Interval,
                        cfg: SolverConfig | None = None) -> Points:
    """Identities with a second-derivative correction at the point itself.

    variant "anchored_at_a": roots of
        f(x) - f(a) - (x-a)f'(x) + ((x-a)^2/2) f''(x)
    variant "anchored_at_b": roots of
        f(b) - f(x) - (b-x)f'(x) + ((b-x)^2/2) f''(x)
    The residual vanishes to order 3 at the anchor for every f, so a flat
    stretch touching it is not reported. The sufficient hypothesis
    f''(a) = f''(b) is reported as a flag.
    """
    cfg = cfg or DEFAULT_CONFIG
    if variant not in ("anchored_at_a", "anchored_at_b"):
        raise ValueError(f"variant must be 'anchored_at_a' or 'anchored_at_b', got {variant!r}")
    d1 = differentiate(f)
    d2 = differentiate(d1)
    hyp = pawlikowska_hypothesis(f, iv, 2, cfg)
    if variant == "anchored_at_a":
        fa = endpoint_value(f, iv, "a")
        h = Var() - iv.a
        t1 = f - fa + 0.5 * h ** 2 * d2
        t2 = h * d1
        tid, anchor = TheoremId.SECOND_ORDER_A, iv.a
    else:
        fb = endpoint_value(f, iv, "b")
        h = iv.b - Var()
        t1 = fb - f + 0.5 * h ** 2 * d2
        t2 = h * d1
        tid, anchor = TheoremId.SECOND_ORDER_B, iv.b
    return solve_residual((t1, t2), iv, cfg, tid, hypothesis=hyp, forced_zero=anchor)


def pawlikowska_points(f: Expr, iv: Interval, n: int,
                       cfg: SolverConfig | None = None) -> Points:
    """Roots of the order-n alternating sum identity anchored at a.

        f(x) - f(a) = sum_{i=1}^{n} ((-1)^(i+1) / i!) (x-a)^i f^(i)(x)

    n = 1 is the plain Flett identity; polynomials of degree at most n
    satisfy the identity everywhere and come back degenerate. The residual
    vanishes to order n+1 at a for every f, so a flat stretch touching a is
    not reported. The flag reports f^(n)(a) = f^(n)(b) with one-sided
    endpoint evaluation.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > MAX_SUM_ORDER:
        raise ValueError(f"n capped at {MAX_SUM_ORDER}, got {n}")
    fa = endpoint_value(f, iv, "a")
    hyp = pawlikowska_hypothesis(f, iv, n, cfg)
    # the sum starts from 0.0 and the power from 1.0, as a running float
    # sum does: 0.0 + -0.0 is 0.0, so a sum of signed zeros is +0.0
    h = Var() - iv.a
    total = Const(0.0)
    p = Const(1.0)
    g = f
    for i in range(1, n + 1):
        g = differentiate(g)
        p = p * h
        total = total + (-1.0) ** (i + 1) / math.factorial(i) * p * g
    return solve_residual((f - fa, total), iv, cfg, TheoremId.PAWLIKOWSKA,
                          hypothesis=hyp, forced_zero=iv.a)
