"""Flett points and the seven related endpoint-anchored variants.

The identities all equate f' at an interior point with a difference quotient
anchored at one or both endpoints. Searching the quotient directly is
hopeless near the anchored endpoint, so every solver multiplies through by
the (positive) denominator first; sign changes are unaffected on the open
interval. `quotient_sides` exposes the original two-sided form so results
can be re-verified independently of the search form.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

from .expr import Expr, compile_fn, differentiate
from .numerics import (
    DEFAULT_CONFIG, DomainError, Interval, PointResult, SolverConfig, TheoremId,
    one_sided_derivative, solve_residual,
)

__all__ = [
    "MeyersVariant", "flett_residual", "flett_hypothesis",
    "find_flett_points", "meyers_hypothesis", "meyers_points",
    "quotient_sides",
]


class MeyersVariant(str, Enum):
    """One endpoint-anchored identity together with its hypothesis predicate."""

    Flett_2_2 = "flett"
    Meyers_2_3 = "meyers-2.3"
    Meyers_2_4 = "meyers-2.4"
    Meyers_2_5 = "meyers-2.5"
    Meyers_2_6 = "meyers-2.6"
    Meyers_2_7 = "meyers-2.7"
    Meyers_2_8 = "meyers-2.8"
    Meyers_2_9 = "meyers-2.9"

    def __str__(self) -> str:
        return self.value


def flett_residual(f: Expr, a: float) -> Callable[[float], float]:
    """r(x) = f'(x)(x - a) - (f(x) - f(a)).

    Multiplied-through form of the tangent-chord identity anchored at a; the
    quotient's singularity at x = a is removed and roots are preserved for
    x > a.
    """
    fc = compile_fn(f)
    d1 = compile_fn(differentiate(f))
    fa = fc(a)
    return lambda x: d1(x) * (x - a) - (fc(x) - fa)


def _endpoint_closeness(da: float | None, db: float | None,
                        cfg: SolverConfig) -> bool | None:
    if da is None or db is None:
        return None
    return abs(da - db) <= cfg.residual_tol * max(1.0, abs(da), abs(db))


def flett_hypothesis(f: Expr, iv: Interval,
                     cfg: SolverConfig | None = None) -> bool | None:
    """Whether f'(a) = f'(b) for the one-sided endpoint derivatives.

    None when either endpoint derivative does not exist finitely (asin on
    [-1, 1] is the canonical case).
    """
    cfg = cfg or DEFAULT_CONFIG
    da = one_sided_derivative(f, iv.a, cfg)
    db = one_sided_derivative(f, iv.b, cfg)
    return _endpoint_closeness(da, db, cfg)


def find_flett_points(f: Expr, iv: Interval,
                      cfg: SolverConfig | None = None) -> list[PointResult]:
    """All interior points where the tangent at x passes through (a, f(a))."""
    return meyers_points(MeyersVariant.Flett_2_2, f, iv, cfg)


def _variant_terms(v: MeyersVariant, f: Expr, iv: Interval):
    """Left and right term of the multiplied-through residual r = t1 - t2."""
    fc = compile_fn(f)
    d1 = compile_fn(differentiate(f))
    a, b, w = iv.a, iv.b, iv.width
    fa, fb = fc(a), fc(b)
    need_a = v in (MeyersVariant.Flett_2_2, MeyersVariant.Meyers_2_5,
                   MeyersVariant.Meyers_2_6, MeyersVariant.Meyers_2_7,
                   MeyersVariant.Meyers_2_8)
    need_b = v in (MeyersVariant.Meyers_2_3, MeyersVariant.Meyers_2_4,
                   MeyersVariant.Meyers_2_6, MeyersVariant.Meyers_2_7,
                   MeyersVariant.Meyers_2_9)
    if need_a and not math.isfinite(fa):
        raise DomainError("f(a) is not finite")
    if need_b and not math.isfinite(fb):
        raise DomainError("f(b) is not finite")
    if v is MeyersVariant.Flett_2_2:
        return (lambda x: d1(x) * (x - a)), (lambda x: fc(x) - fa)
    if v is MeyersVariant.Meyers_2_3:
        return (lambda x: d1(x) * (b - x)), (lambda x: fb - fc(x))
    if v is MeyersVariant.Meyers_2_4:
        return (lambda x: d1(x) * (x - a)), (lambda x: fb - fc(x))
    if v is MeyersVariant.Meyers_2_5:
        return (lambda x: d1(x) * (b - x)), (lambda x: fc(x) - fa)
    if v is MeyersVariant.Meyers_2_6:
        return (lambda x: d1(x) * (x - a)), (lambda x: fb - fa)
    if v is MeyersVariant.Meyers_2_7:
        return (lambda x: d1(x) * (b - x)), (lambda x: fb - fa)
    if v is MeyersVariant.Meyers_2_8:
        return (lambda x: d1(x) * w), (lambda x: fc(x) - fa)
    if v is MeyersVariant.Meyers_2_9:
        return (lambda x: d1(x) * w), (lambda x: fb - fc(x))
    raise ValueError(f"unknown variant {v!r}")


def meyers_hypothesis(v: MeyersVariant, f: Expr, iv: Interval,
                      cfg: SolverConfig | None = None) -> bool | None:
    """Evaluate the sufficient condition attached to the variant.

    The first four variants share f'(a) = f'(b); the rest are strict sign
    conditions on products of endpoint data, so a product that lands exactly
    on zero reports False here (the Trahan checker in the conditions module
    is the place boundary cases get their own verdict). None means an
    endpoint derivative the predicate needs does not exist finitely.
    """
    cfg = cfg or DEFAULT_CONFIG
    da = one_sided_derivative(f, iv.a, cfg)
    db = one_sided_derivative(f, iv.b, cfg)
    if v in (MeyersVariant.Flett_2_2, MeyersVariant.Meyers_2_3,
             MeyersVariant.Meyers_2_4, MeyersVariant.Meyers_2_5):
        return _endpoint_closeness(da, db, cfg)
    fc = compile_fn(f)
    fa, fb = fc(iv.a), fc(iv.b)
    if not (math.isfinite(fa) and math.isfinite(fb)):
        return None
    w = iv.width
    if v is MeyersVariant.Meyers_2_6:
        return None if db is None else (fb - fa) * (fb - fa - w * db) < 0.0
    if v is MeyersVariant.Meyers_2_7:
        return None if da is None else (fb - fa) * (fb - fa - w * da) < 0.0
    if v is MeyersVariant.Meyers_2_8:
        if da is None or db is None:
            return None
        return da * (fb - fa - w * db) > 0.0
    if v is MeyersVariant.Meyers_2_9:
        if da is None or db is None:
            return None
        return db * (fb - fa - w * da) > 0.0
    raise ValueError(f"unknown variant {v!r}")


def meyers_points(v: MeyersVariant, f: Expr, iv: Interval,
                  cfg: SolverConfig | None = None) -> list[PointResult]:
    """Interior roots of the variant residual, hypothesis noted on each."""
    cfg = cfg or DEFAULT_CONFIG
    t1, t2 = _variant_terms(v, f, iv)
    hyp = meyers_hypothesis(v, f, iv, cfg)
    return solve_residual((t1, t2), iv, cfg, TheoremId(v.value), hypothesis=hyp)


def quotient_sides(v: MeyersVariant, f: Expr, iv: Interval):
    """(lhs, rhs) of the identity as stated, lhs always f'.

    The rhs is the raw difference quotient; it blows up at its anchored
    endpoint, which is fine since verification only evaluates it at interior
    candidates.
    """
    fc = compile_fn(f)
    d1 = compile_fn(differentiate(f))
    a, b, w = iv.a, iv.b, iv.width
    fa, fb = fc(a), fc(b)
    rhs = {
        MeyersVariant.Flett_2_2: lambda x: (fc(x) - fa) / (x - a),
        MeyersVariant.Meyers_2_3: lambda x: (fb - fc(x)) / (b - x),
        MeyersVariant.Meyers_2_4: lambda x: (fb - fc(x)) / (x - a),
        MeyersVariant.Meyers_2_5: lambda x: (fc(x) - fa) / (b - x),
        MeyersVariant.Meyers_2_6: lambda x: (fb - fa) / (x - a),
        MeyersVariant.Meyers_2_7: lambda x: (fb - fa) / (b - x),
        MeyersVariant.Meyers_2_8: lambda x: (fc(x) - fa) / w,
        MeyersVariant.Meyers_2_9: lambda x: (fb - fc(x)) / w,
    }[v]
    return d1, rhs
