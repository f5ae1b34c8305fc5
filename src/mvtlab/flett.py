"""Flett points and the seven related endpoint-anchored variants.

The identities all equate f' at an interior point with a difference quotient
anchored at one or both endpoints. Searching the quotient directly is
hopeless near the anchored endpoint, so every solver multiplies through by
the (positive) denominator first; sign changes are unaffected on the open
interval. The stated two-sided forms live in the theorem table
(:data:`mvtlab.verify.THEOREMS`), so results are re-verified independently
of the search form.
"""

from __future__ import annotations

from typing import Callable

from .expr import Const, Expr, Var, compile_fn, differentiate
from .generalized import endpoint_slopes, endpoint_value, slopes_agree
# one_sided_derivative is unused here but bench/tracer.py patches it
from .numerics import (
    DEFAULT_CONFIG, DomainError, Interval, Points, SolverConfig, TheoremId,
    one_sided_derivative, solve_residual,
)

__all__ = [
    "flett_residual", "find_flett_points", "meyers_hypothesis",
    "meyers_points",
]

# The family: Flett's identity and the seven Meyers variants, each with the
# endpoint values f(a), f(b) its residual reads.
_ANCHORS = {
    TheoremId.FLETT: "a", TheoremId.MEYERS_2_3: "b", TheoremId.MEYERS_2_4: "b",
    TheoremId.MEYERS_2_5: "a", TheoremId.MEYERS_2_6: "ab",
    TheoremId.MEYERS_2_7: "ab", TheoremId.MEYERS_2_8: "a",
    TheoremId.MEYERS_2_9: "b",
}


def _variant(v: TheoremId | str) -> TheoremId:
    tid = TheoremId(v)
    if tid not in _ANCHORS:
        raise ValueError(f"{tid} is neither Flett's identity nor a Meyers variant")
    return tid


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


def find_flett_points(f: Expr, iv: Interval, cfg: SolverConfig | None = None, *,
                      slopes: tuple[float | None, float | None] | None = None
                      ) -> Points:
    """All interior points where the tangent at x passes through (a, f(a)).

    ``slopes`` are f's one-sided endpoint slopes, from
    :func:`~mvtlab.generalized.endpoint_slopes`, for a caller that holds
    them already; the hypothesis flag then reads them instead.
    """
    return meyers_points(TheoremId.FLETT, f, iv, cfg, slopes=slopes)


def _variant_terms(tid: TheoremId, f: Expr, iv: Interval) -> tuple[Expr, Expr]:
    """Left and right term of the multiplied-through residual r = t1 - t2."""
    d1 = differentiate(f)
    a, b, w = iv.a, iv.b, iv.width
    ends = {end: endpoint_value(f, iv, end) for end in _ANCHORS[tid]}
    fa, fb = ends.get("a"), ends.get("b")
    x = Var()
    # one lambda per variant, so that only the selected terms are built
    return {
        TheoremId.FLETT: lambda: (d1 * (x - a), f - fa),
        TheoremId.MEYERS_2_3: lambda: (d1 * (b - x), fb - f),
        TheoremId.MEYERS_2_4: lambda: (d1 * (x - a), fb - f),
        TheoremId.MEYERS_2_5: lambda: (d1 * (b - x), f - fa),
        TheoremId.MEYERS_2_6: lambda: (d1 * (x - a), Const(fb - fa)),
        TheoremId.MEYERS_2_7: lambda: (d1 * (b - x), Const(fb - fa)),
        TheoremId.MEYERS_2_8: lambda: (d1 * w, f - fa),
        TheoremId.MEYERS_2_9: lambda: (d1 * w, fb - f),
    }[tid]()


def meyers_hypothesis(v: TheoremId | str, f: Expr, iv: Interval,
                      cfg: SolverConfig | None = None, *,
                      slopes: tuple[float | None, float | None] | None = None
                      ) -> bool | None:
    """Evaluate the sufficient condition attached to the variant.

    ``v`` is a Flett-family :class:`~mvtlab.numerics.TheoremId` or its
    string value. The first four variants share f'(a) = f'(b); the rest are
    strict sign conditions on products of endpoint data, so a product that
    lands exactly on zero reports False here (the Trahan checker in the
    conditions module is the place boundary cases get their own verdict).
    None means an endpoint derivative the predicate needs does not exist
    finitely. ``slopes``, when given, are f's endpoint slopes as
    :func:`~mvtlab.generalized.endpoint_slopes` reads them.
    """
    cfg = cfg or DEFAULT_CONFIG
    tid = _variant(v)
    da, db = slopes = endpoint_slopes(f, iv, cfg) if slopes is None else slopes
    if tid in (TheoremId.FLETT, TheoremId.MEYERS_2_3, TheoremId.MEYERS_2_4,
               TheoremId.MEYERS_2_5):
        return slopes_agree(slopes, cfg)
    try:
        fa, fb = endpoint_value(f, iv, "a"), endpoint_value(f, iv, "b")
    except DomainError:
        return None
    w = iv.width
    if tid is TheoremId.MEYERS_2_6:
        return None if db is None else (fb - fa) * (fb - fa - w * db) < 0.0
    if tid is TheoremId.MEYERS_2_7:
        return None if da is None else (fb - fa) * (fb - fa - w * da) < 0.0
    if da is None or db is None:
        return None
    if tid is TheoremId.MEYERS_2_8:
        return da * (fb - fa - w * db) > 0.0
    return db * (fb - fa - w * da) > 0.0


def meyers_points(v: TheoremId | str, f: Expr, iv: Interval,
                  cfg: SolverConfig | None = None, *,
                  slopes: tuple[float | None, float | None] | None = None) -> Points:
    """Interior roots of the variant residual, with the hypothesis flag.

    ``v`` is a Flett-family theorem id or its string value, e.g.
    ``meyers_points(TheoremId.MEYERS_2_3, f, iv)`` or ``"meyers-2.3"``.
    ``slopes`` go to :func:`meyers_hypothesis`.
    """
    cfg = cfg or DEFAULT_CONFIG
    tid = _variant(v)
    t1, t2 = _variant_terms(tid, f, iv)
    hyp = meyers_hypothesis(tid, f, iv, cfg, slopes=slopes)
    return solve_residual((t1, t2), iv, cfg, tid, hypothesis=hyp)
