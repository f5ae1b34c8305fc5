"""Sufficient-condition checkers for Flett-point existence.

Four independent tests, each sound but none necessary: equal endpoint
slopes, the secant-slope product test, equality of the endpoint mean with
the integral mean, and the two product tests built on the auxiliary
difference-quotient function. `classify` runs all of them plus the actual
point scan and packs the outcome into one record, which is the unit the
corpus runner and the CLI report on.

Every strict inequality is decided inside a tolerance band: landing in the
band is reported as Boundary instead of silently rounding to one side.
Checkers that need derivatives demote to NotApplicable when the derivative
fails to exist, either at an endpoint or anywhere on the interior grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .expr import Expr, compile_fn, differentiate, evaluate
from .flett import find_flett_points
from .generalized import endpoint_slopes, pawlikowska_hypothesis
from .mvt_points import integral_mean
# integrate and one_sided_derivative are unused here but bench/tracer.py patches them
from .numerics import (
    DEFAULT_CONFIG, DomainError, Interval, SolverConfig, SolverError,
    central_diff, close, differentiable_on_interior, integrate,
    one_sided_derivative, tolerance,
)

__all__ = [
    "Verdict", "ConditionVector", "check_flett_condition", "check_trahan",
    "check_tong", "tong_means", "phi1", "phi1_prime_at_a",
    "check_malesevic", "classify",
]


class Verdict(str, Enum):
    Satisfied = "Satisfied"
    NotSatisfied = "NotSatisfied"
    Boundary = "Boundary"
    NotApplicable = "NotApplicable"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class ConditionVector:
    """Outcome of all four checkers plus the ground-truth point scan.

    m_of_f and i_of_f are the endpoint mean (f(a)+f(b))/2 and the integral
    mean; they are populated whenever the Tong checker was applicable.
    trahan_detail records Boundary when the product test landed on zero
    (the test itself is non-strict, so the verdict stays Satisfied); it is
    deliberately left out of the serialized form.
    """

    flett: Verdict
    trahan: Verdict
    tong: Verdict
    malesevic_t1: Verdict
    malesevic_m1: Verdict
    has_flett_point: bool
    m_of_f: float | None = None
    i_of_f: float | None = None
    trahan_detail: Verdict | None = None

    def to_json_dict(self) -> dict:
        return {
            "flett": self.flett.value,
            "trahan": self.trahan.value,
            "tong": self.tong.value,
            "malesevic_t1": self.malesevic_t1.value,
            "malesevic_m1": self.malesevic_m1.value,
            "has_flett_point": self.has_flett_point,
            "M": self.m_of_f,
            "I": self.i_of_f,
        }


def check_flett_condition(f: Expr, iv: Interval,
                          cfg: SolverConfig | None = None) -> Verdict:
    """Equal one-sided endpoint slopes, within residual_tol of each other."""
    cfg = cfg or DEFAULT_CONFIG
    if not differentiable_on_interior(f, iv, cfg):
        return Verdict.NotApplicable
    agree = pawlikowska_hypothesis(f, iv, 1, cfg)
    if agree is None:
        return Verdict.NotApplicable
    return Verdict.Satisfied if agree else Verdict.NotSatisfied


def _trahan(f: Expr, iv: Interval, cfg: SolverConfig):
    if not differentiable_on_interior(f, iv, cfg):
        return Verdict.NotApplicable, None
    da, db = endpoint_slopes(f, iv, cfg)
    if da is None or db is None:
        return Verdict.NotApplicable, None
    fc = compile_fn(f)
    fa, fb = fc(iv.a), fc(iv.b)
    if not (math.isfinite(fa) and math.isfinite(fb)):
        return Verdict.NotApplicable, None
    s = (fb - fa) / iv.width
    p = (db - s) * (da - s)
    if abs(p) <= tolerance(p, 0.0, cfg.residual_tol):
        # the underlying test is non-strict, so zero still passes
        return Verdict.Satisfied, Verdict.Boundary
    return (Verdict.Satisfied if p > 0.0 else Verdict.NotSatisfied), None


def check_trahan(f: Expr, iv: Interval, cfg: SolverConfig | None = None) -> Verdict:
    """Sign test on (f'(b) - s)(f'(a) - s) with s the secant slope.

    Nonnegative product passes; an exactly zero product is still a pass,
    with the boundary fact surfaced through classify's detail field.
    """
    return _trahan(f, iv, cfg or DEFAULT_CONFIG)[0]


def tong_means(f: Expr, iv: Interval,
               cfg: SolverConfig | None = None) -> tuple[float, float]:
    """(M, I): endpoint mean and integral mean of f over the interval.

    Raises DomainError when f is not finite on the closed grid.
    """
    fc, i = integral_mean(f, iv, cfg or DEFAULT_CONFIG)
    return 0.5 * (fc(iv.a) + fc(iv.b)), i


def check_tong(f: Expr, iv: Interval, cfg: SolverConfig | None = None) -> Verdict:
    """Whether the endpoint mean equals the integral mean."""
    cfg = cfg or DEFAULT_CONFIG
    try:
        m, i = tong_means(f, iv, cfg)
    except DomainError:
        return Verdict.NotApplicable
    return _tong_verdict(m, i, cfg)


def _tong_verdict(m: float, i: float, cfg: SolverConfig) -> Verdict:
    tol = max(cfg.quad_tol, cfg.residual_tol)
    return Verdict.Satisfied if close(m, i, tol) else Verdict.NotSatisfied


def phi1(f: Expr, a: float):
    """The difference quotient of f at a, recentred by f'(a).

    phi(x) = (f(x) - f(a))/(x - a) - f'(a) for x != a, and phi(a) = 0,
    its continuous extension.
    """
    fc = compile_fn(f)
    fa = fc(a)
    fpa = evaluate(differentiate(f), a)

    def phi(x: float) -> float:
        if x == a:
            return 0.0
        return (fc(x) - fa) / (x - a) - fpa

    return phi


def phi1_prime_at_a(f: Expr, a: float,
                    cfg: SolverConfig | None = None) -> float | None:
    """Derivative of the extended difference quotient at its basepoint.

    Taylor expansion pins it to f''(a)/2. Symbolic second derivative first,
    finite differences as fallback, None when neither produces a usable
    value.
    """
    cfg = cfg or DEFAULT_CONFIG
    v = evaluate(differentiate(f, 2), a)
    if math.isfinite(v) and abs(v) <= cfg.singular_threshold:
        return 0.5 * v
    try:
        v = central_diff(compile_fn(f), a, order=2)
    except SolverError:
        return None
    if math.isfinite(v) and abs(v) <= cfg.singular_threshold:
        return 0.5 * v
    return None


def _strict_negative(p: float, cfg: SolverConfig) -> Verdict:
    if abs(p) <= tolerance(p, 0.0, cfg.residual_tol):
        return Verdict.Boundary
    return Verdict.Satisfied if p < 0.0 else Verdict.NotSatisfied


def check_malesevic(f: Expr, iv: Interval,
                    cfg: SolverConfig | None = None) -> tuple[Verdict, Verdict]:
    """The two product tests on the recentred difference quotient phi.

    Returns (t1, m1) where t1 tests phi'(b)·phi(b) < 0 and m1 tests
    phi'(a)·phi(b) < 0. phi(b) and phi'(b) come from closed forms in the
    endpoint data; phi'(a) needs the second derivative at a.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not differentiable_on_interior(f, iv, cfg):
        return Verdict.NotApplicable, Verdict.NotApplicable
    da, db = endpoint_slopes(f, iv, cfg)
    fc = compile_fn(f)
    fa, fb = fc(iv.a), fc(iv.b)
    if da is None or not (math.isfinite(fa) and math.isfinite(fb)):
        return Verdict.NotApplicable, Verdict.NotApplicable
    s = (fb - fa) / iv.width
    phib = s - da
    t1 = Verdict.NotApplicable if db is None else \
        _strict_negative(((db - s) / iv.width) * phib, cfg)
    ppa = phi1_prime_at_a(f, iv.a, cfg)
    m1 = Verdict.NotApplicable if ppa is None else _strict_negative(ppa * phib, cfg)
    return t1, m1


def classify(f: Expr, iv: Interval,
             cfg: SolverConfig | None = None) -> ConditionVector:
    """Run every checker and the point scan; never raises on checker failure.

    A checker that errors out internally is reported NotApplicable; the
    point scan failing (f not even evaluable near an endpoint) reports
    has_flett_point = False rather than aborting the vector.
    """
    cfg = cfg or DEFAULT_CONFIG
    try:
        flett_v = check_flett_condition(f, iv, cfg)
    except SolverError:
        flett_v = Verdict.NotApplicable
    try:
        trahan_v, trahan_detail = _trahan(f, iv, cfg)
    except SolverError:
        trahan_v, trahan_detail = Verdict.NotApplicable, None
    m = i = None
    try:
        m, i = tong_means(f, iv, cfg)
        tong_v = _tong_verdict(m, i, cfg)
    except SolverError:
        tong_v, m, i = Verdict.NotApplicable, None, None
    try:
        t1_v, m1_v = check_malesevic(f, iv, cfg)
    except SolverError:
        t1_v, m1_v = Verdict.NotApplicable, Verdict.NotApplicable
    try:
        has_point = bool(find_flett_points(f, iv, cfg))
    except SolverError:
        has_point = False
    return ConditionVector(flett=flett_v, trahan=trahan_v, tong=tong_v,
                           malesevic_t1=t1_v, malesevic_m1=m1_v,
                           has_flett_point=has_point, m_of_f=m, i_of_f=i,
                           trahan_detail=trahan_detail)
