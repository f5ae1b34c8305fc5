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
Endpoint derivatives are one-sided, f'(a+), f'(b-) and f''(a+), each read
by `generalized.one_sided_slope`; `phi1` and `phi1_prime_at_a` read from
the right, giving nan and None where that value does not exist finitely.

`classify` checks differentiability once: the slope-based checkers read one
shared verdict, one pair of endpoint slopes and one pair of endpoint values,
held by a private per-request context, and the point scan's hypothesis
flag reads the same slopes. Each public ``check_*`` function
builds its own context, so it gives the verdict classify would.

`mvtlab corpus` runs classify on each record of a UTF-8 file (a file that
is not UTF-8 exits 2). A numeric ``expect`` value matches within 1e-9 under
`numerics.close`, and never when it is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

# differentiate and evaluate are unused here but bench/tracer.py patches them
from .expr import Expr, compile_fn, differentiate, evaluate
from .flett import find_flett_points
from .generalized import endpoint_slopes, endpoint_value, one_sided_slope, slopes_agree
from .mvt_points import integral_mean
# integrate and one_sided_derivative are unused here but bench/tracer.py patches them
from .numerics import (
    DEFAULT_CONFIG, DomainError, Interval, SolverConfig, SolverError,
    close, differentiable_on_interior, integrate, one_sided_derivative, tolerance,
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


class _Context:
    """What the checkers share about one (f, interval, config).

    Each part is computed on its first read and kept: the differentiability
    verdict (one ``differentiable_on_interior`` scan), the one-sided
    endpoint slopes, and (f(a), f(b)) from `generalized.endpoint_value`. A
    part whose computation raised SolverError raises that same error at
    every read, so each checker still demotes to NotApplicable on its own.
    f's abs()/sgn() arguments are not kept: each read lists them off f's walk.
    """

    __slots__ = ("f", "iv", "cfg", "_parts")

    def __init__(self, f: Expr, iv: Interval, cfg: SolverConfig | None):
        self.f, self.iv, self.cfg = f, iv, cfg or DEFAULT_CONFIG
        self._parts: dict = {}  # name -> value, or the SolverError it raised

    def _part(self, name: str, make):
        if name not in self._parts:
            try:
                self._parts[name] = make()
            except SolverError as exc:
                self._parts[name] = exc
        value = self._parts[name]
        if isinstance(value, SolverError):
            raise value
        return value

    @property
    def smooth(self) -> bool:
        return self._part("smooth", lambda: differentiable_on_interior(self.f, self.iv, self.cfg))

    @property
    def slopes(self) -> tuple[float | None, float | None]:
        return self._part("slopes", lambda: endpoint_slopes(self.f, self.iv, self.cfg))

    @property
    def ends(self) -> tuple[float, float]:
        return self._part("ends", lambda: tuple(endpoint_value(self.f, self.iv, e) for e in "ab"))

    @property
    def secant(self) -> float | None:
        """(f(b) - f(a))/(b - a), or None when f(a) or f(b) is not finite."""
        try:
            fa, fb = self.ends
        except DomainError:
            return None
        return (fb - fa) / self.iv.width


def _flett(ctx: _Context) -> Verdict:
    agree = slopes_agree(ctx.slopes, ctx.cfg) if ctx.smooth else None
    if agree is None:
        return Verdict.NotApplicable
    return Verdict.Satisfied if agree else Verdict.NotSatisfied


def check_flett_condition(f: Expr, iv: Interval,
                          cfg: SolverConfig | None = None) -> Verdict:
    """Equal one-sided endpoint slopes, within residual_tol of each other."""
    return _flett(_Context(f, iv, cfg))


def _trahan(ctx: _Context) -> tuple[Verdict, Verdict | None]:
    if not ctx.smooth:
        return Verdict.NotApplicable, None
    da, db = ctx.slopes
    if da is None or db is None:
        return Verdict.NotApplicable, None
    s = ctx.secant
    if s is None:
        return Verdict.NotApplicable, None
    p = (db - s) * (da - s)
    if abs(p) <= tolerance(p, 0.0, ctx.cfg.residual_tol):
        # the underlying test is non-strict, so zero still passes
        return Verdict.Satisfied, Verdict.Boundary
    return (Verdict.Satisfied if p > 0.0 else Verdict.NotSatisfied), None


def check_trahan(f: Expr, iv: Interval, cfg: SolverConfig | None = None) -> Verdict:
    """Sign test on (f'(b) - s)(f'(a) - s) with s the secant slope.

    Nonnegative product passes; an exactly zero product is still a pass,
    with the boundary fact surfaced through classify's detail field.
    """
    return _trahan(_Context(f, iv, cfg))[0]


def _tong_means(ctx: _Context) -> tuple[float, float]:
    i = integral_mean(ctx.f, ctx.iv, ctx.cfg)
    fa, fb = ctx.ends
    return 0.5 * (fa + fb), i


def tong_means(f: Expr, iv: Interval,
               cfg: SolverConfig | None = None) -> tuple[float, float]:
    """(M, I): endpoint mean and integral mean of f over the interval.

    Raises DomainError when f is not finite on the closed grid.
    """
    return _tong_means(_Context(f, iv, cfg))


def check_tong(f: Expr, iv: Interval, cfg: SolverConfig | None = None) -> Verdict:
    """Whether the endpoint mean equals the integral mean."""
    ctx = _Context(f, iv, cfg)
    try:
        m, i = _tong_means(ctx)
    except DomainError:
        return Verdict.NotApplicable
    return _tong_verdict(m, i, ctx.cfg)


def _tong_verdict(m: float, i: float, cfg: SolverConfig) -> Verdict:
    tol = max(cfg.quad_tol, cfg.residual_tol)
    return Verdict.Satisfied if close(m, i, tol) else Verdict.NotSatisfied


def phi1(f: Expr, a: float):
    """The difference quotient of f at a, recentred by f'(a+).

    phi(x) = (f(x) - f(a))/(x - a) - f'(a+) for x != a, and phi(a) = 0,
    its continuous extension. Where f'(a+) does not exist finitely
    (`generalized.one_sided_slope`), phi is nan off a.
    """
    fc = compile_fn(f)
    fa = fc(a)
    fpa = one_sided_slope(f, a, math.inf, DEFAULT_CONFIG)
    fpa = math.nan if fpa is None else fpa

    def phi(x: float) -> float:
        if x == a:
            return 0.0
        return (fc(x) - fa) / (x - a) - fpa

    return phi


def phi1_prime_at_a(f: Expr, a: float,
                    cfg: SolverConfig | None = None) -> float | None:
    """Derivative of the extended difference quotient at its basepoint.

    Taylor expansion pins it to f''(a+)/2, the order-2 one-sided slope.
    None when it does not exist finitely.
    """
    v = one_sided_slope(f, a, math.inf, cfg or DEFAULT_CONFIG, order=2)
    return None if v is None else 0.5 * v


def _strict_negative(p: float, cfg: SolverConfig) -> Verdict:
    if abs(p) <= tolerance(p, 0.0, cfg.residual_tol):
        return Verdict.Boundary
    return Verdict.Satisfied if p < 0.0 else Verdict.NotSatisfied


def _malesevic(ctx: _Context) -> tuple[Verdict, Verdict]:
    if not ctx.smooth:
        return Verdict.NotApplicable, Verdict.NotApplicable
    da, db = ctx.slopes
    s = ctx.secant
    if da is None or s is None:
        return Verdict.NotApplicable, Verdict.NotApplicable
    cfg = ctx.cfg
    phib = s - da
    t1 = Verdict.NotApplicable if db is None else \
        _strict_negative(((db - s) / ctx.iv.width) * phib, cfg)
    # phi'(a) = f''(a+)/2, read as phi1_prime_at_a reads it
    d2a = one_sided_slope(ctx.f, ctx.iv.a, ctx.iv.b, cfg, order=2)
    m1 = Verdict.NotApplicable if d2a is None else _strict_negative(0.5 * d2a * phib, cfg)
    return t1, m1


def check_malesevic(f: Expr, iv: Interval,
                    cfg: SolverConfig | None = None) -> tuple[Verdict, Verdict]:
    """The two product tests on the recentred difference quotient phi.

    Returns (t1, m1) where t1 tests phi'(b)·phi(b) < 0 and m1 tests
    phi'(a)·phi(b) < 0. phi(b) and phi'(b) come from closed forms in the
    endpoint data; phi'(a) needs the second derivative at a.
    """
    return _malesevic(_Context(f, iv, cfg))


def _guarded(check, ctx: _Context, fallback):
    """check(ctx), or ``fallback`` when it raises SolverError."""
    try:
        return check(ctx)
    except SolverError:
        return fallback


def classify(f: Expr, iv: Interval,
             cfg: SolverConfig | None = None) -> ConditionVector:
    """Run every checker and the point scan; never raises on checker failure.

    The checkers share one context, so f is scanned for differentiability
    once and its endpoint slopes are read once. A checker that errors out internally is reported NotApplicable;
    the point scan failing (f not even evaluable near an endpoint) reports
    has_flett_point = False rather than aborting the vector.
    """
    ctx = _Context(f, iv, cfg)
    flett_v = _guarded(_flett, ctx, Verdict.NotApplicable)
    trahan_v, trahan_detail = _guarded(_trahan, ctx, (Verdict.NotApplicable, None))
    m, i = _guarded(_tong_means, ctx, (None, None))
    tong_v = Verdict.NotApplicable if m is None else _tong_verdict(m, i, ctx.cfg)
    t1_v, m1_v = _guarded(_malesevic, ctx, (Verdict.NotApplicable, Verdict.NotApplicable))
    has_point = _guarded(lambda c: bool(find_flett_points(f, iv, c.cfg, slopes=c.slopes)),
                         ctx, False)
    return ConditionVector(flett=flett_v, trahan=trahan_v, tong=tong_v,
                           malesevic_t1=t1_v, malesevic_m1=m1_v,
                           has_flett_point=has_point, m_of_f=m, i_of_f=i,
                           trahan_detail=trahan_detail)
