"""Shared numerical kernels: grids, bracketing, root polishing, quadrature.

Every theorem solver in this package reduces to the same loop: build a
residual whose interior roots are the points claimed to exist, scan a
uniform grid for sign changes, polish each bracket, and report.
:func:`solve_residual` implements that loop once; the kernels around it
(:func:`refine_root`, :func:`integrate`, :func:`central_diff`) are exposed
individually as well.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .expr import Expr, compile_fn, differentiate, evaluate, sign_sensitive_args

__all__ = [
    "SolverError", "DomainError", "QuadratureError", "NoRootFound", "HypothesisError",
    "TheoremId", "Interval", "SolverConfig", "DEFAULT_CONFIG", "PointResult",
    "grid_points", "residual_scale", "refine_root", "integrate",
    "central_diff", "fold_terms", "solve_residual",
    "one_sided_derivative", "differentiable_on_interior",
]

_EPS = sys.float_info.epsilon


class SolverError(Exception):
    """Base class for numerical failures raised by this package."""


class DomainError(SolverError):
    """A function could not be evaluated where the algorithm needed it."""


class QuadratureError(SolverError):
    """Adaptive quadrature could not reach its error target."""


class NoRootFound(SolverError):
    """A point guaranteed to exist was not located numerically."""


class HypothesisError(SolverError):
    """A hard precondition of an identity does not hold for the inputs."""


class TheoremId(str, Enum):
    """Stable identifiers for every identity the package can search."""

    ROLLE = "rolle"
    LAGRANGE = "lagrange"
    CAUCHY = "cauchy"
    INTEGRAL_MVT = "integral-mvt"
    FLETT = "flett"
    MEYERS_2_3 = "meyers-2.3"
    MEYERS_2_4 = "meyers-2.4"
    MEYERS_2_5 = "meyers-2.5"
    MEYERS_2_6 = "meyers-2.6"
    MEYERS_2_7 = "meyers-2.7"
    MEYERS_2_8 = "meyers-2.8"
    MEYERS_2_9 = "meyers-2.9"
    RIEDEL_SAHOO = "riedel-sahoo"
    CAKMAK_TIRYAKI = "cakmak-tiryaki"
    SECOND_ORDER_A = "second-order-a"
    SECOND_ORDER_B = "second-order-b"
    PAWLIKOWSKA = "pawlikowska"
    CAUCHY_FLETT = "cauchy-flett"
    THM_4_9 = "thm-4.9"
    THM_4_10 = "thm-4.10"
    WEIGHTED_NORM = "weighted-norm"
    LUPU_4_6_T = "lupu-4.6-t"
    LUPU_4_6_TS = "lupu-4.6-ts"
    LUPU_4_6_S = "lupu-4.6-s"
    LUPU_4_7_T = "lupu-4.7-t"
    LUPU_4_7_S = "lupu-4.7-s"

    def __str__(self) -> str:  # report-friendly
        return self.value


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [a, b] with a < b, both finite."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Knobs shared by every solver.

    ``endpoint_margin`` is a fraction of the interval width: scans run over
    [a + m*(b-a), b - m*(b-a)] so that open-interval theorems never report
    an endpoint. ``singular_threshold`` is the magnitude past which a
    derivative is treated as effectively infinite.
    """

    scan_points: int = 4096
    root_tol: float = 1e-12
    residual_tol: float = 1e-9
    quad_tol: float = 1e-10
    endpoint_margin: float = 1e-9
    singular_threshold: float = 1e12

    def __post_init__(self):
        if self.scan_points < 8:
            raise ValueError("scan_points must be at least 8")
        for name in ("root_tol", "residual_tol", "quad_tol", "singular_threshold"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.endpoint_margin < 0.5:
            raise ValueError("endpoint_margin must lie in [0, 0.5)")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True, slots=True)
class PointResult:
    """One located point, or one representative of a continuum of them.

    ``degenerate`` marks the representative case: the residual vanished on
    (at least a stretch of) the scan grid, so every point there satisfies
    the identity and ``xi`` is just the midpoint of that stretch.
    ``hypothesis_satisfied`` is None when the identity has no hypothesis or
    when the hypothesis could not be evaluated.
    """

    xi: float
    residual: float
    theorem_id: TheoremId
    degenerate: bool = False
    hypothesis_satisfied: bool | None = None


def grid_points(iv: Interval, cfg: SolverConfig, margin: float | None = None) -> list[float]:
    """Uniform grid of cfg.scan_points inside [a+m*(b-a), b-m*(b-a)]."""
    m = cfg.endpoint_margin if margin is None else margin
    lo = iv.a + m * iv.width
    hi = iv.b - m * iv.width
    n = cfg.scan_points
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def residual_scale(fns: Sequence[Callable[[float], float]], iv: Interval,
                   cfg: SolverConfig, margin: float | None = None) -> float:
    """max(1, largest finite magnitude of any constituent term on the grid).

    Residuals are differences of terms that can be individually large, so
    "close to zero" is always judged relative to this scale.
    """
    s = 1.0
    for x in grid_points(iv, cfg, margin):
        for fn in fns:
            v = abs(fn(x))
            if math.isfinite(v) and v > s:
                s = v
    return s


# Sign flips whose both bracket values sit this many ulps of the residual
# scale from zero are indistinguishable from cancellation roundoff.
_NOISE_ULPS = 1.0e3

_BRENT_MAX_ITER = 200


def refine_root(F: Callable[[float], float], lo: float, hi: float,
                cfg: SolverConfig) -> float:
    """Polish a bracketed root down to a bracket width of cfg.root_tol.

    Classic Brent iteration: inverse quadratic interpolation and secant
    steps where they behave, bisection otherwise, so convergence is
    guaranteed for any continuous F with F(lo)*F(hi) < 0. (The effective
    tolerance has an extra couple of ulps at large |x|.)
    """
    a, b = float(lo), float(hi)
    fa, fb = F(a), F(b)
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise DomainError("bracket endpoints must evaluate finite")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("refine_root needs a sign change across the bracket")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_BRENT_MAX_ITER):
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * cfg.root_tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += math.copysign(tol1, xm)
        fb = F(b)
        if not math.isfinite(fb):
            raise DomainError(f"residual became non-finite at x={b!r} while refining")
    return b


_QUAD_MAX_DEPTH = 60


def _quad_sample(F: Callable[[float], float], x: float,
                 lo: float, hi: float) -> float:
    v = F(x)
    if math.isfinite(v):
        return v
    # a non-finite endpoint value is replaced by a one-sided interior sample
    if x == lo or x == hi:
        span = hi - lo
        sgn = 1.0 if x == lo else -1.0
        for k in (1e-13, 1e-11, 1e-9, 1e-7):
            v = F(x + sgn * k * span)
            if math.isfinite(v):
                return v
    raise QuadratureError(f"integrand not finite at x={x!r}")


def _adapt(F, lo, hi, a, fa, b, fb, m, fm, whole, eps, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = _quad_sample(F, lm, lo, hi)
    frm = _quad_sample(F, rm, lo, hi)
    sl = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    sr = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    delta = sl + sr - whole
    if abs(delta) <= 15.0 * eps:
        return sl + sr + delta / 15.0
    if depth <= 0:
        raise QuadratureError("adaptive subdivision depth exhausted")
    half = 0.5 * eps
    return (_adapt(F, lo, hi, a, fa, m, fm, lm, flm, sl, half, depth - 1)
            + _adapt(F, lo, hi, m, fm, b, fb, rm, frm, sr, half, depth - 1))


def integrate(F: Callable[[float], float], lo: float, hi: float,
              cfg: SolverConfig, *, fa: float | None = None,
              fb: float | None = None) -> float:
    """Adaptive Simpson integral of F over [lo, hi].

    The error target is ``cfg.quad_tol * (1 + |result|)`` using the initial
    whole-interval estimate for |result|. A non-finite endpoint value is
    replaced with a one-sided interior sample, so bounded integrands whose
    derivative blows up at an endpoint (sqrt, asin) still converge; an
    unbounded integrand outruns the per-level error budget and raises
    QuadratureError once the recursion passes depth 60.

    ``fa``/``fb`` are F(lo)/F(hi) when the caller has already sampled them
    (adjacent panels share an endpoint); a missing or non-finite one is
    sampled here as usual, so the result never depends on passing them.
    """
    if lo > hi:
        raise ValueError("integrate needs lo <= hi")
    if lo == hi:
        return 0.0
    if fa is None or not math.isfinite(fa):
        fa = _quad_sample(F, lo, lo, hi)
    if fb is None or not math.isfinite(fb):
        fb = _quad_sample(F, hi, lo, hi)
    m = 0.5 * (lo + hi)
    fm = _quad_sample(F, m, lo, hi)
    whole = (hi - lo) * (fa + 4.0 * fm + fb) / 6.0
    eps = cfg.quad_tol * (1.0 + abs(whole))
    return _adapt(F, lo, hi, lo, fa, hi, fb, m, fm, whole, eps, _QUAD_MAX_DEPTH)


def central_diff(F: Callable[[float], float], x: float, order: int = 1) -> float:
    """Central finite difference of first or second order at x.

    Step sizes follow the usual truncation/roundoff balance: eps^(1/3) for
    order 1 and eps^(1/4) for order 2, scaled by max(1, |x|).
    """
    if order == 1:
        h = _EPS ** (1.0 / 3.0) * max(1.0, abs(x))
        hi, lo = F(x + h), F(x - h)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise DomainError(f"finite-difference stencil not finite near x={x!r}")
        return (hi - lo) / (2.0 * h)
    if order == 2:
        h = _EPS ** 0.25 * max(1.0, abs(x))
        hi, mid, lo = F(x + h), F(x), F(x - h)
        if not (math.isfinite(hi) and math.isfinite(mid) and math.isfinite(lo)):
            raise DomainError(f"finite-difference stencil not finite near x={x!r}")
        return (hi - 2.0 * mid + lo) / (h * h)
    raise ValueError("central_diff supports order 1 and 2 only")


# ---------------------------------------------------------------------------
# Shared residual search


def _zero_runs(flags: list[bool], min_len: int) -> list[tuple[int, int]]:
    runs = []
    start = None
    for i, f in enumerate(flags + [False]):
        if f and start is None:
            start = i
        elif not f and start is not None:
            if i - start >= min_len:
                runs.append((start, i - 1))
            start = None
    return runs


def _confirmed_crossing(F: Callable[[float], float], root: float,
                        lo: float, hi: float, step: float, noise: float) -> bool:
    """True when F provably changes sign at root.

    Looks for one above-noise sample on each side, widening from step/64
    out to a full grid step (clamped to the scan range). Residuals with a
    structural non-crossing zero at an interval endpoint wobble inside the
    roundoff floor there; those candidates never produce an above-noise
    sample of the opposing sign and are rejected here.
    """

    def side(direction: float) -> float:
        for k in (64.0, 16.0, 4.0, 1.0):
            x = min(hi, max(lo, root + direction * step / k))
            v = F(x)
            if math.isfinite(v) and abs(v) > noise:
                return 1.0 if v > 0.0 else -1.0
        return 0.0

    return side(-1.0) * side(1.0) < 0.0


def fold_terms(terms: Sequence[Callable[[float], float]]) -> Callable[[float], float]:
    """The residual x -> terms[0](x) - terms[1](x) - ... - terms[-1](x).

    The subtractions run left to right, so a term that enters with a plus
    sign is passed negated: x - (-d) == x + d holds exactly in IEEE
    arithmetic.
    """
    head, tail = terms[0], terms[1:]

    def F(x: float) -> float:
        r = head(x)
        for t in tail:
            r -= t(x)
        return r

    return F


def solve_residual(terms: Sequence[Callable[[float], float]], iv: Interval,
                   cfg: SolverConfig, theorem_id: TheoremId,
                   hypothesis: bool | None = None,
                   closed: bool = False) -> list[PointResult]:
    """Find interior roots of a residual, reporting flat stretches as degenerate.

    The residual is the left fold of ``terms`` (see :func:`fold_terms`):
    terms[0] - terms[1] - ... - terms[-1]. The scan evaluates each term once
    per grid point; the same values give the residual there and the scale,
    max(1, largest finite term magnitude on the grid), against which "zero"
    is judged. Brent polishing and crossing confirmation use the same fold.
    With ``closed=True`` the scan includes the endpoints (for identities
    whose point may sit on the boundary).

    Degenerate detection runs first: if the residual is near zero on at
    least 99% of the grid, or on a long contiguous stretch of it, that
    region is reported as a single representative midpoint with
    ``degenerate=True`` rather than as a root list. Sign changes whose
    bracket values both sit inside the roundoff floor are cancellation
    noise and are discarded.
    """
    F = fold_terms(terms)
    head, tail = terms[0], terms[1:]
    margin = 0.0 if closed else None
    xs = grid_points(iv, cfg, margin)
    ys = []
    scale = 1.0
    for x in xs:
        y = head(x)
        if scale < abs(y) < math.inf:
            scale = abs(y)
        for t in tail:
            v = t(x)
            if scale < abs(v) < math.inf:
                scale = abs(v)
            y -= v
        ys.append(y)
    finite = sum(1 for y in ys if math.isfinite(y))
    if finite < 2:
        raise DomainError("residual is not finite anywhere on the scan grid")
    thr = cfg.residual_tol * scale
    noise = _NOISE_ULPS * _EPS * scale

    near = [math.isfinite(y) and abs(y) <= thr for y in ys]
    if sum(near) >= 0.99 * finite:
        mid = iv.midpoint
        return [PointResult(mid, F(mid), theorem_id, degenerate=True,
                            hypothesis_satisfied=hypothesis)]

    results: list[PointResult] = []
    run_members: set[int] = set()
    for i0, i1 in _zero_runs(near, max(3, cfg.scan_points // 100)):
        run_members.update(range(i0, i1 + 1))
        k = (i0 + i1) // 2
        results.append(PointResult(xs[k], ys[k], theorem_id, degenerate=True,
                                   hypothesis_satisfied=hypothesis))

    lo, hi = xs[0], xs[-1]
    step = xs[1] - xs[0]
    for i, y in enumerate(ys):
        # an exact grid-point zero never enters a bracket, so report it
        # directly when the sign genuinely flips across it
        if y == 0.0 and i not in run_members \
                and _confirmed_crossing(F, xs[i], lo, hi, step, noise):
            results.append(PointResult(xs[i], 0.0, theorem_id,
                                       hypothesis_satisfied=hypothesis))

    for i in range(len(xs) - 1):
        if i in run_members or (i + 1) in run_members:
            continue
        y0, y1 = ys[i], ys[i + 1]
        if not (math.isfinite(y0) and math.isfinite(y1)):
            continue
        if y0 == 0.0 or y1 == 0.0 or (y0 < 0.0) == (y1 < 0.0):
            continue
        if max(abs(y0), abs(y1)) <= noise:
            continue
        root = refine_root(F, xs[i], xs[i + 1], cfg)
        r = F(root)
        if abs(r) <= thr and _confirmed_crossing(F, root, lo, hi, step, noise):
            results.append(PointResult(root, r, theorem_id,
                                       hypothesis_satisfied=hypothesis))

    results.sort(key=lambda p: p.xi)
    return results


# ---------------------------------------------------------------------------
# Smoothness checks on expression-defined functions


def one_sided_derivative(f: Expr, x: float, cfg: SolverConfig) -> float | None:
    """Symbolic derivative value at an endpoint, or None when it blows up."""
    v = evaluate(differentiate(f), x)
    if not math.isfinite(v) or abs(v) > cfg.singular_threshold:
        return None
    return v


def differentiable_on_interior(f: Expr, iv: Interval, cfg: SolverConfig) -> bool:
    """Grid test for differentiability of f on the open interval.

    Fails when f itself or its symbolic derivative is non-finite (or the
    derivative is past cfg.singular_threshold) at any interior grid point,
    or when the argument of any abs()/sgn() inside f strictly changes sign
    there -- the symbolic derivative is blind to those kinks and jumps.
    """
    xs = grid_points(iv, cfg)
    fc = compile_fn(f)
    d1 = compile_fn(differentiate(f))
    for x in xs:
        if not math.isfinite(fc(x)):
            return False
        v = d1(x)
        if not math.isfinite(v) or abs(v) > cfg.singular_threshold:
            return False
    for arg in sign_sensitive_args(f):
        g = compile_fn(arg)
        last = 0.0  # last nonzero sign seen
        for x in xs:
            v = g(x)
            if not math.isfinite(v) or v == 0.0:
                continue
            s = 1.0 if v > 0.0 else -1.0
            if last != 0.0 and s != last:
                return False
            last = s
    return True
