"""Shared numerical kernels: grids, bracketing, root polishing, quadrature.

Every theorem solver in this package reduces to the same loop: build a
residual whose interior roots are the points claimed to exist, scan a
uniform grid for sign changes, polish each bracket, and report.
:func:`solve_residual` implements that loop once; the kernels around it
(:func:`refine_root`, :func:`integrate`, :func:`tanh_sinh`) are exposed
individually as well.

Quadrature has two rules. :func:`integrate` is adaptive Simpson: the
operator prefixes hand it the grid panels where their own step fails,
and its first step on a panel is usually enough. :func:`tanh_sinh`
takes the integrals over a whole interval (coupling constants, means,
and the sides :mod:`~mvtlab.verify` recomputes at a hundredth of the
tolerance): on integrands analytic inside the interval it needs about a
hundred samples where adaptive Simpson needs a thousand or more, and
square-root endpoints do not defeat it. Where it cannot settle (a kink,
a pole, a non-finite sample) it hands the integral to :func:`integrate`,
so those cases end as they did before it. :func:`whole_integral` is the
one rule those callers use: integrate() first for an integrand with
abs() or sgn(), tanh_sinh otherwise.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

# compile_fn is unused here but bench/tracer.py patches it
from .expr import (
    Expr, _Memo, compile_fn, compile_residual, compile_terms, differentiate, evaluate,
    sign_sensitive_args,
)

__all__ = [
    "SolverError", "DomainError", "QuadratureError", "NoRootFound", "HypothesisError",
    "TheoremId", "Interval", "SolverConfig", "DEFAULT_CONFIG", "MAX_SCAN_POINTS",
    "PointResult", "Points",
    "grid_points", "refine_root", "integrate", "tanh_sinh", "whole_integral",
    "solve_residual", "tolerance", "close",
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
    """Closed interval [a, b] with a < b, both finite, and a finite width."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got [{self.a}, {self.b}]")
        if not math.isfinite(self.b - self.a):
            raise ValueError(f"interval width b - a overflows, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


# Largest grid a SolverConfig accepts (2**20 points).
MAX_SCAN_POINTS = 2 ** 20


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Knobs shared by every solver.

    ``endpoint_margin`` is a fraction of the interval width: scans run over
    [a + m*(b-a), b - m*(b-a)] so that open-interval theorems never report
    an endpoint. A positive margin that rounds away (an interval far from 0
    and a few ulps wide) still keeps the scan at least one ulp inside, and
    an interval with no float inside raises DomainError.
    ``singular_threshold`` is the magnitude past which a derivative is
    treated as effectively infinite.
    """

    scan_points: int = 4096
    root_tol: float = 1e-12
    residual_tol: float = 1e-9
    quad_tol: float = 1e-10
    endpoint_margin: float = 1e-9
    singular_threshold: float = 1e12

    def __post_init__(self):
        # the upper cap keeps a request from building grids of gigabytes
        if not (isinstance(self.scan_points, int)
                and 8 <= self.scan_points <= MAX_SCAN_POINTS):
            raise ValueError(f"scan_points must be an integer in [8, {MAX_SCAN_POINTS}]")
        for name in ("root_tol", "residual_tol", "quad_tol", "singular_threshold"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.endpoint_margin < 0.5:
            raise ValueError("endpoint_margin must lie in [0, 0.5)")


DEFAULT_CONFIG = SolverConfig()


def tolerance(u: float, v: float, unit: float) -> float:
    """unit * max(1, |u|, |v|): how far apart u and v may lie and still agree."""
    return unit * max(1.0, abs(u), abs(v))


def close(u: float, v: float, unit: float) -> bool:
    """|u - v| <= tolerance(u, v, unit), the package's one agreement test.

    False whenever u - v is not finite: an infinite or NaN value agrees
    with nothing, itself included.
    """
    d = u - v
    return math.isfinite(d) and abs(d) <= tolerance(u, v, unit)


@dataclass(frozen=True, slots=True)
class PointResult:
    """One located point, or one representative of a continuum of them.

    ``degenerate`` marks the representative case: the residual vanished on
    (at least a stretch of) the scan grid, so every point there satisfies
    the identity and ``xi`` is just the midpoint of that stretch. The
    hypothesis flag is the :class:`Points` list's, not the point's.
    """

    xi: float
    residual: float
    theorem_id: TheoremId
    degenerate: bool = False


class Points(list):
    """The points :func:`solve_residual` located, with the hypothesis flag.

    ``hypothesis_satisfied`` is the flag its solver computed, None when the
    identity has no hypothesis or when the hypothesis could not be
    evaluated. It is carried by the list, not by each point, so a search
    finding no point still reports it.
    """

    __slots__ = ("hypothesis_satisfied",)

    def __init__(self, points=(), hypothesis_satisfied: bool | None = None):
        super().__init__(points)
        self.hypothesis_satisfied = hypothesis_satisfied


# the grids grid_points keeps, bounded in points: four of the default size
_grids = _Memo(2 ** 14, lambda key: key[1])


def grid_points(iv: Interval, cfg: SolverConfig, margin: float | None = None) -> list[float]:
    """Uniform grid of cfg.scan_points inside [a+m*(b-a), b-m*(b-a)].

    A shared, read-only list: the same interval, point count and margin
    give the same list object, from a memo of recent grids holding at most
    2^14 points, or else the newest grid alone until the next miss. So a
    request shares its margin and closed grids only up to 8,192 points.
    """
    key = (iv, cfg.scan_points, cfg.endpoint_margin if margin is None else margin)
    return _grids(key, lambda: _grid(*key))


# float indices: float * float is the interpreter's fast path, int * float a slow one
_float_indices = _Memo(2 ** 14, lambda n: n)


def _grid(iv: Interval, n: int, m: float) -> list[float]:
    lo = iv.a + m * iv.width
    hi = iv.b - m * iv.width
    if m > 0.0:
        lo, hi = max(lo, math.nextafter(iv.a, iv.b)), min(hi, math.nextafter(iv.b, iv.a))
        if lo > hi:
            raise DomainError(f"no float lies strictly between {iv.a!r} and {iv.b!r}")
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in _float_indices(n, lambda: list(map(float, range(n))))]


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
    span = hi - lo
    if x == lo or x == hi:
        # a non-finite endpoint value is replaced by a one-sided interior sample
        sgn = 1.0 if x == lo else -1.0
        for k in (1e-13, 1e-11, 1e-9, 1e-7):
            v = F(x + sgn * k * span)
            if math.isfinite(v):
                return v
    else:
        # an interior one only where F has a finite one-sided limit there (a
        # removable singularity such as sin(x)/x at 0). Two samples to the
        # left must agree: near a pole or a log singularity they differ
        # widely, and bridging those would return a finite, wrong integral.
        near, far = F(x - 1e-13 * span), F(x - 1e-11 * span)
        if math.isfinite(near) and abs(near - far) <= 1e-6 * (1.0 + abs(near)):
            return near
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
    # a panel that floats cannot split any further never meets the error
    # test (an interior pole that no sample lands on); recursing on it
    # would double the work at every level down to the depth cap
    if not a < lm < m < rm < b:
        raise QuadratureError(f"adaptive subdivision reached float resolution at x={m!r}")
    half = 0.5 * eps
    return (_adapt(F, lo, hi, a, fa, m, fm, lm, flm, sl, half, depth - 1)
            + _adapt(F, lo, hi, m, fm, b, fb, rm, frm, sr, half, depth - 1))


def integrate(F: Callable[[float], float], lo: float, hi: float,
              cfg: SolverConfig) -> float:
    """Adaptive Simpson integral of F over [lo, hi].

    The error target is ``cfg.quad_tol * (1 + |result|)`` using the initial
    whole-interval estimate for |result|. A non-finite endpoint value is
    replaced with a one-sided interior sample, so bounded integrands whose
    derivative blows up at an endpoint (sqrt, asin) still converge; an
    unbounded integrand outruns the per-level error budget and raises
    QuadratureError once the recursion passes depth 60, or once a panel
    that fails the error test is too narrow to split in floating point
    (an interior pole between samples). A non-finite
    interior sample is replaced likewise where F has a finite limit there
    (a removable singularity), and raises QuadratureError otherwise.
    Where the first Simpson sum overflows on finite samples (|F| near the
    largest float), F/16 is integrated and the result multiplied back; an
    integral that still overflows raises QuadratureError, never returns
    an infinity.
    It samples F at lo and hi itself; a caller holding those values gets
    the same result.
    """
    if lo > hi:
        raise ValueError("integrate needs lo <= hi")
    if lo == hi:
        return 0.0
    fa = _quad_sample(F, lo, lo, hi)
    fb = _quad_sample(F, hi, lo, hi)
    m = 0.5 * (lo + hi)
    fm = _quad_sample(F, m, lo, hi)
    whole = (hi - lo) * (fa + 4.0 * fm + fb) / 6.0
    scale = 1.0
    if not math.isfinite(whole):
        # Simpson's sums overflow on these finite samples: integrate F/16,
        # scaled exactly (a power of two), and multiply back
        scale, G = 16.0, F
        F = lambda x: G(x) / 16.0
        fa, fb, fm = fa / 16.0, fb / 16.0, fm / 16.0
        whole = (hi - lo) * (fa + 4.0 * fm + fb) / 6.0
    eps = cfg.quad_tol * (1.0 + abs(whole))
    v = scale * _adapt(F, lo, hi, lo, fa, hi, fb, m, fm, whole, eps, _QUAD_MAX_DEPTH)
    if not math.isfinite(v):
        raise QuadratureError(f"the integral over [{lo!r}, {hi!r}] overflows")
    return v


# tanh-sinh levels run h = 1, 1/2, ..., 2**-_TS_LEVELS; nodes lie at |t| <= _TS_T_MAX,
# past which the weights are below 3e-21
_TS_LEVELS = 6
_TS_T_MAX = 3.5


@lru_cache(maxsize=1)
def _ts_table() -> tuple[tuple[tuple[float, float], ...], ...]:
    """Per level, the (distance, weight) of each node it adds at t > 0.

    A node at t sits at x = tanh(u), u = (pi/2) sinh t, on [-1, 1]; its
    distance from the nearer endpoint, 1 - tanh(u) = 1/(e^u cosh u), is
    kept instead of x, so nodes near an endpoint suffer no cancellation.
    Level 0 adds t = 1, 2, 3; level k adds the odd multiples of 2**-k.
    """
    levels = []
    for k in range(_TS_LEVELS + 1):
        h = 2.0 ** -k
        js = range(1, int(_TS_T_MAX / h) + 1, 1 if k == 0 else 2)
        level = []
        for t in (j * h for j in js):
            u = 0.5 * math.pi * math.sinh(t)
            level.append((1.0 / (math.exp(u) * math.cosh(u)),
                          0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2))
        levels.append(tuple(level))
    return tuple(levels)


def tanh_sinh(F: Callable[[float], float], lo: float, hi: float,
              cfg: SolverConfig) -> float:
    """Tanh-sinh (double-exponential) integral of F over [lo, hi].

    The rule for whole-interval integrals: it converges exponentially on
    integrands analytic inside the interval, and algebraic endpoint
    singularities such as sqrt(1-x) do not slow it, since no node lies on
    an endpoint (Takahasi & Mori, Publ. RIMS 9, 1974). It halves the step
    from h = 1 down to 2**-6 and accepts level k >= 2 when
    |I_k - I_(k-1)| <= cfg.quad_tol * (1 + |I_k|), and when the outermost
    term on each side is that small too: an integrand unbounded at an
    endpoint (1/sqrt(x) at 0) fails that test at every level. Nodes that
    round onto an endpoint are skipped.

    Any non-finite sample, or a last level that has not settled (a kink,
    a pole no node lands on, an unbounded endpoint), hands the integral to
    :func:`integrate` at the same cfg, which returns its usual result or
    raises its usual QuadratureError.
    """
    if not lo < hi:
        return integrate(F, lo, hi, cfg)
    r = 0.5 * (hi - lo)
    s = 0.5 * math.pi * F(lo + r)  # t = 0, at the midpoint
    prev = math.nan
    for k, level in enumerate(_ts_table()):
        left = right = 0.0  # the level's outermost term on each side
        for d, w in level:
            x = lo + r * d
            if x > lo:
                left = w * F(x)
                s += left
            x = hi - r * d
            if x < hi:
                right = w * F(x)
                s += right
        est = r * s * 2.0 ** -k
        if not math.isfinite(est):
            break
        eps = cfg.quad_tol * (1.0 + abs(est))
        if k >= 2 and abs(est - prev) <= eps and r * max(abs(left), abs(right)) <= eps:
            return est
        prev = est
    return integrate(F, lo, hi, cfg)


def whole_integral(F: Callable[[float], float], lo: float, hi: float,
                   cfg: SolverConfig, *trees: Expr) -> float:
    """The integral of F over [lo, hi], where F is built from ``trees``.

    The one rule for an integral over a whole interval: :func:`integrate`
    when a tree holds abs() or sgn(), and :func:`tanh_sinh` otherwise.
    Tanh-sinh does not settle on a kink inside the interval, and hands
    the integral to integrate() after all its levels (abs(x-0.3) over
    [0, 1]: 533 samples in all, where integrate() alone takes 105).
    Where integrate() raises QuadratureError (sqrt(abs(x-1)) at a
    tolerance of 1e-12: the square root at 1 defeats it), tanh_sinh
    takes the integral as it would without the kink, and ends as it does.
    """
    if any(map(sign_sensitive_args, trees)):
        with suppress(QuadratureError):
            return integrate(F, lo, hi, cfg)
    return tanh_sinh(F, lo, hi, cfg)


# ---------------------------------------------------------------------------
# Shared residual search


def _flips(flags: list[bool]) -> list[int]:
    """Every i with flags[i] != flags[i + 1], found by list.index hops, one a flip."""
    out, i = [], 0
    with suppress(ValueError):
        while True:
            i = flags.index(not flags[i], i + 1)
            out.append(i - 1)
    return out


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


def solve_residual(terms: Sequence[Expr | Callable[[float], float]],
                   iv: Interval,
                   cfg: SolverConfig, theorem_id: TheoremId,
                   hypothesis: bool | None = None,
                   closed: bool = False,
                   forced_zero: float | None = None) -> Points:
    """Find interior roots of a residual, reporting flat stretches as degenerate.

    The residual is terms[0] - terms[1] - ... - terms[-1], the subtractions
    running left to right, so a term that enters with a plus sign is passed
    negated: x - (-d) == x + d holds exactly in IEEE arithmetic. The terms
    are expressions or callables, in any mix, and
    :func:`~mvtlab.expr.compile_residual` folds them in one generated loop
    that keeps only the residual, its scale and its least magnitude. A
    callable that has a ``column`` method (an operator value, or a solver's
    term over one) gives its whole grid column, ``t.column(xs)``, which must
    equal ``[t(x) for x in xs]``; any other callable is called once per grid
    point. The scale, max(1, largest finite term magnitude on the grid), is
    what "zero" is judged against. Brent polishing and crossing
    confirmation run the same loop on a one-point grid. With
    ``closed=True`` the scan includes the endpoints (for identities whose
    point may sit on the boundary).

    Degenerate detection runs first: if the residual is near zero on at
    least 99% of the grid, or on a long contiguous stretch of it, that
    region is reported as a single representative midpoint with
    ``degenerate=True`` rather than as a root list. ``forced_zero`` names
    an endpoint (iv.a or iv.b) where the residual vanishes to high order
    whatever the function (the alternating sums at a): a stretch that
    touches it is that trivial zero, and is neither reported nor searched
    for sign changes. Sign changes whose bracket values both sit inside
    the roundoff floor are cancellation noise and are discarded. The
    :class:`Points` returned carry ``hypothesis``, so an empty result
    still reports it.
    """
    xs = grid_points(iv, cfg, 0.0 if closed else None)
    scan = compile_residual(terms)
    ys, scale, least = scan(xs)

    def F(x: float) -> float:
        return scan((float(x),))[0][0]
    finite = sum(map(math.isfinite, ys))
    if finite < 2:
        raise DomainError("residual is not finite anywhere on the scan grid")
    thr = cfg.residual_tol * scale
    noise = _NOISE_ULPS * _EPS * scale

    # finite and |y| <= thr; capping thr at the largest float keeps inf out
    # even when thr itself overflowed. No point is when least |y| is above thr.
    near = list(map(min(thr, sys.float_info.max).__ge__, map(abs, ys))) if least <= thr else []
    if near.count(True) >= 0.99 * finite:
        mid = iv.midpoint
        return Points([PointResult(mid, F(mid), theorem_id, degenerate=True)], hypothesis)

    results = Points(hypothesis_satisfied=hypothesis)
    lo, hi = xs[0], xs[-1]
    step = xs[1] - xs[0]
    min_len = max(3, cfg.scan_points // 100)
    run_members: set[int] = set()
    # near[i0:i1] is a stretch of near points, and a run when it is long
    ends = _flips([False, *near, False])
    for i0, i1 in zip(ends[::2], ends[1::2]):
        if i1 - i0 < min_len:
            # an exact grid-point zero never enters a bracket, so report it
            # directly when the sign genuinely flips across it; thr >= 0, so it is near
            for i in range(i0, i1):
                if ys[i] == 0.0 and _confirmed_crossing(F, xs[i], lo, hi, step, noise):
                    results.append(PointResult(xs[i], 0.0, theorem_id))
            continue
        run_members.update(range(i0, i1))
        if (i0 == 0 and forced_zero == iv.a) or (i1 == len(xs) and forced_zero == iv.b):
            continue
        k = (i0 + i1 - 1) // 2
        results.append(PointResult(xs[k], ys[k], theorem_id, degenerate=True))

    # a bracket needs y < 0 on exactly one side; the loop checks the rest
    for i in _flips([y < 0.0 for y in ys]):
        if i in run_members or (i + 1) in run_members:
            continue
        y0, y1 = ys[i], ys[i + 1]
        if not (math.isfinite(y0) and math.isfinite(y1)):
            continue
        if y0 == 0.0 or y1 == 0.0:
            continue
        if max(abs(y0), abs(y1)) <= noise:
            continue
        root = refine_root(F, xs[i], xs[i + 1], cfg)
        r = F(root)
        if abs(r) <= thr and _confirmed_crossing(F, root, lo, hi, step, noise):
            results.append(PointResult(root, r, theorem_id))

    results.sort(key=lambda p: p.xi)
    return results


# ---------------------------------------------------------------------------
# Smoothness checks on expression-defined functions


def one_sided_derivative(f: Expr, x: float, cfg: SolverConfig) -> float | None:
    """f'(x) from the symbolic derivative at exactly x, or None when it blows up.

    The step inward past an abs()/sgn() kink is `generalized.one_sided_slope`'s.
    """
    v = evaluate(differentiate(f), x)
    if not math.isfinite(v) or abs(v) > cfg.singular_threshold:
        return None
    return v


def differentiable_on_interior(f: Expr, iv: Interval, cfg: SolverConfig) -> bool:
    """Grid test for differentiability of f on the open interval.

    Fails when f itself or its symbolic derivative is non-finite (or the
    derivative is past cfg.singular_threshold) at any interior grid point,
    or when the argument of any abs()/sgn() inside f strictly changes sign
    there, that is when its column holds finite nonzero values of both
    signs -- the symbolic derivative is blind to those kinks and jumps.
    """
    xs = grid_points(iv, cfg)
    # the arguments are subtrees of f: their columns cost one append a point
    grid = compile_terms((f, differentiate(f), *sign_sensitive_args(f)))
    fv, dv, *args = grid(xs)
    if not (all(map(math.isfinite, fv)) and all(map(math.isfinite, dv))
            and max(map(abs, dv)) <= cfg.singular_threshold):
        return False
    inf = math.inf
    return not any(any(0.0 < v < inf for v in col) and any(-inf < v < 0.0 for v in col)
                   for col in args)
