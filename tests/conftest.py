"""Acceptance scoreboard shared between test_acceptance and the reporter,
and helpers shared between test modules, among them ``substitute`` (a
tree with x replaced) and ``central_diff`` (a finite-difference oracle),
which nothing outside the tests uses.

test_acceptance records one entry per headline check; the hook below prints
them after the run so every session ends with a PASS/FAIL line per check.
"""

import contextlib
import math
import signal
import sys

from mvtlab.expr import Bin, Call, Const, Expr, Neg, Var, _postorder
from mvtlab.numerics import DomainError

ACCEPTANCE: list[tuple[str, bool]] = []


def record(label: str, ok: bool) -> None:
    ACCEPTANCE.append((label, ok))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance checks")
    for label, ok in ACCEPTANCE:
        terminalreporter.write_line(("PASS" if ok else "FAIL") + "  " + label)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def deep_abs_tree(depth):
    """-abs(-abs(...abs(x-0.5)...)): ``depth`` levels of abs and Neg over x-0.5."""
    e = Bin("-", Var(), Const(0.5))
    for i in range(depth):
        e = Neg(e) if i % 2 else Call("abs", e)
    return e


def substitute(e: Expr, replacement: Expr) -> Expr:
    """Replace every occurrence of the variable with ``replacement``.

    Each distinct node of ``e`` is copied once, so the copy shares what
    ``e`` shares.
    """
    new: dict[int, Expr] = {}
    for node in _postorder((e,)):
        kind = type(node)
        if kind is Const:
            out = node
        elif kind is Var:
            out = replacement
        elif kind is Neg:
            out = Neg(new[id(node.child)])
        elif kind is Bin:
            out = Bin(node.op, new[id(node.left)], new[id(node.right)])
        else:
            out = Call(node.fn, new[id(node.arg)])
        new[id(node)] = out
    return new[id(e)]


def central_diff(F, x: float, order: int = 1) -> float:
    """Central finite difference of first or second order at x.

    Step sizes follow the usual truncation/roundoff balance: eps^(1/3) for
    order 1 and eps^(1/4) for order 2, scaled by max(1, |x|).
    """
    eps = sys.float_info.epsilon
    if order == 1:
        h = eps ** (1.0 / 3.0) * max(1.0, abs(x))
        hi, lo = F(x + h), F(x - h)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise DomainError(f"finite-difference stencil not finite near x={x!r}")
        return (hi - lo) / (2.0 * h)
    if order == 2:
        h = eps ** 0.25 * max(1.0, abs(x))
        hi, mid, lo = F(x + h), F(x), F(x - h)
        if not (math.isfinite(hi) and math.isfinite(mid) and math.isfinite(lo)):
            raise DomainError(f"finite-difference stencil not finite near x={x!r}")
        return (hi - 2.0 * mid + lo) / (h * h)
    raise ValueError("central_diff supports order 1 and 2 only")
