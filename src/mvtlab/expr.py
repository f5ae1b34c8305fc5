"""Expression trees for real functions of one variable.

Function text is parsed by recursive descent into an immutable AST that can
be evaluated on the extended real line, differentiated symbolically to any
order, simplified, and printed back to parseable text. ``evaluate`` walks
the tree once, for a single point. For many points, one lowering turns
trees into generated straight-line Python that evaluates each distinct
subexpression once per point: ``compile_fn`` wraps one tree as a callable
(quadrature, endpoint values), ``compile_terms`` wraps the terms of a
residual as a whole-grid loop plus their difference at one point (the
grid scan and root polishing), and ``compile_panels`` wraps the
integrands of running integrals as one loop that takes one Simpson step
over every pair of grid panels (operator prefix builds), with
``compile_fn``'s callables as its point functions. Input nested deeper
than MAX_DEPTH levels is rejected by the parser.

A derivative order is built in one pass (``_d``): every node it makes
goes through simplify's rule for its kind, with its children already
simplified, and each distinct subtree of the input, by identity, is
simplified once and differentiated once. The textbook rules repeat their
operands (the product rule names u and v twice), so the result is a tree
whose repeated subtrees are shared objects: the order-8 derivative of
exp(sin(x))*ln(x+2) has 291,897 positions but 11,048 node objects. The
tree equals the one simplify would make of the rules' plain copy, and
everything that reads trees visits each distinct node once, except the
recursive ``unparse``, ``substitute``, equality and hashing.

Each node memoizes its own first derivative (``differentiate``) and its
compiled callable (``compile_fn``) in two slots outside its fields, so every
consumer of one tree shares one derivative chain and one compile per tree.
The memo lives exactly as long as the node: a request that parses fresh
trees starts with none, and equality, hashing, printing, pickling and
copying see only the fields.

Generated code names a tree's constants ``c0, c1, ...`` by position and
reads their values from the function's globals, so trees of one shape
lower to the same source text whatever their coefficients. Each source
text is compiled once per process: ``_code``, a :class:`_Memo` bounded by
the total length of the sources it holds (``_CODE_MEMO`` characters),
maps it to its code object, which each compile function runs in a fresh
copy of the globals holding that tree's own constants. A new tree
therefore always gets new functions, and the same source gives the same
code. The same memo class keeps the scan grids
(:func:`~mvtlab.numerics.grid_points`), bounded in points.

One iterative walk, ``_walk``, lists a tree's distinct nodes for the
parser's depth check, :func:`sign_sensitive_args` and the CLI's endpoint
check, so those take a tree of any depth.

Grammar (no implicit multiplication; unary minus binds tighter than ``^``,
which is right-associative)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := NUMBER | 'x' | 'pi' | 'e' | NAME '(' expr ')' | '(' expr ')'

Evaluation follows IEEE-style propagation: division by zero yields a signed
infinity, out-of-domain function arguments yield nan, and nan is absorbing
through every operation (including ``1^nan``).
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

__all__ = [
    "Expr", "Const", "Var", "Neg", "Bin", "Call",
    "ParseError", "FUNCTIONS", "MAX_DEPTH",
    "parse", "unparse", "evaluate", "compile_fn", "compile_terms", "compile_panels",
    "differentiate", "simplify", "substitute", "sign_sensitive_args",
]

FUNCTIONS = ("sin", "cos", "tan", "asin", "acos", "atan",
             "exp", "ln", "sqrt", "abs", "sgn")

_CONSTANTS = {"pi": math.pi, "e": math.e}

# Deepest expression parse() accepts (see parse).
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base node. All nodes are immutable, hashable, and comparable."""

    # memo slots, set once by differentiate and compile_fn (see the module
    # docstring); they are not dataclass fields
    __slots__ = ("_derivative", "_compiled")

    def __add__(self, other: Expr | float) -> Expr:
        return Bin("+", self, _coerce(other))

    def __radd__(self, other: Expr | float) -> Expr:
        return Bin("+", _coerce(other), self)

    def __sub__(self, other: Expr | float) -> Expr:
        return Bin("-", self, _coerce(other))

    def __rsub__(self, other: Expr | float) -> Expr:
        return Bin("-", _coerce(other), self)

    def __mul__(self, other: Expr | float) -> Expr:
        return Bin("*", self, _coerce(other))

    def __rmul__(self, other: Expr | float) -> Expr:
        return Bin("*", _coerce(other), self)

    def __truediv__(self, other: Expr | float) -> Expr:
        return Bin("/", self, _coerce(other))

    def __rtruediv__(self, other: Expr | float) -> Expr:
        return Bin("/", _coerce(other), self)

    def __pow__(self, other: Expr | float) -> Expr:
        return Bin("^", self, _coerce(other))

    def __neg__(self) -> Expr:
        return Neg(self)

    def __str__(self) -> str:
        return unparse(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    pass


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True, slots=True)
class Bin(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    fn: str  # element of FUNCTIONS
    arg: Expr


def _coerce(v: Expr | float) -> Expr:
    if isinstance(v, Expr):
        return v
    return Const(float(v))


# ---------------------------------------------------------------------------
# Extended-real arithmetic helpers. They define the semantics: evaluate()
# calls them, and generated code (compile_fn, compile_terms) calls them
# everywhere except on the ranges where they reduce to one plain operation.

_NAN = math.nan
_INF = math.inf


def _div(num: float, den: float) -> float:
    if math.isnan(num) or math.isnan(den):
        return _NAN
    if den == 0.0:
        if num == 0.0:
            return _NAN
        same = (num > 0.0) == (math.copysign(1.0, den) > 0.0)
        return _INF if same else -_INF
    return num / den


def _pow(base: float, exp: float) -> float:
    if math.isnan(base) or math.isnan(exp):
        return _NAN
    # negative base is real only for integer exponents
    if base < 0.0 and math.isfinite(exp) and exp != math.floor(exp):
        return _NAN
    if base == 0.0 and exp < 0.0:
        return _INF
    try:
        return math.pow(base, exp)
    except OverflowError:
        if base < 0.0 and math.fmod(exp, 2.0) == 1.0:
            return -_INF
        return _INF
    except ValueError:
        return _NAN


def _ln(v: float) -> float:
    if math.isnan(v) or v < 0.0:
        return _NAN
    if v == 0.0:
        return -_INF
    if v == _INF:
        return _INF
    return math.log(v)


def _sgn(v: float) -> float:
    if math.isnan(v):
        return _NAN
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


def _guard(fn: Callable[[float], float]) -> Callable[[float], float]:
    # math.* raises ValueError out of domain and OverflowError past the
    # float range; map those onto nan / +inf
    def wrapped(v: float) -> float:
        if math.isnan(v):
            return _NAN
        try:
            return fn(v)
        except ValueError:
            return _NAN
        except OverflowError:
            return _INF
    return wrapped


_FN_EVAL: dict[str, Callable[[float], float]] = {
    "sin": _guard(math.sin),
    "cos": _guard(math.cos),
    "tan": _guard(math.tan),
    "asin": _guard(math.asin),
    "acos": _guard(math.acos),
    "atan": _guard(math.atan),
    "exp": _guard(math.exp),
    "ln": _ln,
    "sqrt": _guard(math.sqrt),
    "abs": abs,
    "sgn": _sgn,
}


def _fold_bin(op: str, a: float, b: float) -> float:
    """The binary operator ``op`` (one of + - * / ^) on two values."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return _div(a, b)
    return _pow(a, b)


def evaluate(e: Expr, x: float) -> float:
    """Evaluate ``e`` at ``x`` on the extended real line (nan = undefined).

    Each distinct node, by identity, is evaluated once per call, so a tree
    whose subtrees are shared (a derivative's are) costs its distinct
    nodes, not its positions.
    """
    return _evaluate(e, x, {})


def _evaluate(node: Expr, x: float, memo: dict[int, float]) -> float:
    # the memo is passed in, not closed over, for the reason _Step gives
    kind = type(node)
    if kind is Const:
        return node.value
    if kind is Var:
        return float(x)
    v = memo.get(id(node))
    if v is None:
        if kind is Neg:
            v = -_evaluate(node.child, x, memo)
        elif kind is Bin:
            v = _fold_bin(node.op, _evaluate(node.left, x, memo),
                          _evaluate(node.right, x, memo))
        elif kind is Call:
            v = _FN_EVAL[node.fn](_evaluate(node.arg, x, memo))
        else:
            raise TypeError(f"not an Expr node: {node!r}")
        memo[id(node)] = v
    return v


# Names the generated code reads from its globals. Locals are x, t0, t1, ...
# (and xs, col0, put0, ... in grid loops), constants c0, c1, ..., so none
# of them can shadow these.
_CODEGEN_GLOBALS = {"__builtins__": {}, "float": float, "_div": _div, "_pow": _pow,
                    **{f"fn_{name}": fn for name, fn in _FN_EVAL.items()},
                    "m_sin": math.sin, "m_cos": math.cos, "m_tan": math.tan,
                    "m_asin": math.asin, "m_acos": math.acos, "m_atan": math.atan,
                    "m_exp": math.exp, "m_ln": math.log, "m_sqrt": math.sqrt}

# Argument ranges on which the bare math function returns what the guarded
# helper in _FN_EVAL returns: inside them math raises nothing and the
# helper's special cases do not apply. Generated code calls the math
# function there and the helper everywhere else. 1e999 reads as inf.
_FAST_RANGE = {
    "sin": "-1e999 < {0} < 1e999", "cos": "-1e999 < {0} < 1e999",
    "tan": "-1e999 < {0} < 1e999", "atan": "-1e999 < {0} < 1e999",
    "asin": "-1.0 <= {0} <= 1.0", "acos": "-1.0 <= {0} <= 1.0",
    "exp": "-1e999 < {0} < 709.0",
    "ln": "0.0 < {0} < 1e999",
    "sqrt": "0.0 <= {0} < 1e999",
}


def _lower_pow(a: str, b: str, exponent: Expr) -> str:
    # a ** k for a constant integer k in [1, 1023] equals math.pow(a, k)
    # (so _pow) bit for bit while |a| < 2^(1023 // k), where a^k cannot
    # overflow; nan, inf and larger bases take _pow
    k = exponent.value if type(exponent) is Const else 0.0
    if 1.0 <= k <= 1023.0 and k == math.floor(k):
        k = int(k)
        lim = repr(2.0 ** (1023 // k))
        return f"{a} ** {k} if -{lim} < {a} < {lim} else _pow({a}, {b})"
    return f"_pow({a}, {b})"


def _lower(roots: Sequence[Expr], glb: dict, var: str = "float(x)",
           tag: str = "") -> tuple[list[str], list[str]]:
    """Straight-line statements that compute every root, and each root's name.

    The statements read the variable as ``var`` and assign one local per
    distinct subexpression across all roots, so subtrees that roots share
    (f and its derivatives share many) are computed once. Constants are
    added to ``glb``. Every name ends in ``tag``, so lowerings that share
    one ``glb`` (or one function body) need distinct tags. The walk uses
    an explicit stack, so any depth lowers.
    """
    lines: list[str] = []
    name_of: dict[int, str] = {}   # id(node) -> local or constant name
    by_key: dict[tuple, str] = {}  # structural key -> local or constant name
    # post-order: a node is pushed once unready, then again ready above its
    # children, and lowered when popped ready
    stack: list[tuple[Expr, bool]] = [(r, False) for r in reversed(roots)]
    while stack:
        node, ready = stack.pop()
        if id(node) in name_of:
            continue
        kind = type(node)
        # keys hold the children's names, never the nodes: hashing a frozen
        # dataclass walks its whole subtree
        if kind is Bin:
            if not ready:
                stack += ((node, True), (node.right, False), (node.left, False))
                continue
            a, b = name_of[id(node.left)], name_of[id(node.right)]
            key = (node.op, a, b)
        elif kind is Neg or kind is Call:
            child = node.child if kind is Neg else node.arg
            if not ready:
                stack += ((node, True), (child, False))
                continue
            a = name_of[id(child)]
            key = ("neg" if kind is Neg else node.fn, a)
        elif kind is Const:
            # repr keeps 0.0 and -0.0 apart, which == would merge
            key = ("const", repr(node.value))
        elif kind is Var:
            key = ("x",)
        else:
            raise TypeError(f"not an Expr node: {node!r}")
        name = by_key.get(key)
        if name is None:
            if kind is Const:
                name = f"c{len(by_key)}{tag}"
                glb[name] = node.value
            else:
                name = f"t{len(by_key)}{tag}"
                if kind is Var:
                    rhs = var
                elif kind is Neg:
                    rhs = f"-{a}"
                elif kind is Call:
                    fast = _FAST_RANGE.get(node.fn)
                    rhs = f"fn_{node.fn}({a})"
                    if fast is not None:
                        rhs = f"m_{node.fn}({a}) if {fast.format(a)} else {rhs}"
                elif node.op in "+-*":
                    rhs = f"{a} {node.op} {b}"
                elif node.op == "/":
                    # a nonzero (or nan) divisor is where _div is plain a / b
                    rhs = f"{a} / {b} if {b} else _div({a}, {b})"
                else:
                    rhs = _lower_pow(a, b, node.right)
                lines.append(f"{name} = {rhs}")
            by_key[key] = name
        name_of[id(node)] = name
    return lines, [name_of[id(r)] for r in roots]


_CODE_MEMO = 2 ** 17  # characters of generated source whose code objects _code keeps


class _Memo:
    """key -> value, least recently used first, bounded by total size.

    ``size(key)`` is an entry's size. The total size held stays within
    ``bound``, except that the newest entry is always kept: an entry larger
    than the bound is still made, and stays shared until the next miss.
    """

    def __init__(self, bound: int, size: Callable[[Hashable], int]):
        self.bound, self.size = bound, size
        self.held = 0  # total size of the entries in items
        self.items: OrderedDict = OrderedDict()

    def __call__(self, key: Hashable, make: Callable[[], object]):
        value = self.items.get(key)
        if value is not None:
            self.items.move_to_end(key)
            return value
        value = self.items[key] = make()
        self.held += self.size(key)
        while self.held > self.bound and len(self.items) > 1:
            self.held -= self.size(self.items.popitem(last=False)[0])
        return value


# Source text -> code object, sized by the source's length. The compile
# functions' sources begin with distinct ``def`` lines, so they never meet.
_code = _Memo(_CODE_MEMO, len)


def _run(src: str, kind: str, glb: dict) -> None:
    """Run ``src``'s code, compiled once per process, into ``glb``."""
    exec(_code(src, lambda: compile(src, f"<mvtlab.expr.{kind}>", "exec")), glb)


def _indent(lines: list[str], depth: int) -> str:
    pad = "    " * depth
    return "".join(f"{pad}{line}\n" for line in lines)


def compile_fn(e: Expr) -> Callable[[float], float]:
    """Build a plain callable for ``e``.

    Semantics are identical to :func:`evaluate`, bit for bit. The tree is
    lowered to the source of one straight-line Python function with a
    local variable per distinct subexpression, so a subtree that a
    derivative repeats many times is evaluated once per call, and a call
    costs no per-node dispatch. Division, integer powers and the math
    functions run inline where the guarded helper provably gives the same
    result, and call the helper otherwise. :func:`compile_terms` shares
    the lowering and evaluates several trees over a whole grid.

    The callable is memoized on ``e``: every later call with the same node
    object returns the same callable, for as long as the node lives. A
    tree of the same shape, whatever its constants, reuses the code object
    from the process-wide source memo (see the module docstring) and gets
    a new callable over its own constants.
    """
    fn = getattr(e, "_compiled", None)
    if fn is None:
        glb = dict(_CODEGEN_GLOBALS)
        lines, (name,) = _lower((e,), glb)
        src = "def compiled(x):\n" + _indent(lines, 1) + f"    return {name}\n"
        _run(src, "compile_fn", glb)
        fn = glb["compiled"]
        object.__setattr__(e, "_compiled", fn)  # the node is frozen
    return fn


def compile_terms(exprs: Sequence[Expr]) -> tuple[
        Callable[[Iterable[float]], list[list[float]]], Callable[[float], float]]:
    """Build ``(grid, fold)`` for the terms of a residual.

    ``grid(xs)`` evaluates every expression at every x of ``xs`` in one
    generated loop and returns one list of values per expression; a
    subexpression common to several expressions is computed once per
    point. ``fold(x)`` is exprs[0] - exprs[1] - ... - exprs[-1] at one x,
    the subtractions running left to right (see
    :func:`~mvtlab.numerics.fold_terms`), computed by ``grid`` on that one
    point. Values equal :func:`evaluate` bit for bit. Both functions come
    from one code object over one copy of the lowered code: ``fold`` serves
    only the few dozen evaluations of root polishing, so it reuses ``grid``
    rather than carrying a copy of its own. The code is compiled once per
    source text per process (see the module docstring), so terms of one
    shape share it whatever their constants. Its sibling
    :func:`compile_panels` evaluates the integrands of running integrals
    panel by panel.
    """
    glb = dict(_CODEGEN_GLOBALS)
    lines, names = _lower(exprs, glb)
    cols = [f"col{i}" for i in range(len(names))]
    src = ("def grid(xs):\n"
           + _indent([f"{c} = []" for c in cols]
                     + [f"put{i} = {c}.append" for i, c in enumerate(cols)], 1)
           + "    for x in xs:\n"
           + _indent(lines + [f"put{i}({n})" for i, n in enumerate(names)], 2)
           + f"    return [{', '.join(cols)}]\n"
           + "def fold(x):\n"
           + "    at = grid((x,))\n"
           + f"    return {' - '.join(f'at[{i}][0]' for i in range(len(cols)))}\n")
    _run(src, "compile_terms", glb)
    return glb["grid"], glb["fold"]


_Fn = Expr | Callable[[float], float]


def compile_panels(integrands: Sequence[_Fn], pointwise: Sequence[_Fn | None]) -> tuple[
        Callable, list[Callable[[float], float]], list[Callable[[float], float] | None]]:
    """Build ``(panels, q_points, p_points)`` for a running-integral build.

    ``integrands[k]`` and ``pointwise[k]`` (None for none) are expressions
    or plain callables; callables enter the generated code as globals it
    calls. ``q_points`` and ``p_points`` hold a point function for each:
    the expression's own memoized :func:`compile_fn` callable, or the
    callable itself (None where there is no pointwise part).

    ``panels(ends, tol, fallback)`` is one generated loop over the panels
    [ends[i-1], ends[i]]. It takes one Simpson step over each pair of
    panels [a, b], [b, c] from ends[1] on: it evaluates the integrands at
    the two panel midpoints, and the integrands and pointwise parts
    together at b and at c, so a subexpression they share is computed
    once; a pair's values at a are the previous pair's at c. Each
    integrand's step compares Simpson over [a, c] on the nodes with
    Simpson over each panel on its midpoint, with the error test of
    :func:`~mvtlab.numerics.integrate` at tolerance ``tol``. A pair that
    passes it with a finite result adds that result, Richardson-corrected,
    and reads the running sum at b with the left panel's Simpson value; any
    other pair, the first panel [ends[0], ends[1]] and an unpaired last
    panel are integrated panel by panel as ``fallback(k, lo, hi)``. It
    returns the prefixes, each integrand's running sum at every end past
    ends[0], and the tables, that sum plus the pointwise part there (the
    prefix where there is none). Samples equal the point functions' bit
    for bit. Like its sibling :func:`compile_terms`, which evaluates a
    residual's terms over a grid, it compiles each source text once per
    process.
    """
    glb = dict(_CODEGEN_GLOBALS, abs=abs, len=len, zip=zip)
    nq = len(integrands)
    fns = [*integrands, *pointwise]  # pointwise part k is fns[nq + k]
    for j, fn in enumerate(fns):
        if fn is not None and not isinstance(fn, Expr):
            glb[f"ext{j}"] = fn

    def lower(js: Iterable[int], x: str, tag: str) -> tuple[list[str], list[str | None]]:
        # statements computing fns[j] at x for each j of js, and the names
        # of the values (None for a missing pointwise part); the ends are
        # floats, so expressions read x as it is
        js = [j for j in js if fns[j] is not None]
        lines, names = _lower([fns[j] for j in js if isinstance(fns[j], Expr)], glb, x, tag)
        exprs = iter(names)
        out: list[str | None] = [None] * len(fns)
        for j in js:
            if isinstance(fns[j], Expr):
                out[j] = next(exprs)
            else:
                out[j] = f"e{j}{tag}"
                lines.append(f"e{j}{tag} = ext{j}({x})")
        return lines, out

    qs, ps = range(nq), range(nq, len(fns))
    at_l, fl = lower(qs, "ml", "_ml")
    at_b, fb = lower(range(len(fns)), "b", "_b")
    at_r, fr = lower(qs, "mr", "_mr")
    at_c, fc = lower(range(len(fns)), "c", "_c")
    at_t, ft = lower(ps, "c", "_t")
    head = ["a = ends[0]", "c = ends[1]", *at_c]
    body = ["ml = 0.5 * (a + b)", "mr = 0.5 * (b + c)",
            "wl = b - a", "wr = c - b", "w = c - a", *at_l, *at_b, *at_r, *at_c]
    tail = ["c = ends[-1]", *at_t]
    tables = []
    for k in qs:
        head += [f"prefix{k} = []", f"put{k} = prefix{k}.append",
                 f"acc{k} = fallback({k}, a, c)", f"put{k}(acc{k})", f"fa{k} = {fc[k]}"]
        # integrate()'s step over [a, c], with the panels for its halves
        body += [f"whole = w * (fa{k} + 4.0 * {fb[k]} + {fc[k]}) / 6.0",
                 f"sl = wl * (fa{k} + 4.0 * {fl[k]} + {fb[k]}) / 6.0",
                 f"sr = wr * ({fb[k]} + 4.0 * {fr[k]} + {fc[k]}) / 6.0",
                 "delta = sl + sr - whole",
                 "part = sl + sr + delta / 15.0",
                 # every sample enters sl or sr with a positive weight (or
                 # makes it nan), so a finite part means finite samples
                 # and finite sl and sr
                 "if abs(delta) <= 15.0 * (tol * (1.0 + abs(whole)))"
                 " and part - part == 0.0:",
                 f"    mid{k} = acc{k} + sl",
                 f"    acc{k} += part",
                 "else:",
                 f"    mid{k} = acc{k} = acc{k} + fallback({k}, a, b)",
                 f"    acc{k} += fallback({k}, b, c)",
                 f"put{k}(mid{k})",
                 f"put{k}(acc{k})",
                 f"fa{k} = {fc[k]}"]
        tail += [f"acc{k} += fallback({k}, a, c)", f"put{k}(acc{k})"]
        if fc[nq + k] is None:
            tables.append(f"prefix{k}")
        else:
            head += [f"table{k} = []", f"tput{k} = table{k}.append",
                     f"tput{k}({fc[nq + k]} + acc{k})"]
            body += [f"tput{k}({fb[nq + k]} + mid{k})", f"tput{k}({fc[nq + k]} + acc{k})"]
            tail.append(f"tput{k}({ft[nq + k]} + acc{k})")
            tables.append(f"table{k}")
    body.append("a = c")
    src = ("def panels(ends, tol, fallback):\n" + _indent(head + ["a = c"], 1)
           + "    for b, c in zip(ends[2::2], ends[3::2]):\n" + _indent(body, 2)
           + "    if len(ends) % 2:  # an unpaired last panel\n" + _indent(tail, 2)
           + f"    return [{', '.join(f'prefix{k}' for k in qs)}], [{', '.join(tables)}]\n")
    _run(src, "compile_panels", glb)
    points = [compile_fn(fn) if isinstance(fn, Expr) else fn for fn in fns]
    return glb["panels"], points[:nq], points[nq:]


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    """Raised on malformed input. ``offset`` indexes into the source text."""

    def __init__(self, offset: int, message: str, expected: str | None = None):
        self.offset = offset
        self.message = message
        self.expected = expected
        hint = f", expected {expected}" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.nesting = 0  # open parentheses, calls, unary minuses and powers

    def descend(self) -> None:
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(self.pos, f"expression nested deeper than {MAX_DEPTH} levels")

    def skip_ws(self) -> None:
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.source):
            return ""
        return self.source[self.pos]

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(self.pos, f"unexpected {self.describe()}", expected=repr(ch))
        self.pos += 1

    def describe(self) -> str:
        if self.pos >= len(self.source):
            return "end of input"
        return repr(self.source[self.pos])

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.source):
            raise ParseError(self.pos, f"trailing input starting with {self.describe()}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            ch = self.peek()
            if ch == "+" or ch == "-":
                self.pos += 1
                e = Bin(ch, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            ch = self.peek()
            if ch == "*" or ch == "/":
                self.pos += 1
                e = Bin(ch, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        e = self.unary()
        if self.peek() == "^":
            self.pos += 1
            self.descend()
            e = Bin("^", e, self.factor())
            self.nesting -= 1
        return e

    def unary(self) -> Expr:
        if self.peek() == "-":
            self.pos += 1
            self.descend()
            e = Neg(self.unary())
            self.nesting -= 1
            return e
        return self.atom()

    def atom(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            self.descend()
            e = self.expr()
            self.expect(")")
            self.nesting -= 1
            return e
        m = _NUMBER_RE.match(self.source, self.pos)
        if m:
            self.pos = m.end()
            return Const(float(m.group()))
        m = _NAME_RE.match(self.source, self.pos)
        if m:
            name = m.group()
            start = self.pos
            self.pos = m.end()
            if name == "x":
                return Var()
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name])
            if name in _FN_EVAL:
                if self.peek() != "(":
                    raise ParseError(self.pos, f"function {name!r} needs an argument",
                                     expected="'('")
                self.pos += 1
                self.descend()
                arg = self.expr()
                self.expect(")")
                self.nesting -= 1
                return Call(name, arg)
            raise ParseError(start, f"unknown name {name!r}")
        raise ParseError(self.pos, f"unexpected {self.describe()}",
                         expected="a number, name, or '('")


def _walk(e: Expr) -> Iterator[tuple[Expr, int]]:
    """Every distinct node of ``e`` with its depth (the root's is 1), in pre-order.

    A subtree shared by several parents (a derivative shares many) is
    walked once, at its first position. The walk keeps an explicit stack,
    so a tree of any depth walks.
    """
    stack = [(e, 1)]
    seen: set[int] = set()
    while stack:
        node, d = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node, d
        kind = type(node)
        if kind is Bin:
            stack += ((node.right, d + 1), (node.left, d + 1))
        elif kind is Neg:
            stack.append((node.child, d + 1))
        elif kind is Call:
            stack.append((node.arg, d + 1))


def parse(source: str) -> Expr:
    """Parse function text in the single variable ``x`` into an AST.

    Raises ParseError for malformed text, and for text nested deeper than
    MAX_DEPTH levels: parenthesised, or as a tree (a sum of MAX_DEPTH + 1
    terms is a tree that deep). Differentiation, simplification and
    printing recurse over the tree, and the cap keeps them, and the
    parser itself, well inside Python's recursion limit.
    """
    e = _Parser(source).parse()
    if any(d > MAX_DEPTH for _, d in _walk(e)):
        raise ParseError(0, f"expression tree deeper than {MAX_DEPTH} levels")
    return e


# ---------------------------------------------------------------------------
# Printing. Levels mirror the grammar so parse(unparse(e)) restores e for
# every e that parse itself can produce.

_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_POW = 3
_LEVEL_UNARY = 4
_LEVEL_ATOM = 5


def _level(e: Expr) -> int:
    if isinstance(e, Bin):
        if e.op in "+-":
            return _LEVEL_ADD
        if e.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(e, Neg):
        return _LEVEL_UNARY
    if isinstance(e, Const) and (e.value < 0.0 or math.copysign(1.0, e.value) < 0.0):
        return _LEVEL_UNARY  # prints with a leading minus
    return _LEVEL_ATOM


def _wrap(e: Expr, min_level: int) -> str:
    text = unparse(e)
    if _level(e) < min_level:
        return f"({text})"
    return text


def unparse(e: Expr) -> str:
    """Print ``e`` as text the parser accepts, with minimal parentheses."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Neg):
        return "-" + _wrap(e.child, _LEVEL_UNARY)
    if isinstance(e, Bin):
        if e.op in "+-":
            return _wrap(e.left, _LEVEL_ADD) + e.op + _wrap(e.right, _LEVEL_MUL)
        if e.op in "*/":
            return _wrap(e.left, _LEVEL_MUL) + e.op + _wrap(e.right, _LEVEL_POW)
        return _wrap(e.left, _LEVEL_UNARY) + "^" + _wrap(e.right, _LEVEL_POW)
    if isinstance(e, Call):
        return f"{e.fn}({unparse(e.arg)})"
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Differentiation


def _d(e: Expr) -> Expr:
    """The first derivative of ``e``, simplified, built in one pass.

    The tree equals ``simplify`` of the textbook rules' tree: every node is
    made by simplify's rule for its kind (:func:`_neg`, :func:`_call`,
    :func:`_bin`) from children already simplified. Each distinct subtree
    of ``e``, by identity, is simplified once and differentiated once, so
    the subtrees a derivative repeats are shared, not copied.
    """
    return _Step().d(e)


class _Step:
    """The two memos of one :func:`_d` pass (or :func:`simplify`), by node identity.

    ``d`` gives a subtree's simplified derivative and ``s`` its simplified
    copy, each once per distinct subtree. The subtrees must outlive the
    step, since their ids are the keys. Methods over an object, not
    closures: a recursive closure is a reference cycle, which only the
    cyclic garbage collector frees, and one per call made classify run
    eight times the collections.
    """

    __slots__ = ("derived", "simplified")

    def __init__(self):
        self.derived: dict[int, Expr] = {}
        self.simplified: dict[int, Expr] = {}

    def s(self, e: Expr) -> Expr:
        out = self.simplified.get(id(e))
        if out is None:
            kind = type(e)
            if kind is Const or kind is Var:
                out = e
            elif kind is Neg:
                out = _neg(self.s(e.child))
            elif kind is Call:
                out = _call(e.fn, self.s(e.arg))
            elif kind is Bin:
                out = _bin(e.op, self.s(e.left), self.s(e.right))
            else:
                raise TypeError(f"not an Expr node: {e!r}")
            self.simplified[id(e)] = out
        return out

    # one method, not a memo wrapper around the rules, so that a tree
    # level costs one frame of recursion
    def d(self, node: Expr) -> Expr:
        out = self.derived.get(id(node))
        if out is not None:
            return out
        d, s = self.d, self.s
        if isinstance(node, Const):
            out = Const(0.0)
        elif isinstance(node, Var):
            out = Const(1.0)
        elif isinstance(node, Neg):
            out = _neg(d(node.child))
        elif isinstance(node, Bin):
            u, v = node.left, node.right
            if node.op == "+" or node.op == "-":
                out = _bin(node.op, d(u), d(v))
            elif node.op == "*":
                out = _bin("+", _bin("*", d(u), s(v)), _bin("*", s(u), d(v)))
            elif node.op == "/":
                num = _bin("-", _bin("*", d(u), s(v)), _bin("*", s(u), d(v)))
                out = _bin("/", num, _bin("^", s(v), Const(2.0)))
            # power: split on which side carries x
            elif isinstance(v, Const):
                power = _bin("^", s(u), Const(v.value - 1.0))
                out = _bin("*", _bin("*", Const(v.value), power), d(u))
            elif isinstance(u, Const):
                out = _bin("*", _bin("*", s(node), _call("ln", s(u))), d(v))
            else:
                inner = _bin("+", _bin("*", d(v), _call("ln", s(u))),
                             _bin("/", _bin("*", s(v), d(u)), s(u)))
                out = _bin("*", s(node), inner)
        elif isinstance(node, Call):
            u, f = node.arg, node.fn
            du = d(u)
            if f == "sin":
                out = _bin("*", _call("cos", s(u)), du)
            elif f == "cos":
                out = _bin("*", _neg(_call("sin", s(u))), du)
            elif f == "tan":
                out = _bin("/", du, _bin("^", _call("cos", s(u)), Const(2.0)))
            elif f == "asin" or f == "acos":
                root = _call("sqrt", _bin("-", Const(1.0), _bin("^", s(u), Const(2.0))))
                out = _bin("/", du, root)
                if f == "acos":
                    out = _neg(out)
            elif f == "atan":
                out = _bin("/", du, _bin("+", Const(1.0), _bin("^", s(u), Const(2.0))))
            elif f == "exp":
                out = _bin("*", s(node), du)
            elif f == "ln":
                out = _bin("/", du, s(u))
            elif f == "sqrt":
                out = _bin("/", du, _bin("*", Const(2.0), s(node)))
            elif f == "abs":
                out = _bin("*", _call("sgn", s(u)), du)
            elif f == "sgn":
                # the distributional point mass at sign changes is dropped;
                # callers detect those points separately
                out = Const(0.0)
        if out is None:
            raise TypeError(f"not an Expr node: {node!r}")
        self.derived[id(node)] = out
        return out


def differentiate(e: Expr, order: int = 1) -> Expr:
    """Symbolic derivative of the given order (simplified between orders).

    Each order step is memoized on the node it differentiates, so
    ``differentiate(f, 3) is differentiate(differentiate(differentiate(f)))``
    and a chain f, f', f'', ... is built once however many callers walk it,
    for as long as f lives. An order's tree shares the subtrees it repeats
    (see :func:`_d`), so its node objects grow far slower than its positions.
    """
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"derivative order must be a positive integer, got {order!r}")
    out = e
    for _ in range(order):
        d = getattr(out, "_derivative", None)
        if d is None:
            d = _d(out)
            object.__setattr__(out, "_derivative", d)  # the node is frozen
        out = d
    return out


# ---------------------------------------------------------------------------
# Simplification: one rule per node kind, each given children already
# simplified. simplify applies them bottom-up; _d builds every node it makes
# through them.


def _is_const(e: Expr, value: float | None = None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


def _neg(c: Expr) -> Expr:
    if isinstance(c, Const):
        return Const(-c.value)
    if isinstance(c, Neg):
        return c.child
    return Neg(c)


def _call(fn: str, a: Expr) -> Expr:
    if isinstance(a, Const):
        v = _FN_EVAL[fn](a.value)
        if math.isfinite(v):
            return Const(v)
    return Call(fn, a)


def _bin(op: str, l: Expr, r: Expr) -> Expr:
    if isinstance(l, Const) and isinstance(r, Const):
        v = _fold_bin(op, l.value, r.value)
        if math.isfinite(v):
            return Const(v)
    if op == "+":
        if _is_const(l, 0.0):
            return r
        if _is_const(r, 0.0):
            return l
    elif op == "-":
        if _is_const(r, 0.0):
            return l
        if _is_const(l, 0.0):
            return Neg(r) if not isinstance(r, Const) else Const(-r.value)
        if l == r:
            return Const(0.0)
    elif op == "*":
        if _is_const(l, 0.0) or _is_const(r, 0.0):
            return Const(0.0)
        if _is_const(l, 1.0):
            return r
        if _is_const(r, 1.0):
            return l
        if isinstance(r, Const) and not isinstance(l, Const):
            l, r = r, l  # keep the constant coefficient on the left
        if isinstance(l, Const) and isinstance(r, Bin) and r.op == "*" \
                and isinstance(r.left, Const):
            v = l.value * r.left.value
            if math.isfinite(v):
                return Bin("*", Const(v), r.right)
        return Bin("*", l, r)
    elif op == "/":
        if _is_const(l, 0.0):
            return Const(0.0)
        if _is_const(r, 1.0):
            return l
        if l == r:
            return Const(1.0)
    elif op == "^":
        if _is_const(r, 1.0):
            return l
        if _is_const(r, 0.0):
            return Const(1.0)
        if _is_const(l, 1.0):
            return Const(1.0)
    return Bin(op, l, r)


def simplify(e: Expr) -> Expr:
    """Constant folding and identity elimination.

    The result is pointwise-equal to the input wherever the input is
    defined; folding never produces non-finite constants. Each distinct
    node of ``e`` is simplified once.
    """
    return _Step().s(e)


# ---------------------------------------------------------------------------
# Structure utilities


def substitute(e: Expr, replacement: Expr) -> Expr:
    """Replace every occurrence of the variable with ``replacement``."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return replacement
    if isinstance(e, Neg):
        return Neg(substitute(e.child, replacement))
    if isinstance(e, Bin):
        return Bin(e.op, substitute(e.left, replacement), substitute(e.right, replacement))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, replacement))
    raise TypeError(f"not an Expr node: {e!r}")


def sign_sensitive_args(e: Expr) -> list[Expr]:
    """Arguments of every distinct abs()/sgn() node in ``e``.

    Where one of these changes sign, the function has a kink or jump that
    the symbolic derivative cannot see; smoothness scans check them.
    """
    return [node.arg for node, _ in _walk(e)
            if isinstance(node, Call) and node.fn in ("abs", "sgn")]
