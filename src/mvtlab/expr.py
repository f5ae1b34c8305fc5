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
integrands of running integrals as one loop that takes every grid
panel's first Simpson step (operator prefix builds). Input nested deeper
than MAX_DEPTH levels is rejected by the parser.

Each node memoizes its own first derivative (``differentiate``) and its
compiled callable (``compile_fn``) in two slots outside its fields, so every
consumer of one tree shares one derivative chain and one compile per tree.
The memo lives exactly as long as the node: a request that parses fresh
trees starts with none, and equality, hashing, printing, pickling and
copying see only the fields.

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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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


def evaluate(e: Expr, x: float) -> float:
    """Evaluate ``e`` at ``x`` on the extended real line (nan = undefined)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(x)
    if isinstance(e, Neg):
        return -evaluate(e.child, x)
    if isinstance(e, Bin):
        lv = evaluate(e.left, x)
        rv = evaluate(e.right, x)
        op = e.op
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "*":
            return lv * rv
        if op == "/":
            return _div(lv, rv)
        return _pow(lv, rv)
    if isinstance(e, Call):
        return _FN_EVAL[e.fn](evaluate(e.arg, x))
    raise TypeError(f"not an Expr node: {e!r}")


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
    object returns the same callable, for as long as the node lives.
    """
    fn = getattr(e, "_compiled", None)
    if fn is None:
        glb = dict(_CODEGEN_GLOBALS)
        lines, (name,) = _lower((e,), glb)
        src = "def compiled(x):\n" + _indent(lines, 1) + f"    return {name}\n"
        exec(compile(src, "<mvtlab.expr.compile_fn>", "exec"), glb)
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
    from one ``compile`` call over one copy of the lowered code: compiling
    is most of the cost of a short grid, while ``fold`` serves only the
    few dozen evaluations of root polishing. Its sibling
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
    exec(compile(src, "<mvtlab.expr.compile_terms>", "exec"), glb)
    return glb["grid"], glb["fold"]


_Fn = Expr | Callable[[float], float]


def compile_panels(integrands: Sequence[_Fn], pointwise: Sequence[_Fn | None]) -> tuple[
        Callable, list[Callable[[float], float]], list[Callable[[float], float] | None]]:
    """Build ``(panels, q_points, p_points)`` for a running-integral build.

    ``integrands[k]`` and ``pointwise[k]`` (None for none) are expressions
    or plain callables; callables enter the generated code as globals it
    calls. ``q_points`` and ``p_points`` hold a point function for each:
    the expression compiled as :func:`compile_fn` compiles it, or the
    callable itself (None where there is no pointwise part).

    ``panels(ends, tol, fallback)`` is one generated loop over the panels
    [ends[i-1], ends[i]]. On each panel [a, b] it evaluates the integrands
    at the points adaptive Simpson samples first, its quarter points and
    midpoint, and the integrands and pointwise parts together at b, so a
    subexpression they share is computed once; a panel's values at a are
    the previous panel's at b. Each integrand's first Simpson step is
    taken with the expressions :func:`~mvtlab.numerics.integrate` uses, in
    their order, and accepted when ``integrate`` would accept it at
    tolerance ``tol`` and the result is finite; otherwise the panel's
    integral is ``fallback(k, a, b, fa, fb)``. It returns the prefixes,
    each integrand's running sum after every panel, and the tables, that
    sum plus the pointwise part at b (the prefix where there is none).
    Values equal the point functions' bit for bit. :func:`compile_terms`
    is the sibling that evaluates a residual's terms over a grid.
    """
    glb = dict(_CODEGEN_GLOBALS, abs=abs)
    nq = len(integrands)
    fns = [*integrands, *pointwise]  # pointwise part k is fns[nq + k]
    for j, fn in enumerate(fns):
        if fn is not None and not isinstance(fn, Expr):
            glb[f"ext{j}"] = fn

    def lower(js: Iterable[int], x: str, tag: str,
              var: str | None = None) -> tuple[list[str], list[str | None]]:
        # statements computing fns[j] at x for each j of js, and the names
        # of the values (None for a missing pointwise part); expressions
        # read x as var, callables get x itself
        js = [j for j in js if fns[j] is not None]
        lines, names = _lower([fns[j] for j in js if isinstance(fns[j], Expr)],
                              glb, var or x, tag)
        exprs = iter(names)
        out: list[str | None] = [None] * len(fns)
        for j in js:
            if isinstance(fns[j], Expr):
                out[j] = next(exprs)
            else:
                out[j] = f"e{j}{tag}"
                lines.append(f"e{j}{tag} = ext{j}({x})")
        return lines, out

    qs = range(nq)
    # the points past ends[0] are floats already
    at_a, fa = lower(qs, "a", "_a", "float(a)")
    at_lm, flm = lower(qs, "lm", "_lm")
    at_m, fm = lower(qs, "m", "_m")
    at_rm, frm = lower(qs, "rm", "_rm")
    at_b, fb = lower(range(len(fns)), "b", "_b")
    head = ["a = ends[0]", *at_a]
    body = ["m = 0.5 * (a + b)", "lm = 0.5 * (a + m)", "rm = 0.5 * (m + b)",
            "wl = m - a", "wr = b - m", "w = b - a", *at_lm, *at_m, *at_rm, *at_b]
    tables = []
    for k in qs:
        head += [f"prefix{k} = []", f"put{k} = prefix{k}.append",
                 f"fa{k} = {fa[k]}", f"acc{k} = -0.0"]
        # integrate() and _adapt()'s expressions, in their order
        body += [f"whole = w * (fa{k} + 4.0 * {fm[k]} + {fb[k]}) / 6.0",
                 f"sl = wl * (fa{k} + 4.0 * {flm[k]} + {fm[k]}) / 6.0",
                 f"sr = wr * ({fm[k]} + 4.0 * {frm[k]} + {fb[k]}) / 6.0",
                 "delta = sl + sr - whole",
                 "part = sl + sr + delta / 15.0",
                 # every sample enters sl or sr with a positive weight (or
                 # makes it nan), so a finite part means finite samples, none
                 # of which integrate() would replace
                 "if not (abs(delta) <= 15.0 * (tol * (1.0 + abs(whole)))"
                 " and part - part == 0.0):",
                 f"    part = fallback({k}, a, b, fa{k}, {fb[k]})",
                 f"acc{k} += part",
                 f"put{k}(acc{k})",
                 f"fa{k} = {fb[k]}"]
        if fb[nq + k] is None:
            tables.append(f"prefix{k}")
        else:
            head += [f"table{k} = []", f"tput{k} = table{k}.append"]
            body.append(f"tput{k}({fb[nq + k]} + acc{k})")
            tables.append(f"table{k}")
    body.append("a = b")
    src = ("def panels(ends, tol, fallback):\n" + _indent(head, 1)
           + "    for b in ends[1:]:\n" + _indent(body, 2)
           + f"    return [{', '.join(f'prefix{k}' for k in qs)}], [{', '.join(tables)}]\n")
    for j, fn in enumerate(fns):
        if isinstance(fn, Expr):
            lines, (name,) = _lower((fn,), glb, tag=f"_{j}")
            src += f"def point{j}(x):\n" + _indent(lines, 1) + f"    return {name}\n"
    exec(compile(src, "<mvtlab.expr.compile_panels>", "exec"), glb)
    points = [glb[f"point{j}"] if isinstance(fn, Expr) else fn for j, fn in enumerate(fns)]
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


def _depth(e: Expr) -> int:
    deepest = 0
    stack = [(e, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(node, Bin):
            stack += ((node.left, d + 1), (node.right, d + 1))
        elif isinstance(node, Neg):
            stack.append((node.child, d + 1))
        elif isinstance(node, Call):
            stack.append((node.arg, d + 1))
    return deepest


def parse(source: str) -> Expr:
    """Parse function text in the single variable ``x`` into an AST.

    Raises ParseError for malformed text, and for text nested deeper than
    MAX_DEPTH levels: parenthesised, or as a tree (a sum of MAX_DEPTH + 1
    terms is a tree that deep). Differentiation, simplification and
    printing recurse over the tree, and the cap keeps them, and the
    parser itself, well inside Python's recursion limit.
    """
    e = _Parser(source).parse()
    if _depth(e) > MAX_DEPTH:
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
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Neg):
        return Neg(_d(e.child))
    if isinstance(e, Bin):
        u, v = e.left, e.right
        if e.op == "+" or e.op == "-":
            return Bin(e.op, _d(u), _d(v))
        if e.op == "*":
            return _d(u) * v + u * _d(v)
        if e.op == "/":
            return (_d(u) * v - u * _d(v)) / (v ** Const(2.0))
        # power: split on which side carries x
        if isinstance(v, Const):
            return Const(v.value) * u ** Const(v.value - 1.0) * _d(u)
        if isinstance(u, Const):
            return Bin("^", u, v) * Call("ln", u) * _d(v)
        return Bin("^", u, v) * (_d(v) * Call("ln", u) + v * _d(u) / u)
    if isinstance(e, Call):
        u = e.arg
        du = _d(u)
        f = e.fn
        if f == "sin":
            return Call("cos", u) * du
        if f == "cos":
            return Neg(Call("sin", u)) * du
        if f == "tan":
            return du / Call("cos", u) ** Const(2.0)
        if f == "asin":
            return du / Call("sqrt", Const(1.0) - u ** Const(2.0))
        if f == "acos":
            return Neg(du / Call("sqrt", Const(1.0) - u ** Const(2.0)))
        if f == "atan":
            return du / (Const(1.0) + u ** Const(2.0))
        if f == "exp":
            return Call("exp", u) * du
        if f == "ln":
            return du / u
        if f == "sqrt":
            return du / (Const(2.0) * Call("sqrt", u))
        if f == "abs":
            return Call("sgn", u) * du
        if f == "sgn":
            # the distributional point mass at sign changes is dropped;
            # callers detect those points separately
            return Const(0.0)
    raise TypeError(f"not an Expr node: {e!r}")


def differentiate(e: Expr, order: int = 1) -> Expr:
    """Symbolic derivative of the given order (simplified between orders).

    Each order step is memoized on the node it differentiates, so
    ``differentiate(f, 3) is differentiate(differentiate(differentiate(f)))``
    and a chain f, f', f'', ... is built once however many callers walk it,
    for as long as f lives.
    """
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"derivative order must be a positive integer, got {order!r}")
    out = e
    for _ in range(order):
        d = getattr(out, "_derivative", None)
        if d is None:
            d = simplify(_d(out))
            object.__setattr__(out, "_derivative", d)  # the node is frozen
        out = d
    return out


# ---------------------------------------------------------------------------
# Simplification


def _is_const(e: Expr, value: float | None = None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


def _fold_bin(op: str, a: float, b: float) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return _div(a, b)
    return _pow(a, b)


def simplify(e: Expr) -> Expr:
    """Constant folding and identity elimination.

    The result is pointwise-equal to the input wherever the input is
    defined; folding never produces non-finite constants.
    """
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Neg):
        c = simplify(e.child)
        if isinstance(c, Const):
            return Const(-c.value)
        if isinstance(c, Neg):
            return c.child
        return Neg(c)
    if isinstance(e, Call):
        a = simplify(e.arg)
        if isinstance(a, Const):
            v = _FN_EVAL[e.fn](a.value)
            if math.isfinite(v):
                return Const(v)
        return Call(e.fn, a)
    if isinstance(e, Bin):
        l = simplify(e.left)
        r = simplify(e.right)
        op = e.op
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
    raise TypeError(f"not an Expr node: {e!r}")


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


def _walk(e: Expr) -> Iterator[Expr]:
    yield e
    if isinstance(e, Neg):
        yield from _walk(e.child)
    elif isinstance(e, Bin):
        yield from _walk(e.left)
        yield from _walk(e.right)
    elif isinstance(e, Call):
        yield from _walk(e.arg)


def sign_sensitive_args(e: Expr) -> list[Expr]:
    """Arguments of every abs()/sgn() node in ``e``.

    Where one of these changes sign, the function has a kink or jump that
    the symbolic derivative cannot see; smoothness scans check them.
    """
    out = []
    for node in _walk(e):
        if isinstance(node, Call) and node.fn in ("abs", "sgn"):
            out.append(node.arg)
    return out
