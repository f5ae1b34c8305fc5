"""Expression trees for real functions of one variable.

Function text is parsed by recursive descent into an immutable AST that can
be evaluated on the extended real line, differentiated symbolically to any
order, simplified, and printed back to parseable text. ``evaluate`` reads
a single point off the tree's kept walk, and costs less than a compile
for a value read at a point or two. For many points, one lowering turns trees
into generated straight-line Python that evaluates each distinct
subexpression once per point: ``compile_fn`` wraps one tree as a callable
(quadrature), ``compile_terms`` wraps the terms of a residual as a
whole-grid loop (the grid scan, and root polishing on a one-point grid),
and ``compile_panels`` wraps the integrands of running integrals as one
loop that takes one Simpson step over every pair of grid panels (operator
prefix builds), with ``compile_fn``'s callables as its point functions.
Input nested deeper than MAX_DEPTH levels is rejected by the parser.

Generated code is plain arithmetic, which returns its helper's value bit
for bit or raises where the helper gives nan or an infinity. It runs in
``try``, and a point that raised is recomputed alone by a guarded
lowering that calls the helpers, compiled on first need.

A derivative order is built in one pass (``_d``): every node it makes
goes through simplify's rule for its kind, with its children already
simplified, and each distinct subtree of the input, by identity, is
simplified once and differentiated once. The textbook rules repeat their
operands (the product rule names u and v twice), so the result is a tree
whose repeated subtrees are shared objects: the order-8 derivative of
exp(sin(x))*ln(x+2) has 291,897 positions but 11,048 node objects. The
tree equals the one simplify would make of the rules' plain copy. An
order past MAX_NODES distinct nodes is refused with ExpressionTooLarge:
nodes grow about threefold an order, so the cap bounds each build's time
and memory.

Each node memoizes its first derivative (``differentiate``), its compiled
callable (``compile_fn``) and its walk (``_postorder``) in three slots
outside its fields, so every consumer of one tree shares one derivative
chain, one compile and one walk. The memo lives exactly as long as the
node: a request that parses fresh trees starts with none, and equality,
hashing, printing, pickling and copying see only the fields.

Generated code names a tree's constants ``c0, c1, ...`` by position, reads
their values from the function's globals and moves signs into them
(``u - 1.3*v`` is ``u + c*v``, c = -1.3; see :func:`_lower`), so trees of
one shape lower to one source text whatever their coefficients' values and
signs. Each source text is compiled once per process: ``_code``, a
:class:`_Memo` bounded by the total length of the sources it holds
(``_CODE_MEMO`` characters), maps it to its code object, which each
compile function runs in a fresh copy of the globals holding that tree's
own constants. A new tree therefore always gets new functions, and the
same source gives the same code. The same memo class keeps the scan grids
(:func:`~mvtlab.numerics.grid_points`), bounded in points.

Every pass over a tree (evaluation, lowering, differentiation and
simplification, printing, the parser's depth check and
:func:`sign_sensitive_args`) is one loop over ``_postorder``, an iterative
walk that lists each distinct node once, after its children. So every
pass takes a tree of any depth and visits a shared subtree once. Only the
parser's descent recurses, and the dataclass-made equality, hashing and
repr; MAX_DEPTH bounds those for parsed input.

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
from typing import Callable, Hashable, Iterable, Sequence

__all__ = [
    "Expr", "Const", "Var", "Neg", "Bin", "Call",
    "ParseError", "ExpressionTooLarge", "FUNCTIONS", "MAX_DEPTH", "MAX_NODES",
    "parse", "unparse", "evaluate", "compile_fn", "compile_terms", "compile_panels",
    "differentiate", "simplify", "sign_sensitive_args",
]

FUNCTIONS = ("sin", "cos", "tan", "asin", "acos", "atan",
             "exp", "ln", "sqrt", "abs", "sgn")

_CONSTANTS = {"pi": math.pi, "e": math.e}

# Deepest expression parse() accepts (see parse).
MAX_DEPTH = 100

# Most distinct nodes a derivative order may have (see differentiate).
MAX_NODES = 100_000


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base node. All nodes are immutable, hashable, and comparable."""

    # memo slots, set once by differentiate, compile_fn and _postorder (see
    # the module docstring); they are not dataclass fields
    __slots__ = ("_derivative", "_compiled", "_walk")

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


def _postorder(roots: Sequence[Expr]) -> list[Expr]:
    """Every distinct node of ``roots``, by identity, each after its children.

    Children come left before right and the roots in order; a node that
    several parents share is listed once, at its first position. The walk
    keeps an explicit stack, so a tree of any depth walks: every pass over
    a tree in this module is one loop over this list. A lone root keeps
    it, less the root (no cycle). Raises TypeError on a non-Expr node.
    """
    if len(roots) == 1 and getattr(roots[0], "_walk", None) is not None:
        return [*roots[0]._walk, roots[0]]
    out: list[Expr] = []
    seen: set[int] = set()
    stack: list[Expr | None] = list(reversed(roots))
    pop, push, listed, saw = stack.pop, stack.extend, out.append, seen.add
    while stack:
        node = pop()
        if node is None:  # the node below has all its children listed
            listed(pop())
            continue
        key = id(node)
        if key in seen:
            continue
        saw(key)
        kind = type(node)
        if kind is Bin:
            push((node, None, node.right, node.left))
        elif kind is Call:
            push((node, None, node.arg))
        elif kind is Neg:
            push((node, None, node.child))
        elif kind is Const or kind is Var:
            listed(node)
        else:
            raise TypeError(f"not an Expr node: {node!r}")
    if len(roots) == 1:
        object.__setattr__(roots[0], "_walk", out[:-1])  # the node is frozen
    return out


# ---------------------------------------------------------------------------
# Extended-real arithmetic helpers. They define the semantics: evaluate()
# calls them, and generated code calls them at the points where its plain
# arithmetic raises (see _lower).

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

    Each distinct node, by identity, is evaluated once per call, in the
    order of the walk ``e`` keeps, so a tree whose subtrees are shared (a
    derivative's are) costs its distinct nodes, not its positions.
    """
    x = float(x)
    value: dict[int, float] = {}
    for node in _postorder((e,)):
        kind = type(node)
        if kind is Const:
            v = node.value
        elif kind is Var:
            v = x
        elif kind is Bin:
            v = _fold_bin(node.op, value[id(node.left)], value[id(node.right)])
        elif kind is Call:
            v = _FN_EVAL[node.fn](value[id(node.arg)])
        else:
            v = -value[id(node.child)]
        value[id(node)] = v
    return value[id(e)]


# Names the generated code reads from its globals. Locals are x, t0, t1, ...
# (and xs, col0, put0, ... in grid loops), constants c0, c1, ..., so none
# of them can shadow these. ``_fault`` is what plain arithmetic raises.
_CODEGEN_GLOBALS = {"__builtins__": {}, "float": float, "_div": _div, "_pow": _pow,
                    "_fault": (ArithmeticError, ValueError),
                    **{f"fn_{name}": fn for name, fn in _FN_EVAL.items()},
                    "m_sin": math.sin, "m_cos": math.cos, "m_tan": math.tan,
                    "m_asin": math.asin, "m_acos": math.acos, "m_atan": math.atan,
                    "m_exp": math.exp, "m_ln": math.log, "m_sqrt": math.sqrt}


def _lower(roots: Sequence[Expr], glb: dict, var: str, tag: str = "") -> tuple[
        Callable[[bool], list[str]], list[str]]:
    """``lines(guarded)``, statements that compute every root at ``var``, and each root's name.

    One local per distinct subexpression across all roots; constants go to
    ``glb``; names end in ``tag``, so lowerings sharing one ``glb`` need
    distinct tags; a ``var`` that is a bare name is read as it is.
    ``lines(False)`` is plain arithmetic (bare math functions, ``a / b``,
    ``a ** k`` for a constant integer k in [1, 1023]); ``lines(True)``
    calls :func:`evaluate`'s helpers, for a point where the plain
    statements raised. ``lines`` holds text, so keeps no tree alive.

    The text does not depend on the constants' signs: a constant, a Neg and
    a product with a constant factor are named at first use, in the sign
    their user needs (``-c``, ``u - c`` and ``u - c*v`` are c', ``u + c'``
    and ``u + c'*v`` with c' = -c, and ``u - (-v)`` is ``u + v``). That is
    exact but for a nan's sign bit: IEEE 754 defines ``a - b`` as
    ``a + (-b)``, and rounding is sign-symmetric, so ``(-c)*v == -(c*v)``.
    """
    steps: list[tuple[str, str, str]] = []  # (name, plain rhs, guarded rhs)
    by_key: dict[tuple, str] = {}  # structural key -> local or constant name
    name_of: dict[int, str] = {}  # id(node) -> its value's name; ~id(node) -> its negation's
    sign: dict[int, tuple[Expr, bool]] = {}  # id(Neg) -> (first node below not a Neg, negated)
    scaled: dict[int, tuple[Expr, str, bool]] = {}  # id(c*v) -> (c, v's name, c on the left)

    def local(key: tuple, plain: str, guarded: str = "") -> str:
        if key not in by_key:
            by_key[key] = f"t{len(by_key)}{tag}"
            steps.append((by_key[key], plain, guarded or plain))
        return by_key[key]

    def use(node: Expr, neg: bool = False) -> str:
        # the name of node's value, or of its negation, made on first use
        if type(node) is Neg:
            node, flip = sign[id(node)]
            neg = neg is not flip
        ref = ~id(node) if neg else id(node)
        if ref not in name_of:
            if type(node) is Const:
                v = -node.value if ref < 0 else node.value
                key = ("const", repr(v))  # repr keeps 0.0 and -0.0 apart
                if key not in by_key:
                    glb[by_key.setdefault(key, f"c{len(by_key)}{tag}")] = v
                name_of[ref] = by_key[key]
            elif id(node) in scaled:
                c, v, left = scaled[id(node)]
                a, b = (use(c, ref < 0), v) if left else (v, use(c, ref < 0))
                name_of[ref] = local(("*", a, b), f"{a} * {b}")
            else:
                name_of[ref] = local(("neg", name_of[id(node)]), f"-{name_of[id(node)]}")
        return name_of[ref]

    for node in _postorder(roots):
        kind = type(node)
        # keys hold the children's names, never the nodes: hashing a frozen
        # dataclass walks its whole subtree
        if kind is Bin:
            op, u, w = node.op, node.left, node.right
            neg = False  # whether u - w is written u + (-w)
            if op == "*" or op == "-":
                (ub, _), (wb, wneg) = sign.get(id(u), (u, False)), sign.get(id(w), (w, False))
                if op == "*" and (type(ub) is Const or type(wb) is Const):
                    c_left = type(wb) is not Const
                    scaled[id(node)] = (u, use(w), True) if c_left else (w, use(u), False)
                    continue
                neg = op == "-" and (wneg or type(wb) is Const or id(wb) in scaled)
            a = name_of.get(id(u)) or use(u)
            op, b = ("+", use(w, True)) if neg else (op, name_of.get(id(w)) or use(w))
            if op in "+-*":
                plain = guarded = f"{a} {op} {b}"
            elif op == "/":
                plain, guarded = f"{a} / {b}", f"_div({a}, {b})"
            else:
                guarded = plain = f"_pow({a}, {b})"
                k = w.value if type(w) is Const else 0.0
                if 1.0 <= k <= 1023.0 and k == math.floor(k):
                    plain = f"{a} ** {int(k)}"
            name_of[id(node)] = local((op, a, b), plain, guarded)
        elif kind is Call:
            a = name_of.get(id(node.arg)) or use(node.arg)
            guarded = f"fn_{node.fn}({a})"
            plain = f"m_{node.fn}({a})" if f"m_{node.fn}" in glb else guarded
            name_of[id(node)] = local((node.fn, a), plain, guarded)
        elif kind is Neg:
            base, flip = sign.get(id(node.child), (node.child, False))
            sign[id(node)] = (base, not flip)
        elif kind is Var:  # a loop's own variable needs no copy
            name_of[id(node)] = var if var.isidentifier() else local(("x",), var)
        # a constant is named by its first user

    def lines(guarded: bool) -> list[str]:
        return [f"{name} = {rhs[guarded]}" for name, *rhs in steps]

    return lines, [use(r) for r in roots]


# Characters of generated source whose code objects _code keeps; long benchmark
# streams use 226k (pointwise), 250k (operator), 20k (classify) and 27k (high-order).
_CODE_MEMO = 2 ** 19


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


def _try(glb: dict, kind: str, call: str, body: Callable[[bool], list[str]],
         prefix: str = "") -> list[str]:
    """``body(False)`` as a ``try`` block whose ``except`` runs ``prefix + call``.

    ``call`` calls ``def {call}:`` over ``body(True)``, the guarded
    statements, which a stand-in in ``glb`` compiles on its first call.
    """
    name = call[:call.index("(")]
    def first(*args):
        _run(f"def {call}:\n" + _indent(body(True), 1), kind, glb)
        return glb[name](*args)
    glb[name] = first
    return ["try:", *(f"    {line}" for line in body(False)),
            "except _fault:", f"    {prefix}{call}"]


def compile_fn(e: Expr) -> Callable[[float], float]:
    """Build a plain callable for ``e``.

    Semantics are identical to :func:`evaluate`, bit for bit. The tree is
    lowered to the source of one straight-line Python function with a
    local variable per distinct subexpression, so a subtree that a
    derivative repeats many times is evaluated once per call, and a call
    costs no per-node dispatch. The function runs plain arithmetic (see
    :func:`_lower`); at a point where that raises, it returns the guarded
    lowering's value instead, a second function compiled on first need.

    The callable is memoized on ``e`` for as long as the node lives. A tree
    of the same shape, whatever its constants, gets a new callable over
    the same code object (see the module docstring).
    """
    fn = getattr(e, "_compiled", None)
    if fn is None:
        glb = dict(_CODEGEN_GLOBALS)
        lines, (name,) = _lower((e,), glb, "float(x)")
        body = _try(glb, "compile_fn", "slow(x)",
                    lambda guarded: lines(guarded) + [f"return {name}"], "return ")
        _run("def compiled(x):\n" + _indent(body, 1), "compile_fn", glb)
        fn = glb["compiled"]
        object.__setattr__(e, "_compiled", fn)  # the node is frozen
    return fn


def compile_terms(exprs: Sequence[Expr]) -> Callable[[Iterable[float]], list[list[float]]]:
    """Build ``grid`` for the terms of a residual.

    ``grid(xs)`` evaluates every expression at every x of ``xs`` (floats)
    in one generated loop and returns one list of values per expression; a
    subexpression common to several expressions is computed once per
    point, and a point where plain arithmetic raises is recomputed by the
    guarded lowering. Values equal :func:`evaluate` bit for bit.
    """
    glb = dict(_CODEGEN_GLOBALS)
    lines, names = _lower(exprs, glb, "x")
    puts = ", ".join(f"put{i}" for i in range(len(names)))
    body = _try(glb, "compile_terms", f"slow(x, {puts})", lambda guarded: lines(guarded)
                + [f"put{i}({n})" for i, n in enumerate(names)])
    cols = [f"col{i}" for i in range(len(names))]
    src = ("def grid(xs):\n"
           + _indent([f"{c} = []" for c in cols]
                     + [f"put{i} = {c}.append" for i, c in enumerate(cols)], 1)
           + "    for x in xs:\n"
           + _indent(body, 2)
           + f"    return [{', '.join(cols)}]\n")
    _run(src, "compile_terms", glb)
    return glb["grid"]


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
    for bit.
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
        block, names = _lower([fns[j] for j in js if isinstance(fns[j], Expr)], glb, x, tag)
        lines = block(False)
        # a guarded block recomputes what the block defines, so not the point,
        # nor constants: assigning a global makes it a local the plain block reads unbound
        values = ", ".join(dict.fromkeys(n for n in names if n not in glb and n != x))
        if values:
            lines = _try(glb, "compile_panels", f"slow{tag}({x})",
                         lambda g: block(g) + ([f"return {values},"] if g else []), f"{values}, = ")
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


def parse(source: str) -> Expr:
    """Parse function text in the single variable ``x`` into an AST.

    Raises ParseError for malformed text, and for text nested deeper than
    MAX_DEPTH levels: parenthesised, or as a tree (a sum of MAX_DEPTH + 1
    terms is a tree that deep). The parser recurses once per level of
    parentheses, calls, unary minuses and powers, and the dataclass-made
    equality, hashing and repr of the nodes once per tree level, so the
    cap keeps both well inside Python's recursion limit.
    """
    e = _Parser(source).parse()
    height: dict[int, int] = {}  # id -> levels in the node's subtree
    for node in _postorder((e,)):
        kind = type(node)
        if kind is Bin:
            h = 1 + max(height[id(node.left)], height[id(node.right)])
        elif kind is Call or kind is Neg:
            h = 1 + height[id(node.arg if kind is Call else node.child)]
        else:
            h = 1
        if h > MAX_DEPTH:
            raise ParseError(0, f"expression tree deeper than {MAX_DEPTH} levels")
        height[id(node)] = h
    return e


# ---------------------------------------------------------------------------
# Printing. Levels mirror the grammar so parse(unparse(e)) restores e for
# every e that parse itself can produce.

_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_POW = 3
_LEVEL_UNARY = 4
_LEVEL_ATOM = 5

# op -> the levels of the operator, of its left operand and of its right
_BIN_LEVELS = {"+": (_LEVEL_ADD, _LEVEL_ADD, _LEVEL_MUL),
               "-": (_LEVEL_ADD, _LEVEL_ADD, _LEVEL_MUL),
               "*": (_LEVEL_MUL, _LEVEL_MUL, _LEVEL_POW),
               "/": (_LEVEL_MUL, _LEVEL_MUL, _LEVEL_POW),
               "^": (_LEVEL_POW, _LEVEL_UNARY, _LEVEL_POW)}


def unparse(e: Expr) -> str:
    """Print ``e`` as text the parser accepts, with minimal parentheses."""
    nodes = _postorder((e,))
    # id -> parents still to print: a text is dropped once the last has used it
    uses: dict[int, int] = {}
    for node in nodes:
        kind = type(node)
        for child in ((node.left, node.right) if kind is Bin else (node.arg,) if kind is Call
                      else (node.child,) if kind is Neg else ()):
            uses[id(child)] = uses.get(id(child), 0) + 1
    printed: dict[int, tuple[int, str]] = {}  # id -> (level, text)

    def operand(child: Expr, min_level: int) -> str:
        key = id(child)
        level, text = printed[key]
        uses[key] -= 1
        if not uses[key]:
            del printed[key]
        return f"({text})" if level < min_level else text

    for node in nodes:
        kind = type(node)
        if kind is Bin:
            level, lo, hi = _BIN_LEVELS[node.op]
            text = operand(node.left, lo) + node.op + operand(node.right, hi)
        elif kind is Neg:
            level, text = _LEVEL_UNARY, "-" + operand(node.child, _LEVEL_UNARY)
        elif kind is Call:
            level, text = _LEVEL_ATOM, f"{node.fn}({operand(node.arg, _LEVEL_ADD)})"
        elif kind is Var:
            level, text = _LEVEL_ATOM, "x"
        else:
            # a negative constant prints with a leading minus
            negative = node.value < 0.0 or math.copysign(1.0, node.value) < 0.0
            level, text = _LEVEL_UNARY if negative else _LEVEL_ATOM, repr(node.value)
        printed[id(node)] = level, text
    return printed[id(e)][1]


# ---------------------------------------------------------------------------
# Differentiation


class ExpressionTooLarge(ValueError):
    """Raised by differentiate on an order past MAX_NODES distinct nodes."""


def _d(e: Expr) -> Expr:
    """One order step of :func:`differentiate`, held to MAX_NODES distinct nodes."""
    out = _simplify_and_derive(e, True)[1]
    size = len(_postorder((out,)))
    if size > MAX_NODES:
        raise ExpressionTooLarge(f"a derivative of {size} distinct nodes is past the cap of "
                                 f"{MAX_NODES} (lower the order or shorten the function)")
    return out


def _simplify_and_derive(e: Expr, derive: bool) -> tuple[Expr, Expr | None]:
    """``e`` simplified, and its first derivative simplified if ``derive``.

    One loop over :func:`_postorder` gives each distinct node of ``e``, by
    identity, its simplified copy and, if asked, its simplified
    derivative, each made by simplify's rule for its kind (:func:`_neg`,
    :func:`_call`, :func:`_bin`) from its children's copies and
    derivatives. The derivative equals ``simplify`` of the textbook rules'
    tree, but the operands the rules repeat (the product rule names u and
    v twice) are shared objects, not copies. A node that its rule leaves
    as it is, children included, is its own copy.
    """
    simple: dict[int, Expr] = {}
    derived: dict[int, Expr] = {}
    for node in _postorder((e,)):
        kind = type(node)
        if kind is Bin:
            out = _bin(node.op, simple[id(node.left)], simple[id(node.right)], node)
        elif kind is Call:
            out = _call(node.fn, simple[id(node.arg)], node)
        elif kind is Neg:
            out = _neg(simple[id(node.child)], node)
        else:
            out = node
        simple[id(node)] = out
        if derive:
            derived[id(node)] = _derivative(node, out, simple, derived)
    return simple[id(e)], derived.get(id(e))


def _derivative(node: Expr, s: Expr, simple: dict[int, Expr],
                derived: dict[int, Expr]) -> Expr:
    """The simplified derivative of ``node``, whose simplified copy is ``s``.

    ``simple`` and ``derived`` hold its children's copies and derivatives.
    """
    kind = type(node)
    if kind is Const:
        return Const(0.0)
    if kind is Var:
        return Const(1.0)
    if kind is Neg:
        return _neg(derived[id(node.child)])
    if kind is Bin:
        u, v = node.left, node.right
        su, sv, du, dv = simple[id(u)], simple[id(v)], derived[id(u)], derived[id(v)]
        if node.op == "+" or node.op == "-":
            return _bin(node.op, du, dv)
        if node.op == "*":
            return _bin("+", _bin("*", du, sv), _bin("*", su, dv))
        if node.op == "/":
            num = _bin("-", _bin("*", du, sv), _bin("*", su, dv))
            return _bin("/", num, _bin("^", sv, Const(2.0)))
        # power: split on which side carries x
        if type(v) is Const:
            power = _bin("^", su, Const(v.value - 1.0))
            return _bin("*", _bin("*", Const(v.value), power), du)
        if type(u) is Const:
            return _bin("*", _bin("*", s, _call("ln", su)), dv)
        inner = _bin("+", _bin("*", dv, _call("ln", su)), _bin("/", _bin("*", sv, du), su))
        return _bin("*", s, inner)
    f, su, du = node.fn, simple[id(node.arg)], derived[id(node.arg)]
    if f == "sin":
        return _bin("*", _call("cos", su), du)
    if f == "cos":
        return _bin("*", _neg(_call("sin", su)), du)
    if f == "tan":
        return _bin("/", du, _bin("^", _call("cos", su), Const(2.0)))
    if f == "asin" or f == "acos":
        out = _bin("/", du, _call("sqrt", _bin("-", Const(1.0), _bin("^", su, Const(2.0)))))
        return _neg(out) if f == "acos" else out
    if f == "atan":
        return _bin("/", du, _bin("+", Const(1.0), _bin("^", su, Const(2.0))))
    if f == "exp":
        return _bin("*", s, du)
    if f == "ln":
        return _bin("/", du, su)
    if f == "sqrt":
        return _bin("/", du, _bin("*", Const(2.0), s))
    if f == "abs":
        return _bin("*", _call("sgn", su), du)
    # sgn: the distributional point mass at sign changes is dropped;
    # callers detect those points separately
    return Const(0.0)


def differentiate(e: Expr, order: int = 1) -> Expr:
    """Symbolic derivative of the given order (simplified between orders).

    Each order step is memoized on the node it differentiates, so
    ``differentiate(f, 3) is differentiate(differentiate(differentiate(f)))``
    and a chain f, f', f'', ... is built once however many callers walk it,
    for as long as f lives. An order's tree shares the subtrees it repeats
    (see :func:`_simplify_and_derive`), so its node objects grow far slower
    than its positions. An order of more than MAX_NODES distinct nodes
    raises ExpressionTooLarge and is not kept.
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


def _neg(c: Expr, same: Neg | None = None) -> Expr:
    if isinstance(c, Const):
        return Const(-c.value)
    if isinstance(c, Neg):
        return c.child
    return same if same is not None and same.child is c else Neg(c)


def _call(fn: str, a: Expr, same: Call | None = None) -> Expr:
    if isinstance(a, Const):
        v = _FN_EVAL[fn](a.value)
        if math.isfinite(v):
            return Const(v)
    return same if same is not None and same.arg is a else Call(fn, a)


def _bin(op: str, l: Expr, r: Expr, same: Bin | None = None) -> Expr:
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
    return same if same is not None and same.left is l and same.right is r else Bin(op, l, r)


def simplify(e: Expr) -> Expr:
    """Constant folding and identity elimination.

    The result is pointwise-equal to the input wherever the input is
    defined; folding never produces non-finite constants. Each distinct
    node of ``e`` is simplified once.
    """
    return _simplify_and_derive(e, False)[0]


# ---------------------------------------------------------------------------
# Structure utilities


def sign_sensitive_args(e: Expr) -> list[Expr]:
    """Arguments of every distinct abs()/sgn() node in ``e``, innermost first.

    Where one of these changes sign, the function has a kink or jump that
    the symbolic derivative cannot see; smoothness scans check them. An
    argument comes before the arguments of the abs()/sgn() nodes around it.
    """
    return [node.arg for node in _postorder((e,))
            if type(node) is Call and node.fn in ("abs", "sgn")]
