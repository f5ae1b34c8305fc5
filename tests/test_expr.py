"""Parser, evaluator, and symbolic-derivative tests."""

import contextlib
import copy
import gc
import io
import itertools
import json
import math
import pickle
import re
import tracemalloc
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

import mvtlab.expr
from conftest import columns_scale, deadline, deep_abs_tree, fold_columns, substitute
from mvtlab.cli import main
from mvtlab.expr import (
    Bin, Call, Const, Expr, ExpressionTooLarge, FUNCTIONS, MAX_DEPTH, MAX_NODES, Neg, ParseError, Var,
    compile_fn, compile_panels, compile_residual, differentiate, evaluate, parse,
    sign_sensitive_args,
    simplify, unparse,
)


FIXTURES = Path(__file__).parent / "fixtures"


def ev(src, x):
    return evaluate(parse(src), x)


class TestParsing:
    def test_number_formats(self):
        assert ev("2", 0) == 2.0
        assert ev("2.5", 0) == 2.5
        assert ev(".5", 0) == 0.5
        assert ev("3.", 0) == 3.0
        assert ev("1e3", 0) == 1000.0
        assert ev("2.5e-2", 0) == 0.025
        assert ev("1E+2", 0) == 100.0

    def test_precedence(self):
        assert ev("2+3*4", 0) == 14.0
        assert ev("2*3^2", 0) == 18.0
        assert ev("(2+3)*4", 0) == 20.0
        assert ev("1-2-3", 0) == -4.0
        assert ev("8/4/2", 0) == 1.0

    def test_power_right_associative(self):
        assert ev("2^3^2", 0) == 512.0

    def test_unary_minus_binds_tighter_than_power(self):
        # documented grammar choice: -x^2 is (-x)^2
        assert ev("-x^2", 3.0) == 9.0
        assert ev("-(x^2)", 3.0) == -9.0
        assert ev("3-x^2", 3.0) == -6.0

    def test_double_negation(self):
        assert ev("--x", 4.0) == 4.0

    def test_constants(self):
        assert ev("pi", 0) == math.pi
        assert ev("e", 0) == math.e
        assert ev("2*pi", 0) == 2 * math.pi

    def test_functions(self):
        assert ev("sin(0)", 0) == 0.0
        assert ev("cos(0)", 0) == 1.0
        assert ev("exp(1)", 0) == math.e
        assert ev("ln(e)", 0) == pytest.approx(1.0)
        assert ev("sqrt(9)", 0) == 3.0
        assert ev("abs(-3)", 0) == 3.0
        assert ev("sgn(-7)", 0) == -1.0
        assert ev("atan(1)", 0) == pytest.approx(math.pi / 4)

    def test_nested_calls(self):
        assert ev("sin(cos(0))", 0) == pytest.approx(math.sin(1.0))

    def test_whitespace(self):
        assert ev("  1 +  2 * x ", 3.0) == 7.0

    def test_variable(self):
        assert parse("x") == Var()

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2x")

    def test_error_offset_double_caret(self):
        with pytest.raises(ParseError) as ei:
            parse("x^^2")
        assert ei.value.offset == 2

    def test_error_unclosed_paren(self):
        with pytest.raises(ParseError) as ei:
            parse("(x+1")
        assert ei.value.expected == "')'"

    def test_error_function_without_argument(self):
        with pytest.raises(ParseError, match="needs an argument"):
            parse("sin")

    def test_error_unknown_name(self):
        with pytest.raises(ParseError, match="unknown name"):
            parse("foo(x)")

    def test_error_empty_input(self):
        with pytest.raises(ParseError) as ei:
            parse("")
        assert ei.value.offset == 0

    def test_error_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("x 2")

    def test_depth_cap(self):
        assert ev("+".join(["x"] * MAX_DEPTH), 1.0) == MAX_DEPTH
        assert ev("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, 2.0) == 2.0
        with pytest.raises(ParseError, match="deeper"):
            parse("+".join(["x"] * (MAX_DEPTH + 1)))
        for src in ("+".join(["x"] * 3000), "(" * 3000 + "x" + ")" * 3000,
                    "-" * 3000 + "x", "^".join(["x"] * 3000),
                    "sin(" * 3000 + "x" + ")" * 3000):
            with pytest.raises(ParseError, match="deeper"):
                parse(src)


class TestEvaluation:
    def test_division_by_zero_signed(self):
        assert ev("1/x", 0.0) == math.inf
        assert ev("-1/x", 0.0) == -math.inf

    def test_zero_over_zero_is_nan(self):
        assert math.isnan(ev("x/x", 0.0))

    def test_sqrt_of_negative_is_nan(self):
        assert math.isnan(ev("sqrt(x)", -1.0))

    def test_ln_domain(self):
        assert ev("ln(x)", 0.0) == -math.inf
        assert math.isnan(ev("ln(x)", -1.0))

    def test_negative_base_fractional_power_is_nan(self):
        assert math.isnan(ev("x^0.5", -2.0))
        assert ev("x^2", -2.0) == 4.0

    def test_zero_to_negative_power(self):
        assert ev("x^(0-1)", 0.0) == math.inf

    def test_nan_absorbs(self):
        assert math.isnan(ev("sqrt(x)+1", -1.0))
        assert math.isnan(ev("1^sqrt(x)", -1.0))

    def test_asin_out_of_domain(self):
        assert math.isnan(ev("asin(x)", 1.5))

    def test_overflow_to_infinity(self):
        assert ev("exp(x)", 1e6) == math.inf

    def test_sgn_values(self):
        assert ev("sgn(x)", 2.0) == 1.0
        assert ev("sgn(x)", -2.0) == -1.0
        assert ev("sgn(x)", 0.0) == 0.0


# strategies shaped like what the parser itself can produce: constants are
# nonnegative, negation is explicit
_const = st.builds(Const, st.floats(0.0, 8.0, allow_nan=False).map(abs))
_leaf = st.one_of(_const, st.just(Var()))
_expr = st.recursive(
    _leaf,
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Bin, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub),
    ),
    max_leaves=16,
)


@seed(20216)
@given(_expr)
def test_unparse_parse_round_trip(e):
    assert parse(unparse(e)) == e


def same_float(a, b):
    """Equal as floats, with the sign of zero, and any nan equal to nan."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# trees beyond what the parser produces: signed and non-finite constants,
# and subtrees shared by identity, as differentiation creates them
_any_const = st.builds(Const, st.one_of(
    st.floats(-8.0, 8.0), st.sampled_from([0.0, -0.0, math.inf, -math.inf])))
# constant exponents: the integers 1-12 that generated code raises inline,
# and non-integer and negative ones that it leaves to the helper
_exponent = st.builds(Const, st.one_of(
    st.integers(1, 12).map(float), st.integers(-12, -1).map(float),
    st.floats(-12.0, 12.0)))
_any_expr = st.recursive(
    st.one_of(_any_const, st.just(Var())),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Bin, st.sampled_from("+-*/^"), sub, sub),
        st.builds(lambda op, t: Bin(op, t, t), st.sampled_from("+-*/^"), sub),
        st.builds(lambda t, k: Bin("^", t, k), sub, _exponent),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub),
    ),
    max_leaves=16,
)
# the edges of the inline fast paths' ranges: asin/acos at +-1, exp near
# its overflow, x^2 and x^3 near 2^511 and 2^341, and the extremes
_ulp_edges = [y for v in (1.0, -1.0, 2.0 ** 511, -2.0 ** 511, 2.0 ** 341)
              for y in (v, math.nextafter(v, 0.0), math.nextafter(v, 2.0 * v))]
_edge_x = _ulp_edges + [709.0, 709.8, 1e154, -1e154, 1e300, -1e300,
                        5e-324, -5e-324, 0.0, -0.0, math.inf, -math.inf, math.nan]
_any_x = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_edge_x))


@seed(20211)
@settings(max_examples=400)
@given(_any_expr, _any_x)
def test_compile_matches_evaluate(e, x):
    assert same_float(compile_fn(e)(x), evaluate(e, x))
    d = differentiate(e)
    assert same_float(compile_fn(d)(x), evaluate(d, x))


@seed(20212)
@given(st.lists(_any_expr, min_size=1, max_size=3), st.lists(_any_x, max_size=6))
def test_term_free_scan_columns_match_compile_fn(exprs, xs):
    scanned = compile_residual((), exprs)(xs)
    fns = [compile_fn(e) for e in exprs]
    # no terms: no residual, the floor scale and no least |residual|
    assert scanned[:3] == ([], 1.0, math.inf) and len(scanned) == 3 + len(exprs)
    for fn, col in zip(fns, scanned[3:]):
        assert len(col) == len(xs)
        assert all(same_float(v, fn(x)) for x, v in zip(xs, col))


# trees whose plain generated code raises at some of _raising_x: ln, sqrt
# and asin out of their domains, a division by zero, exp past its overflow
# and a cube past 1e103, over any subtree
_raising_expr = st.one_of(
    _any_expr,
    st.builds(Call, st.sampled_from(["ln", "sqrt", "asin", "acos", "exp"]), _any_expr),
    st.builds(lambda t: Call("exp", Bin("*", Const(800.0), t)), _any_expr),
    st.builds(lambda t: Bin("/", t, Bin("-", Var(), Var())), _any_expr),
    st.builds(lambda t: Bin("/", t, Var()), _any_expr),
    st.builds(lambda t: Bin("^", t, Const(3.0)), _any_expr),
)
_raising_x = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(
    [-2.0, -1.0, -0.0, 0.0, 0.5, 2.0, 800.0, 1e103, -2e103, 1e300,
     math.inf, -math.inf, math.nan]))


@seed(20213)
@settings(max_examples=300)
@given(st.lists(_raising_expr, min_size=1, max_size=3),
       st.lists(_raising_x, min_size=1, max_size=8))
def test_plain_code_falls_back_where_it_raises(exprs, xs):
    # the grid mixes raising and clean points; only the raising ones are
    # read by evaluate's walk, and every value equals evaluate's
    scan = compile_residual((), exprs)
    for e, col in zip(exprs, scan(xs)[3:]):
        assert all(same_float(v, evaluate(e, x)) for x, v in zip(xs, col))
        assert all(same_float(compile_fn(e)(x), evaluate(e, x)) for x in xs)



class Column:
    """A term as a callable with a ``column`` method; keeps each grid it is handed."""

    def __init__(self, e):
        self.fn, self.grids = compile_fn(e), []

    def __call__(self, x):
        return self.fn(x)

    def column(self, xs):
        self.grids.append(xs)
        return [self.fn(x) for x in xs]


def assert_residual_folds_columns(terms, xs):
    """compile_residual equals the reference fold and scale of the columns, bit for bit.

    The terms go in as expressions, as compile_fn callables, as objects
    with a ``column`` method, and as a mix of the three; a scan reads each
    column once, over the grid itself.
    """
    cols = [[evaluate(t, x) for x in xs] for t in terms]
    want = fold_columns(cols)
    least = min((abs(y) for y in want if math.isfinite(y)), default=math.inf)
    mixed = [(t, compile_fn(t), Column(t))[i % 3] for i, t in enumerate(terms)]
    for form in (terms, [compile_fn(t) for t in terms], [Column(t) for t in terms], mixed):
        scan = compile_residual(form)
        ys, scale, got = scan(xs)
        assert len(ys) == len(xs) and all(map(same_float, ys, want))
        assert same_float(scale, columns_scale(cols)) and same_float(got, least)
        assert all(t.grids == [xs] and t.grids[0] is xs for t in form if isinstance(t, Column))
        # a one-point grid gives the residual at that point
        assert all(same_float(scan([x])[0][0], y) for x, y in zip(xs, want))


class TestCompileResidual:
    """The fused scan loop: residual, scale and least |residual| in one pass."""

    XS = [-2.0, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0, math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("texts", [
        ["x^2 - 0.3"],                                          # one term
        ["3*x^2 + 1", "2*x"],                                   # two
        ["sin(x)", "x/3", "cos(2*x)", "0.25*x^3"],             # four
        ["exp(x)", "2.5"],                                      # a Const term
        ["1/x", "ln(x)"],                                       # raise at 0
        ["sqrt(x) + 1", "sqrt(x-0.5)", "x"],                    # sqrt of a negative
        ["ln(x) - 1/x", "exp(800*x)"],                          # -inf, inf and overflow
    ])
    def test_fold_and_scale_match_the_columns(self, texts):
        assert_residual_folds_columns([parse(t) for t in texts], self.XS)

    def test_a_leading_nan_does_not_hide_the_finite_maximum(self):
        # sqrt(x) is nan first, then finite and largest: columns_scale's second look
        terms = [parse("sqrt(x)*5"), parse("0.5")]
        xs = [-1.0, 0.0, 4.0, math.inf]
        assert_residual_folds_columns(terms, xs)
        assert compile_residual(terms)(xs)[1] == 10.0

    def test_no_finite_term_leaves_the_floor(self):
        terms = [parse("ln(x)"), parse("1/x")]
        xs = [-1.0, 0.0, -0.0, math.nan]
        assert_residual_folds_columns(terms, xs)
        assert compile_residual(terms)(xs)[1:] == (1.0, math.inf)

    def test_constants_and_the_variable_as_terms(self):
        for terms in ([Var()], [Const(-7.0), Var()], [Const(math.inf), Const(2.0)],
                      [Neg(Const(3.0)), Neg(Var())]):
            assert_residual_folds_columns(terms, self.XS)

    def test_one_shape_shares_one_code_object(self, monkeypatch):
        memo = mvtlab.expr._Memo(mvtlab.expr._CODE_MEMO, len)
        monkeypatch.setattr(mvtlab.expr, "_code", memo)
        s1, s2 = (compile_residual([parse(t), Const(c)])
                  for t, c in (("3*x^2-1", 0.5), ("-2*x^2+7", -4.0)))
        assert s1 is not s2 and s1.__code__ is s2.__code__
        assert len(memo.items) == 1
        assert s1([1.0]) == ([1.5], 2.0, 1.5) and s2([1.0]) == ([9.0], 5.0, 9.0)


@seed(20214)
@settings(max_examples=200)
@given(st.lists(_raising_expr, min_size=1, max_size=4),
       st.lists(_raising_x, min_size=1, max_size=8))
def test_compile_residual_folds_evaluate_s_columns(terms, xs):
    assert_residual_folds_columns(terms, xs)


def residual_source(terms, columns=()):
    """(source, scan): what compile_residual(terms, columns) generates, and its scan."""
    got, run = [], mvtlab.expr._run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mvtlab.expr, "_run", lambda src, kind, glb: (got.append(src),
                                                                  run(src, kind, glb)))
        scan = compile_residual(terms, columns)
    return got[0], scan


# compile_residual's source for one mix of terms (an expression, a column,
# a constant and a callable) with no extra columns, as the solvers build
# their scans: their code-memo entries must not change
_GOLDEN_SCAN = """def scan(xs):
    col1 = ext1.column(xs)
    col3 = [ext3(x) for x in xs]
    inf = float("inf")
    ninf = -inf
    hi, lo = 1.0, -1.0
    least, nleast = inf, ninf
    ys = []
    put = ys.append
    if hi < c7 < inf: hi = c7
    if lo > c7 > ninf: lo = c7
    for x, e1, e3 in zip(xs, col1, col3):
        try:
            t1 = x ** 2
            t2 = m_sin(x)
            t3 = t2 / x
            t5 = c4 * t1
            t6 = t5 - t3
        except _fault:
            t6, = map(_evaluate, program, (x,) * 1)
        if hi < t6 < inf: hi = t6
        if lo > t6 > ninf: lo = t6
        if hi < e1 < inf: hi = e1
        if lo > e1 > ninf: lo = e1
        if hi < e3 < inf: hi = e3
        if lo > e3 > ninf: lo = e3
        r = t6 - e1 - c7 - e3
        if nleast < r < least:
            least = m_abs(r)
            nleast = -least
        put(r)
    return ys, hi if hi > -lo else -lo, least
"""


def test_a_scan_without_columns_keeps_its_source():
    # the solvers' scans keep their code-memo entries
    terms = [parse("3*x^2-sin(x)/x"), Column(parse("x")), Const(2.5), math.cos]
    assert residual_source(terms)[0] == _GOLDEN_SCAN


# compile_residual's source with no terms, as the smoothness checks build
# their scans: the loop computes the columns and folds no residual
_GOLDEN_COLUMNS = """def scan(xs):
    inf = float("inf")
    ninf = -inf
    hi, lo = 1.0, -1.0
    least, nleast = inf, ninf
    ys = []
    put = ys.append
    out0 = []; put0 = out0.append
    out1 = []; put1 = out1.append
    for x in xs:
        try:
            t1 = x ** 2
            t2 = m_sin(x)
            t3 = t2 / x
            t5 = c4 * t1
            t6 = t5 - t3
        except _fault:
            t6, = map(_evaluate, program, (x,) * 1)
        put0(t6)
        put1(x)
    return ys, hi if hi > -lo else -lo, least, out0, out1
"""


def test_a_scan_without_terms_folds_no_residual():
    f, xs = parse("3*x^2-sin(x)/x"), [0.5, 2.0]
    src, scan = residual_source((), [f, Var()])
    assert src == _GOLDEN_COLUMNS
    loop = src[src.index("for x in xs:"):src.index("    return ")].splitlines()
    assert not [line for line in loop if re.search(r"\br =|least|put\(r\)", line)]
    assert scan(xs) == ([], 1.0, math.inf, [evaluate(f, x) for x in xs], xs)


def _column_free(src):
    # the lines a scan's extra columns add, and the return line, left out
    return [line for line in src.splitlines()
            if not re.search(r"\b(out|put)\d|^    return ", line)]


@seed(2028)
@settings(max_examples=200)
@given(st.lists(_raising_expr, min_size=1, max_size=3), st.lists(_raising_expr, max_size=3),
       st.lists(_raising_x, min_size=1, max_size=8), st.booleans())
def test_compile_residual_columns_equal_evaluate(terms, drawn, xs, callable_first):
    # columns drawn apart from the terms, the terms' subtrees and the terms
    # themselves, which the loop computes once a point
    form = [compile_fn(terms[0]), *terms[1:]] if callable_first else terms
    columns = [*drawn, *(t.left for t in terms if type(t) is Bin), *terms]
    src, scan = residual_source(form)
    scan_cols = compile_residual(form, columns)
    want, got = scan(xs), scan_cols(xs)
    assert len(got) == 3 + len(columns)
    assert all(map(same_float, got[0], want[0])) and len(got[0]) == len(xs)
    assert same_float(got[1], want[1]) and same_float(got[2], want[2])
    # each column is evaluate's, and the one a scan with no terms gives
    for col, c, free in zip(got[3:], columns, compile_residual((), columns)(xs)[3:]):
        assert len(col) == len(xs) and all(same_float(v, evaluate(c, x)) for x, v in zip(xs, col))
        assert all(map(same_float, free, col))
    # a one-point grid, as Brent polishing runs it
    assert all(same_float(scan_cols([x])[0][0], y) for x, y in zip(xs, want[0]))
    # columns the lowering already names add only their own lines
    exprs = [t for t in form if isinstance(t, Expr)]
    same_roots = residual_source(form, exprs)[0]
    assert _column_free(same_roots) == _column_free(src)
    assert same_roots.splitlines()[-1] == src.splitlines()[-1] + "".join(
        f", out{i}" for i in range(len(exprs)))


def assert_kernel_walks(q, p):
    """A panel kernel over q and p (None for none) equals one over their walks.

    Every sample, prefix and hand-over must come out the same.
    """
    ends = [-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 800.0, 1e103]
    calls = []

    def kernel(fns):
        panels, _, _ = compile_panels(fns[:1], fns[1:])
        calls.append(seen := [])

        def fallback(k, a, b):
            seen.append((k, a, b))
            return b - a

        return panels(ends, 1e-10, fallback)

    walks = [lambda x: evaluate(q, x), None if p is None else (lambda x: evaluate(p, x))]
    (pre1, tab1), (pre2, tab2) = kernel([q, p]), kernel(walks)
    for one, two in zip(pre1 + tab1, pre2 + tab2):
        assert len(one) == len(two) and all(map(same_float, one, two))
    assert calls[0] == calls[1]


@seed(20214)
@settings(max_examples=150)
@given(_raising_expr, st.one_of(st.none(), _raising_expr))
def test_panel_samples_fall_back_where_they_raise(q, p):
    assert_kernel_walks(q, p)


def other_sign_form(e):
    """``e`` with each sign written the other way, every node's value kept.

    u - w becomes u + (-w) and u + w becomes u - (-w); a negated constant
    becomes a constant, and a constant with its sign bit set a negated one.
    -w is a constant, a product with its constant factor negated, a Neg's
    child, or else a new Neg. IEEE 754 makes a - b equal a + (-b), and
    rounding is sign-symmetric, so every value stays bit for bit but for a
    nan's sign.
    """
    def negated(w):
        if type(w) is Const:
            return Const(-w.value)
        if type(w) is Neg:
            return w.child
        if type(w) is Bin and w.op == "*" and type(w.left) is Const:
            return Bin("*", Const(-w.left.value), w.right)
        if type(w) is Bin and w.op == "*" and type(w.right) is Const:
            return Bin("*", w.left, Const(-w.right.value))
        return Neg(w)

    new = {}
    for node in mvtlab.expr._postorder((e,)):
        kind = type(node)
        if kind is Bin and node.op in "+-":
            out = Bin("-" if node.op == "+" else "+", new[id(node.left)],
                      negated(new[id(node.right)]))
        elif kind is Bin:
            out = Bin(node.op, new[id(node.left)], new[id(node.right)])
        elif kind is Neg:
            child = new[id(node.child)]
            out = Const(-child.value) if type(child) is Const else Neg(child)
        elif kind is Call:
            out = Call(node.fn, new[id(node.arg)])
        elif kind is Const and math.copysign(1.0, node.value) < 0.0:
            out = Neg(Const(-node.value))
        else:
            out = node
        new[id(node)] = out
    return new[id(e)]


# u - c*v and u - v*c, the products whose sign lowering moves into c
_scaled_difference = st.builds(
    lambda u, c, v, left: Bin("-", u, Bin("*", c, v) if left else Bin("*", v, c)),
    _raising_expr, _any_const, _raising_expr, st.booleans())


@seed(20215)
@settings(max_examples=200)
@given(st.lists(st.one_of(_raising_expr, _scaled_difference), min_size=1, max_size=2),
       st.lists(_raising_x, min_size=1, max_size=8))
def test_both_sign_forms_compile_to_evaluate_s_values(exprs, xs):
    # lowering moves signs into constants and turns subtractions into
    # additions; on either form every compiled value equals evaluate's,
    # at clean points and at points that evaluate's walk reads
    others = [other_sign_form(e) for e in exprs]
    for e, o in zip(exprs, others):
        assert all(same_float(evaluate(o, x), evaluate(e, x)) for x in xs)
    for form in (exprs, others):
        scan = compile_residual((), form)
        for e, col in zip(form, scan(xs)[3:]):
            assert all(same_float(v, evaluate(e, x)) for x, v in zip(xs, col))
            assert all(same_float(compile_fn(e)(x), evaluate(e, x)) for x in xs)
        assert_kernel_walks(form[0], form[1] if len(form) > 1 else None)


class TestCompile:
    def test_fast_paths_at_range_edges(self):
        # every function, and x^k for k = 1..12, at the edges of the
        # ranges where plain generated code stops raising nothing
        trees = [Call(fn, Var()) for fn in FUNCTIONS]
        trees += [Bin("^", Var(), Const(float(k))) for k in range(1, 13)]
        lims = [2.0 ** (1023 // k) for k in range(1, 13)]
        xs = _edge_x + [y for v in lims + [-v for v in lims]
                        for y in (v, math.nextafter(v, 0.0))]
        for e in trees:
            f = compile_fn(e)
            for x in xs:
                assert same_float(f(x), evaluate(e, x)), (e, x)

    def test_signed_zero_constants_stay_apart(self):
        e = Bin("-", Bin("/", Const(1.0), Const(0.0)),
                Bin("/", Const(1.0), Const(-0.0)))
        assert compile_fn(e)(0.0) == math.inf

    def test_deep_tree_compiles(self):
        e = Var()
        for _ in range(3000):
            e = Bin("+", e, Var())
        assert compile_fn(e)(1.0) == 3001.0

    def test_shared_subexpressions_get_one_local_each(self):
        # the tree has 2,696 nodes but 93 distinct operations
        d = differentiate(parse("exp(sin(x))*ln(x+2)"), 5)
        assert compile_fn(d).__code__.co_nlocals <= 100

    def test_a_negated_operand_costs_a_statement_only_when_also_used_plainly(self):
        def lowered(src):
            return mvtlab.expr._lower((parse(src),), {}, "x")[0]

        # u - c*v is u + c'*v: one product, unless a parent also reads c*v
        assert sum(" * " in line for line in lowered("x - 1.5*x")) == 1
        assert sum(" * " in line for line in lowered("sin(1.5*x) + 1.5*x")) == 1
        assert sum(" * " in line for line in lowered("sin(1.5*x) - 1.5*x")) == 2
        # u - (-v) is u + v, and -c a constant: no negation is written
        assert not any("-" in line for line in lowered("x - -sin(x) + -2 - 3"))

    def test_terms_share_subexpressions(self, monkeypatch):
        # f^(4) and f^(5) repeat most of each other's subtrees, and the grid
        # loop computes each value once a point: read as the values they
        # hold, no two of its statements are the same
        memo = mvtlab.expr._Memo(mvtlab.expr._CODE_MEMO, len)
        monkeypatch.setattr(mvtlab.expr, "_code", memo)
        d1 = differentiate(parse("exp(sin(x))*ln(x+2)"), 4)
        d2 = differentiate(d1)
        grid = compile_residual((), [d1, d2])
        (src,) = memo.items
        body = src[src.index("try:"):src.index("except _fault:")].splitlines()[1:]
        consts = {k: repr(v) for k, v in grid.__globals__.items() if type(v) is float}
        held = {}  # a local's name -> the number of the value it holds
        values = {}  # a statement's value, its names read as held -> its number
        for name, rhs in (line.split(" = ") for line in body if " = " in line):
            value = re.sub(r"\w+", lambda m: held.get(m[0], consts.get(m[0], m[0])), rhs)
            assert value not in values, value
            values[value] = held[name.strip()] = f"#{len(values)}"
        apart = [len(mvtlab.expr._lower((d,), {}, "x")[0]) for d in (d1, d2)]
        assert len(values) < sum(apart)


@seed(20217)
@given(_expr, st.floats(-4.0, 4.0, allow_nan=False))
def test_simplify_preserves_value(e, x):
    a = evaluate(e, x)
    b = evaluate(simplify(e), x)
    if math.isnan(a):
        return  # simplification may enlarge the domain, never shrink it
    if math.isinf(a):
        assert b == a or math.isnan(b) is False
        return
    assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


class TestDifferentiation:
    def test_polynomial(self):
        d = differentiate(parse("x^3+2*x-1"))
        for x in (-2.0, -0.5, 0.0, 1.0, 3.0):
            assert evaluate(d, x) == pytest.approx(3 * x * x + 2)

    def test_second_order(self):
        d2 = differentiate(parse("x^4"), 2)
        assert evaluate(d2, 2.0) == pytest.approx(48.0)

    @pytest.mark.parametrize("src,deriv", [
        ("sin(x)", math.cos),
        ("cos(x)", lambda x: -math.sin(x)),
        ("exp(x)", math.exp),
        ("tan(x)", lambda x: 1 / math.cos(x) ** 2),
        ("atan(x)", lambda x: 1 / (1 + x * x)),
        ("asin(x)", lambda x: 1 / math.sqrt(1 - x * x)),
        ("acos(x)", lambda x: -1 / math.sqrt(1 - x * x)),
        ("ln(x)", lambda x: 1 / x),
        ("sqrt(x)", lambda x: 0.5 / math.sqrt(x)),
    ])
    def test_function_rules(self, src, deriv):
        d = differentiate(parse(src))
        for x in (0.2, 0.5, 0.9):
            assert evaluate(d, x) == pytest.approx(deriv(x), rel=1e-12)

    def test_quotient_rule(self):
        d = differentiate(parse("x/(1+x^2)"))
        x = 0.7
        want = (1 + x * x - x * 2 * x) / (1 + x * x) ** 2
        assert evaluate(d, x) == pytest.approx(want, rel=1e-12)

    def test_general_power_rule(self):
        d = differentiate(parse("x^x"))
        x = 1.3
        want = x ** x * (math.log(x) + 1)
        assert evaluate(d, x) == pytest.approx(want, rel=1e-12)

    def test_constant_base_power(self):
        d = differentiate(parse("2^x"))
        assert evaluate(d, 3.0) == pytest.approx(8.0 * math.log(2), rel=1e-12)

    def test_abs_derivative_is_sign(self):
        d = differentiate(parse("abs(x)"))
        assert evaluate(d, 2.0) == 1.0
        assert evaluate(d, -2.0) == -1.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            differentiate(parse("x"), 0)
        with pytest.raises(ValueError):
            differentiate(parse("x"), 1.5)

    def test_texts_match_the_golden_file(self):
        # orders 1-4 printed by the tree-copying differentiate/simplify
        # that the one-pass build replaced; every rule and fold is in use
        golden = json.loads((FIXTURES / "derivative_golden.json").read_text())
        assert len(golden) >= 30
        for src, texts in golden.items():
            f = parse(src)
            assert [unparse(differentiate(f, k)) for k in range(1, 5)] == texts, src

    def test_an_order_shares_the_subtrees_it_repeats(self):
        # the copying build made 200,406 node objects for 291,897 positions
        d8 = differentiate(parse("exp(sin(x))*ln(x+2)"), 8)
        assert len(mvtlab.expr._postorder((d8,))) <= 20_000
        assert evaluate(d8, 0.5) == compile_fn(d8)(0.5)

    def test_the_node_cap_admits_order_10_of_a_nested_product(self):
        d10 = differentiate(parse("exp(sin(x))*ln(x+2)"), 10)
        assert len(mvtlab.expr._postorder((d10,))) == 89_869 <= MAX_NODES

    def test_an_order_past_the_node_cap_raises_and_is_not_kept(self):
        # sin nested 99 deep: about 3.2 times the nodes an order, 124,940
        # at order 6
        f = parse("sin(" * 99 + "x" + ")" * 99)
        with deadline(10.0):
            with pytest.raises(ExpressionTooLarge, match="124940 distinct nodes"):
                differentiate(f, 12)
        d5 = differentiate(f, 5)
        assert getattr(d5, "_derivative", None) is None
        assert len(mvtlab.expr._postorder((d5,))) == 39_600

    def test_simplify_keeps_what_the_input_shares(self):
        shared = parse("sin(x)*1")
        e = Bin("+", shared, Neg(shared))
        out = simplify(e)
        assert out == parse("sin(x)+-sin(x)") and out.left is out.right.child


def _nodes_held(fn) -> list:
    """The expression nodes among a generated function's globals, tuples opened."""
    held, stack = [], list(fn.__globals__.values())
    while stack:
        v = stack.pop()
        if isinstance(v, tuple):
            stack.extend(v)
        elif isinstance(v, mvtlab.expr.Expr):
            held.append(v)
    return held


class TestMemo:
    """differentiate, compile_fn and evaluate keep their results on the node."""

    SOURCES = ["exp(sin(x))*ln(x+2)", "-x^-0.5/(1-x)", "abs(x)*sgn(x-1)+2^x"]

    def test_a_chain_is_built_once(self):
        f = parse("exp(sin(x))*ln(x+2)")
        assert differentiate(f, 3) is differentiate(differentiate(differentiate(f)))
        assert differentiate(differentiate(f), 2) is differentiate(f, 3)

    def test_a_tree_is_compiled_once(self):
        f = parse("exp(sin(x))*ln(x+2)")
        assert compile_fn(f) is compile_fn(f)
        d = differentiate(f)
        assert compile_fn(d) is compile_fn(differentiate(f))

    def test_a_tree_is_read_into_steps_once(self, monkeypatch):
        # evaluate and the generated code's fallback run the steps the root keeps
        d = differentiate(parse("exp(sin(x))*ln(x+2)"), 2)
        v = evaluate(d, 0.5)
        assert compile_fn(d).__globals__["program"][0] is mvtlab.expr._steps(d)
        monkeypatch.setattr(mvtlab.expr, "_postorder", None)  # no second walk
        assert evaluate(d, 0.5) == v and math.isnan(evaluate(d, -3.0))

    def test_the_memo_belongs_to_the_node_not_its_value(self):
        # equal trees parsed apart keep memos of their own
        f, g = parse("x^2"), parse("x^2")
        assert f == g and compile_fn(f) is not compile_fn(g)
        assert differentiate(f) is not differentiate(g)

    @pytest.mark.parametrize("src", SOURCES)
    def test_the_memo_is_not_part_of_the_value(self, src):
        f = parse(src)
        compile_fn(differentiate(f, 2))
        compile_fn(differentiate(f))
        compile_fn(f)
        fresh = parse(src)
        assert f == fresh and hash(f) == hash(fresh)
        assert repr(f) == repr(fresh) and unparse(f) == unparse(fresh)
        for back in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
            assert back == fresh and hash(back) == hash(fresh)
            assert mvtlab.expr._postorder((back,))[-1] is back  # its own walk
            assert unparse(back) == unparse(fresh)
            assert differentiate(back, 2) == differentiate(f, 2)

    def test_a_tree_is_freed_with_its_walks_without_the_cycle_collector(self):
        # a kept walk lists every node but its root, so it never refers back;
        # nor does a derivative of exp(u), sqrt(u) or u^v hold the root that
        # keeps it as its derivative memo
        gc.collect()
        gc.disable()
        try:
            f = parse("exp(sin(x))*ln(x+2)+abs(x-0.3)")
            sign_sensitive_args(differentiate(f, 2))
            assert evaluate(f, 0.5) == evaluate(f, 0.5) and unparse(f)
            roots = [parse(text) for text in ("exp(2*x)", "sqrt(x+1)", "x^x")]
            assert [evaluate(differentiate(g, 2), 1.0) for g in roots] == pytest.approx(
                [4.0 * math.exp(2.0), -0.25 * 2.0 ** -1.5, 2.0])
            del f, roots
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("build", ["compile_fn", "term_free_scan", "compile_residual",
                                       "compile_panels"])
    def test_compiled_code_is_freed_without_the_cycle_collector(self, build):
        # a generated function its own globals held left each build to the
        # cycle collector (64 objects a compile_fn), and so would a fallback
        # holding nodes whose memos reach the compile_fn callable, so the
        # generated code holds no node at all; ln and sqrt raise below 0 and
        # exp past 709.78, so every build here reads a point by evaluate's walk
        ends = [-3.0, -2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        gc.collect()
        gc.disable()
        try:
            f = parse("exp(sin(x))*ln(x+2)-1.5*sqrt(x)")
            if build == "compile_fn":
                # the derivatives of exp(u) and sqrt(u) hold the node's copy
                fn, fe, fs = (compile_fn(differentiate(g))
                              for g in (f, parse("exp(2*x)"), parse("sqrt(x+1)")))
                assert [math.isnan(fn(x)) for x in ends[:2]] == [True, True]
                assert fe(400.0) == math.inf and math.isnan(fs(-3.0))
                assert _nodes_held(fe) == _nodes_held(fs) == []
                del fe, fs
            elif build == "term_free_scan":
                fn = compile_residual((), [f, differentiate(f)])
                assert math.isnan(fn(ends)[3][0])
            elif build == "compile_residual":
                fn = compile_residual([f, differentiate(f), math.cos])
                assert math.isnan(fn(ends)[0][0])
            else:
                fn = compile_panels([f, math.cos], [f, None])[0]
                assert math.isnan(fn(ends, 1e-10, lambda k, a, b: b - a)[1][0][0])
            assert _nodes_held(fn) == []
            del f, fn
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_request_builds_each_derivative_order_once(self, monkeypatch):
        # the solver, the endpoint hypothesis (and its one-sided derivative)
        # and the verification of every point walk the same chain; _d
        # builds one whole order step a call
        built = []
        original = mvtlab.expr._d

        def counted(e):
            built.append(e)
            return original(e)

        monkeypatch.setattr(mvtlab.expr, "_d", counted)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["solve", "pawlikowska", "--fn", "exp(sin(x))*ln(x+2)",
                         "-a", "0", "-b", "3", "--n", "4"])
        assert code == 0 and '"points": [' in out.getvalue()
        assert len(built) == 4
        assert built[0] == parse("exp(sin(x))*ln(x+2)")


class TestCodeMemo:
    """Generated code is compiled once per source text per process."""

    # one shape each, with different constants; every constant of a tree is
    # distinct, so none merges with another
    SHAPE = ("3.5*sin(x)+x^2-0.5", "7.25*sin(x)+x^2-4")
    XS = [-2.0, -1.0, -0.0, 0.0, 0.3, 1.0, 2.5, math.inf, math.nan]

    @pytest.fixture
    def codes(self, monkeypatch):
        """A fresh, empty memo in place of the process's own."""
        memo = mvtlab.expr._Memo(mvtlab.expr._CODE_MEMO, len)
        monkeypatch.setattr(mvtlab.expr, "_code", memo)
        return memo

    def test_one_shape_shares_one_code_object(self, codes):
        t1, t2 = (parse(s) for s in self.SHAPE)
        f1, f2 = compile_fn(t1), compile_fn(t2)
        assert f1 is not f2 and f1.__code__ is f2.__code__
        assert len(codes.items) == 1
        for t, f in ((t1, f1), (t2, f2)):
            assert all(same_float(f(x), evaluate(t, x)) for x in self.XS)

    def test_one_shape_shares_one_grid(self, codes):
        trees = [[t, differentiate(t)] for t in (parse(s) for s in self.SHAPE)]
        grid1, grid2 = (compile_residual((), ts) for ts in trees)
        assert grid1 is not grid2 and grid1.__code__ is grid2.__code__
        for ts, grid in ((trees[0], grid1), (trees[1], grid2)):
            for t, col in zip(ts, grid(self.XS)[3:]):
                assert all(same_float(v, evaluate(t, x)) for x, v in zip(self.XS, col))

    def test_a_raising_point_compiles_nothing(self, codes):
        # the grid mixes raising and clean points; evaluate's walk reads
        # the raising ones, so the one source stays the only one
        f, g = parse("ln(x)/x+x^3"), parse("sqrt(x)+asin(x)")
        grid = compile_residual((), [f, g])
        mixed = [-1.0, 0.0, 0.25, 0.5, 2.0, 1.0]
        for t, col in zip((f, g), grid(mixed)[3:]):
            assert all(same_float(v, evaluate(t, x)) for x, v in zip(mixed, col))
        assert len(codes.items) == 1

    def test_panel_point_functions_are_the_trees_compiled_callables(self):
        f, g = parse("exp(0.7*x)"), parse("x^3+0.3")
        h = math.cos
        panels, qs, ps = compile_panels([f, h], [g, None])
        assert qs[0] is compile_fn(f) and qs[1] is h
        assert ps[0] is compile_fn(g) and ps[1] is None
        assert not [name for name in panels.__globals__ if name.startswith("point")]

    def test_one_shape_shares_one_panel_kernel(self, codes):
        ends = [0.0] + [i / 256 for i in range(1, 257)]
        builds = []
        calls = []

        def fallback(k, a, b):
            calls.append((k, a, b))
            return 0.0

        for f in (parse(s) for s in self.SHAPE):
            g = differentiate(f)
            panels, qs, ps = compile_panels([f], [g])
            assert all(same_float(qs[0](x), evaluate(f, x)) for x in self.XS)
            assert all(same_float(ps[0](x), evaluate(g, x)) for x in self.XS)
            # the same build over compiled callables lowers to other source,
            # which calls them instead of inlining the trees
            apart, _, _ = compile_panels([compile_fn(f)], [compile_fn(g)])
            assert apart.__code__ is not panels.__code__
            assert panels(ends, 1e-10, fallback) == apart(ends, 1e-10, fallback)
            # every step over four panels passes here: only the first panel
            # and the 3 left over past the last step are handed over
            assert calls == [(0, 0.0, 1 / 256), (0, 253 / 256, 254 / 256),
                             (0, 254 / 256, 255 / 256), (0, 255 / 256, 1.0)] * 2
            calls.clear()
            builds.append((panels, qs[0], ps[0]))
        for one, two in zip(*builds):
            assert one is not two and one.__code__ is two.__code__

    def test_an_integer_exponent_is_part_of_the_source(self, codes):
        cube, fourth = compile_fn(parse("x^3")), compile_fn(parse("x^4"))
        assert cube.__code__ is not fourth.__code__
        assert (cube(2.0), fourth(2.0)) == (8.0, 16.0)

    def test_signed_zero_constants_share_code_and_keep_their_signs(self, codes):
        def tree(zero):  # 1/(x*zero)+1, built past the parser, which reads -0.0 as Neg
            return Bin("+", Bin("/", Const(1.0), Bin("*", Var(), Const(zero))), Const(1.0))

        plus, minus = tree(0.0), tree(-0.0)
        assert compile_fn(plus).__code__ is compile_fn(minus).__code__
        assert compile_fn(plus)(-1.0) == -math.inf == evaluate(plus, -1.0)
        assert compile_fn(minus)(-1.0) == math.inf == evaluate(minus, -1.0)

    def test_sign_variants_share_one_code_object(self, codes):
        # all 32 sign variants of c0±c1*(x±s)±c2*(x±s)^2±c3*(x±s)^3, the
        # leading sign and the shift's included: the signs go into constants
        trees = [parse(f"{s0}0.7{s1}1.3*(x{sh}1.9){s2}2.9*(x{sh}1.9)^2{s3}0.45*(x{sh}1.9)^3")
                 for s0, s1, s2, s3, sh in itertools.product(("", "-"), *["+-"] * 4)]
        fns = [compile_fn(t) for t in trees]
        grids = [compile_residual((), [t, differentiate(t)]) for t in trees]
        kernels = [compile_panels([t], [differentiate(t)])[0] for t in trees]
        for made in (fns, grids, kernels):
            assert len(made) == 32 and len({fn.__code__ for fn in made}) == 1
        # f's and f''s point functions, the grid, and the panel kernel
        assert len(codes.items) == 4
        for t, fn, grid in zip(trees, fns, grids):
            assert all(same_float(fn(x), evaluate(t, x)) for x in self.XS)
            for e, col in zip((t, differentiate(t)), grid(self.XS)[3:]):
                assert all(same_float(v, evaluate(e, x)) for x, v in zip(self.XS, col))

    def test_the_held_source_stays_within_the_bound(self, monkeypatch):
        memo = mvtlab.expr._Memo(4096, len)
        monkeypatch.setattr(mvtlab.expr, "_code", memo)
        first = compile_fn(parse("x^1")).__code__
        second = compile_fn(parse("x^2")).__code__
        for k in range(3, 200):
            compile_fn(parse(f"x^{k}"))
            compile_fn(parse("x^1"))  # a hit makes it the most recently used
            assert memo.held == sum(map(len, memo.items)) <= 4096
        assert len(memo.items) > 10
        assert compile_fn(parse("x^1")).__code__ is first
        assert compile_fn(parse("x^2")).__code__ is not second  # evicted, compiled anew
        # a source longer than the bound still compiles, and is kept alone
        long = parse("+".join(f"x^{k}" for k in range(1, 90)))
        assert compile_fn(long)(1.0) == 89.0
        assert len(memo.items) == 1 and memo.held > 4096
        compile_fn(parse("x^3"))
        assert len(memo.items) == 1 and memo.held < 4096

    def test_main_leaves_the_memo_filled(self, codes):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["classify", "--fn", "x^3", "--a=-1", "-b", "1", "--stable"])
        assert code == 0 and codes.items and codes.held > 0

    def test_classify_compiles_less_than_once_and_a_half_a_request(self, codes, monkeypatch):
        # a constant's value written into generated source would compile
        # every request anew (3.1 compiles a request)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from workloads import request_list

        compiled = []

        def counted(*args):
            compiled.append(args[0])
            return compile(*args)

        monkeypatch.setattr(mvtlab.expr, "compile", counted, raising=False)
        requests = request_list("classify-coarse", 1)[:300]
        for req in requests:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(list(req.argv)) in (0, 1, 2, 3)
        assert 0 < len(compiled) < 1.5 * len(requests)

    def test_a_second_classify_list_compiles_almost_nothing(self, codes, monkeypatch):
        # trees of one shape lower to one source whatever the signs of their
        # coefficients, and the memo holds the workload's sources: a second
        # list of the same strata with new coefficients finds them all
        # (a source per sign pattern made 270 and 168 compiles)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from workloads import request_list

        compiled = []

        def counted(*args):
            compiled.append(args[0])
            return compile(*args)

        monkeypatch.setattr(mvtlab.expr, "compile", counted, raising=False)
        counts = []
        for seed_ in (1, 2):
            before = len(compiled)
            for req in request_list("classify-coarse", seed_)[:300]:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    assert main(list(req.argv)) in (0, 1, 2, 3)
            counts.append(len(compiled) - before)
        assert counts[0] <= 60 and counts[1] <= 10

    def test_a_warm_pointwise_pass_compiles_nothing(self, codes, monkeypatch):
        # every identity's scan, point functions and checks, twice over one
        # slice: the memo holds every source the first pass made
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from workloads import request_list

        compiled = []

        def counted(*args):
            compiled.append(args[0])
            return compile(*args)

        monkeypatch.setattr(mvtlab.expr, "compile", counted, raising=False)
        requests = request_list("pointwise", 1)[:20]
        counts = []
        for _ in range(2):
            before = len(compiled)
            for req in requests:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    assert main(list(req.argv)) in (0, 1, 3)
            counts.append(len(compiled) - before)
        assert counts[0] > 0 and counts[1] == 0


class TestSimplify:
    def test_constant_folding(self):
        assert simplify(parse("2+3*4")) == Const(14.0)

    def test_identity_elimination(self):
        assert simplify(Bin("*", Const(1.0), Var())) == Var()
        assert simplify(Bin("+", Const(0.0), Var())) == Var()
        assert simplify(Bin("^", Var(), Const(1.0))) == Var()

    def test_self_difference(self):
        assert simplify(Bin("-", Var(), Var())) == Const(0.0)

    def test_never_folds_to_nonfinite(self):
        e = simplify(parse("1/0"))
        assert not isinstance(e, Const)


class TestStructure:
    def test_substitute(self):
        e = substitute(parse("x^2+x"), parse("x+1"))
        assert evaluate(e, 2.0) == 12.0

    def test_sign_sensitive_args(self):
        args = sign_sensitive_args(parse("abs(x)*sgn(x-1)+sin(x)"))
        assert parse("x") in args
        assert parse("x-1") in args
        assert len(args) == 2

    def test_substitute_keeps_the_sharing_it_is_given(self):
        # 291,897 positions over 11,048 distinct nodes
        d8 = differentiate(parse("exp(sin(x))*ln(x+2)"), 8)
        out = substitute(d8, parse("x+1"))
        assert len(mvtlab.expr._postorder((out,))) <= 20_000
        assert evaluate(out, 0.5) == evaluate(d8, 1.5)

    def test_a_tree_deeper_than_the_recursion_limit_goes_through_every_pass(self):
        e = deep_abs_tree(5000)
        assert evaluate(e, 0.25) == compile_fn(e)(0.25) == -0.25
        assert unparse(e) == "-abs(" * 2500 + "x-0.5" + ")" * 2500
        assert evaluate(substitute(e, parse("x+0.25")), 0.0) == -0.25
        assert evaluate(simplify(e), 0.25) == -0.25
        d = differentiate(e)
        assert evaluate(d, 0.25) == compile_fn(d)(0.25) in (-1.0, 1.0)

    def test_unparse_memory_grows_linearly_with_depth(self):
        # each level's text is dropped once its parent has printed it; when
        # every level's text was kept, doubling the depth quadrupled the peak
        peaks = []
        for depth in (2000, 4000):
            e = deep_abs_tree(depth)
            tracemalloc.start()
            try:
                text = unparse(e)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(text) == 3 * depth + 5
        assert peaks[1] < 3 * peaks[0]

    def test_postorder_lists_each_node_once_after_its_children(self):
        shared = parse("sin(x)")
        inner = Bin("*", shared, Var())
        e = Bin("+", shared, inner)
        nodes = mvtlab.expr._postorder((e, shared))
        assert nodes == [shared.arg, shared, inner.right, inner, e]
        assert [id(n) for n in nodes[:2]] == [id(shared.arg), id(shared)]
        with pytest.raises(TypeError):
            mvtlab.expr._postorder((Bin("+", Var(), 1.0),))

    def test_sign_sensitive_args_of_a_deep_tree(self):
        # built past the parser's depth cap, deeper than the recursion limit
        e = deep_abs_tree(5000)
        args = sign_sensitive_args(e)
        assert len(args) == 2500
        # innermost first
        assert args[0] == Bin("-", Var(), Const(0.5)) and args[-1] is e.child.arg

    def test_operator_overloading(self):
        e = (Var() + 1) * 2 - Var() ** 2
        assert evaluate(e, 3.0) == -1.0

    def test_str_is_parseable(self):
        e = parse("sin(x)^2/(1+x)")
        assert parse(str(e)) == e
