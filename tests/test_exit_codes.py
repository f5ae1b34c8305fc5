"""Fuzz of the CLI's exit-code contract.

Every request ends in exit 0 (points found and re-verified), 1 (hypothesis
not satisfied), 2 (usage error, argparse's included) or 3 (numeric failure
or no points), and never lets an exception escape. Requests are random
function text, some well formed and some not, random endpoints, and
``classify`` or any ``solve`` theorem, with and without the second
function, weight and order each theorem may or may not take, or a
``corpus`` file of random records, malformed lines, non-finite numbers and
bytes that are not UTF-8. One request in four also reads an
``MVT_LAB_CONFIG`` file: random JSON, a value that is not an object,
known and unknown fields with good, non-finite and mistyped numbers, deep
nesting, or bytes that are not UTF-8. The grid is small, so the whole fuzz
fits its time budget inside the default test run. A second, smaller fuzz
draws functions nested up to MAX_DEPTH deep at orders up to
MAX_SUM_ORDER; the large ones end at the derivative node cap (MAX_NODES),
exit 2.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, seed, settings

from mvtlab.cli import _CONFIG_FIELDS, _SOLVES, main
from mvtlab.expr import FUNCTIONS, MAX_DEPTH, MAX_NODES
from mvtlab.generalized import MAX_SUM_ORDER
from mvtlab.verify import THEOREMS

BUDGET_S = 10.0  # wall time for all examples together
EXAMPLES = 400

# well-formed text: numbers, x, the named constants and every function,
# combined by every operator, parenthesised where precedence needs it
_atom = st.one_of(st.sampled_from(["x", "pi", "e", "0", "1", "2", "0.5", "3.7", "1e-3",
                                   "1e300", "1e999"]),
                  st.floats(-5.0, 5.0, allow_nan=False).map(lambda v: f"({v!r})"))
_text = st.recursive(
    _atom,
    lambda sub: st.one_of(
        st.builds(lambda a, op, b: f"({a}){op}({b})", sub, st.sampled_from("+-*/^"), sub),
        st.builds(lambda fn, a: f"{fn}({a})", st.sampled_from(FUNCTIONS), sub),
        sub.map(lambda a: f"-{a}"),
    ),
    max_leaves=10,
)
# malformed text: token soup the parser must reject or read
_soup = st.lists(st.sampled_from(["x", "1", "+", "-", "*", "/", "^", "(", ")", "sin(",
                                  "ln(", "foo", ",", " ", ".", "e", "x^x", "nan", "inf"]),
                 max_size=8).map("".join)

_endpoint = st.sampled_from(["0", "1", "-1", "pi", "-pi/2", "1e300", "-1e308", "1e308",
                             "1e999", "x", "", "nan", "1/0", "0/0", "sin("])
# (a, width): near 0; far from 0 and a few ulps to a few hundred ulps wide,
# where the endpoint margin rounds away; and about 1e-300 wide
_interval = st.one_of(
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.1, 4.0)),
    st.tuples(st.floats(1e15, 1e17) | st.floats(-1e17, -1e15), st.floats(1.0, 1e3)),
    st.tuples(st.sampled_from([0.0, -1e-300, 1e-300]), st.floats(1e-301, 1e-299)),
).map(lambda aw: (repr(aw[0]), repr(aw[0] + aw[1])))


# corpus records: JSON values of every type for the endpoints and the
# expectations, non-finite numbers among them (json.dumps writes NaN and
# Infinity, which json.loads reads back)
_number = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([math.inf, -math.inf, math.nan,
                                                            1e308, -1e308]))
_value = st.one_of(_number, _endpoint, st.sampled_from([True, None, [1], {}]))
_record = st.fixed_dictionaries(
    {"fn": st.one_of(_text, _soup), "a": _value, "b": _value},
    optional={"expect": st.one_of(_value, st.dictionaries(
        st.sampled_from(["flett", "trahan", "tong", "has_flett_point", "M", "I", "nope"]),
        st.one_of(_value, st.sampled_from(["Satisfied", "NotApplicable"])), max_size=3))})
_line = st.one_of(
    _record.map(json.dumps).map(str.encode),
    st.tuples(_text, _interval).map(
        lambda t: json.dumps({"fn": t[0], "a": t[1][0], "b": t[1][1]}).encode()),
    st.sampled_from([b"", b"  ", b"{oops", b"[1, 2]", b'"text"', b'{"fn": 1, "a": 0, "b": 1}',
                     b'{"fn": "x"}', b'{"fn": "x", "a": 0, "b": 1e999}',
                     b'{"fn": "x", "a": -Infinity, "b": NaN}', b"[" * 5000,
                     b"\xff\xfe", b'{"fn": "x\xc3", "a": 0, "b": 1}', b"\xed\xa0\x80"]))
_corpus = st.lists(_line, max_size=4).map(b"\n".join)

# MVT_LAB_CONFIG files. The flags every request passes beat the file's
# scan_points, and 2 ** 21 is past the cap, so no grid grows.
_config_value = st.sampled_from([8, 64, 256, 2 ** 21, 0.5, 0.01, 1e-6, 0, -1, 1e-320,
                                 math.inf, -math.inf, math.nan, True, None, "1e-6",
                                 [1], {}])
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), st.integers(), st.text(max_size=6)),
    lambda sub: st.one_of(st.lists(sub, max_size=3),
                          st.dictionaries(st.text(max_size=6), sub, max_size=3)),
    max_leaves=8)
_config = st.one_of(
    st.dictionaries(st.sampled_from([*_CONFIG_FIELDS, "grid", ""]), _config_value,
                    max_size=3).map(json.dumps).map(str.encode),
    _json.map(json.dumps).map(str.encode),
    st.sampled_from([b"[" * 100000 + b"]" * 100000, b'{"a": ' * 5000 + b"1" + b"}" * 5000,
                     b"[" * 5000]),
    st.sampled_from([b"", b"{oops", b"[]", b'"text"', b"null", b"3", b"NaN",
                     b"\xff\xfe", b'{"quad_tol": "\xc3"}', b"\xed\xa0\x80"]))


@st.composite
def _request(draw):
    """Returns (argv, corpus file bytes or None, config file bytes or None).

    One request in eight is a corpus, whose file the test writes and
    appends as the path; two in eight are a classify, which takes f and an
    interval only; the others solve a theorem. Three requests in four are
    well formed: well-formed text, the inputs the theorem takes and no
    other, an interval with a < b or none where the theorem lives on
    [0, 1]. The fourth mixes in malformed text, inputs given or left out at
    random, and any endpoints. Apart from all that, one request in four
    reads a config file."""
    config = draw(_config) if draw(st.sampled_from([False, False, False, True])) else None
    command = draw(st.sampled_from(["solve"] * 5 + ["classify"] * 2 + ["corpus"]))
    if command == "corpus":
        return ["corpus", "--scan-points", "256", "--stable"], draw(_corpus), config
    if command == "classify":
        command, thms = ["classify"], []
    else:
        theorem = draw(st.sampled_from(sorted(_SOLVES)))
        command, thms = ["solve", theorem], [THEOREMS[tid] for tid in _SOLVES[theorem][0]]
    loose = draw(st.sampled_from([False, False, False, True]))
    fn = st.one_of(_text, _soup) if loose else _text
    argv = [*command, f"--fn={draw(fn)}", "--scan-points", "256", "--stable"]
    for flag, taken in (("--gn", any(t.needs_g for t in thms)),
                        ("--weight", any(t.needs_weight for t in thms)),
                        ("--n", any(t.takes_n for t in thms))):
        if draw(st.booleans()) if loose else taken:
            value = str(draw(st.integers(-1, 4) if loose else st.integers(1, 4))) \
                if flag == "--n" else draw(fn)
            argv.append(f"{flag}={value}")
    if loose:
        a, b = draw(st.tuples(st.one_of(_endpoint, st.none()), st.one_of(_endpoint, st.none())))
    elif any(t.unit_only for t in thms):
        a = b = None
    else:
        a, b = draw(_interval)
    argv += [f"--{flag}={v}" for flag, v in (("a", a), ("b", b)) if v is not None]
    return argv, None, config


def _run(argv, corpus=None, config=None):
    """(exit code, stderr) of one request run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        def write(body, suffix):
            fd, path = tempfile.mkstemp(suffix=suffix)
            stack.callback(os.unlink, path)
            with os.fdopen(fd, "wb") as fh:
                fh.write(body)
            return path

        if corpus is not None:
            argv = [*argv, write(corpus, ".jsonl")]
        previous = os.environ.pop("MVT_LAB_CONFIG", None)
        if previous is not None:
            stack.callback(os.environ.__setitem__, "MVT_LAB_CONFIG", previous)
        if config is not None:
            os.environ["MVT_LAB_CONFIG"] = write(config, ".json")
            stack.callback(os.environ.pop, "MVT_LAB_CONFIG")
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends usage errors this way
            code = exc.code
    return code, err.getvalue()


@seed(20218)
@settings(max_examples=EXAMPLES, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_request())
def _ends_in_a_documented_exit_code(request):
    code, err = _run(*request)
    assert code in (0, 1, 2, 3), (request, code, err)
    assert "Traceback" not in err, request


def test_every_request_ends_in_a_documented_exit_code():
    start = time.perf_counter()
    _ends_in_a_documented_exit_code()
    assert time.perf_counter() - start < BUDGET_S


@pytest.mark.parametrize("argv,want", [
    # the 1e-9 endpoint margin rounds away: the scan stays a ulp inside
    (["flett", "--fn", "sin(x)", "--a=1e17", "--b=100000000000000100"], 1),
    (["meyers-2.3", "--fn", "x^2", "--a=1e15", "--b=1000000000000001"], 3),
    # one ulp wide: no float lies inside, so there is no open scan
    (["flett", "--fn", "sin(x)", "--a=1e17", "--b=100000000000000016"], 3),
    # g(xi) - g(a) is 0 in the first, g'(xi) in the second: the multiplied-
    # through sides are compared
    (["cauchy-flett", "--fn", "sin(x)", "--gn", "exp(x)", "-a", "0", "-b", "1e-300"], 0),
    (["cauchy-flett", "--fn", "(x-0.25)^3", "--gn", "(x-0.25)^2+1", "-a", "0", "-b", "1"], 0),
])
def test_an_endpoint_or_a_vanishing_denominator_is_no_traceback(argv, want):
    code, err = _run(["solve", *argv, "--stable"])
    assert (code, "Traceback" in err) == (want, False), err


# Deep nests and high orders: up to MAX_DEPTH functions nested around x,
# classified or solved by the order-n alternating sum up to MAX_SUM_ORDER.
# Each derivative order holds about three times the nodes of the one
# before, so the node cap on derivatives (exit 2) ends the large ones.
DEEP_BUDGET_S = 30.0
DEEP_EXAMPLES = 12

# one to three functions, taken in turn to the depth drawn; half of them
# from the functions finite everywhere, whose nests get past f(a)
_nest = st.tuples(st.lists(st.sampled_from(FUNCTIONS), min_size=1, max_size=3)
                  | st.lists(st.sampled_from(["sin", "cos", "atan"]), min_size=1, max_size=3),
                  st.integers(1, MAX_DEPTH)).map(
    lambda t: "".join(f"{t[0][i % len(t[0])]}(" for i in range(t[1])) + "x" + ")" * t[1])


@st.composite
def _deep_request(draw):
    argv = ["classify"] if draw(st.booleans()) else \
        ["solve", "pawlikowska", f"--n={draw(st.integers(1, MAX_SUM_ORDER))}"]
    return [*argv, f"--fn={draw(_nest)}", "-a", "0.25", "-b", "0.75",
            "--scan-points", "256", "--stable"]


@seed(20218)
@settings(max_examples=DEEP_EXAMPLES, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_deep_request())
def _deep_ends_in_a_documented_exit_code(argv):
    code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, argv


def test_deep_nests_and_high_orders_end_in_a_documented_exit_code():
    start = time.perf_counter()
    _deep_ends_in_a_documented_exit_code()
    assert time.perf_counter() - start < DEEP_BUDGET_S


def _past_the_node_cap(code, err):
    return code == 2 and err.count("\n") == 1 and f"past the cap of {MAX_NODES}" in err


def test_a_deep_nest_at_order_12_exits_2_within_10_s():
    # sin nested 99 deep, within the parser's cap: order 6 holds 124,940
    # distinct nodes
    start = time.perf_counter()
    code, err = _run(["solve", "pawlikowska", "--fn", "sin(" * 99 + "x" + ")" * 99,
                      "-a", "0", "-b", "1", "--n", "12"])
    assert _past_the_node_cap(code, err), err
    assert time.perf_counter() - start < 10.0


def test_a_wide_sum_past_the_node_cap_is_a_classify_usage_error():
    # a balanced sum of 4,096 terms, 12 levels of sums deep: f has 53,247
    # distinct nodes and f' 102,399
    terms = ["x^2*exp(-x)*sin(3*x)"] * 4096
    while len(terms) > 1:
        terms = [f"({a})+({b})" for a, b in zip(terms[::2], terms[1::2])]
    code, err = _run(["classify", "--fn", terms[0], "-a", "0", "-b", "1"])
    assert _past_the_node_cap(code, err), err
