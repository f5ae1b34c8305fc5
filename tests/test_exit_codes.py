"""Fuzz of the CLI's exit-code contract.

Every request ends in exit 0 (points found and re-verified), 1 (hypothesis
not satisfied), 2 (usage error, argparse's included) or 3 (numeric failure
or no points), and never lets an exception escape. Requests are random
function text, some well formed and some not, random endpoints and every
``solve`` theorem, with and without the second function, weight and order
each theorem may or may not take. The grid is small, so the whole fuzz
fits its time budget inside the default test run.
"""

import contextlib
import io
import time

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, seed, settings

from mvtlab.cli import _SOLVES, main
from mvtlab.expr import FUNCTIONS
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

_endpoint = st.sampled_from(["0", "1", "-1", "pi", "-pi/2", "1e300", "-1e308", "1e999",
                             "x", "", "nan", "1/0", "0/0", "sin("])
_interval = st.tuples(st.floats(-3.0, 3.0), st.floats(0.1, 4.0)).map(
    lambda aw: (repr(aw[0]), repr(aw[0] + aw[1])))


@st.composite
def _request(draw):
    """Three requests in four are well formed: well-formed text, the inputs
    the theorem takes and no other, an interval with a < b or none where the
    theorem lives on [0, 1]. The fourth mixes in malformed text, inputs
    given or left out at random, and any endpoints."""
    theorem = draw(st.sampled_from(sorted(_SOLVES)))
    thms = [THEOREMS[tid] for tid in _SOLVES[theorem][0]]
    loose = draw(st.sampled_from([False, False, False, True]))
    fn = st.one_of(_text, _soup) if loose else _text
    argv = ["solve", theorem, f"--fn={draw(fn)}", "--scan-points", "256", "--stable"]
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
    return argv


@seed(20218)
@settings(max_examples=EXAMPLES, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_request())
def _ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends usage errors this way
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


def test_every_request_ends_in_a_documented_exit_code():
    start = time.perf_counter()
    _ends_in_a_documented_exit_code()
    assert time.perf_counter() - start < BUDGET_S
