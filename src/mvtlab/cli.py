"""Command-line interface: parse a request, run solvers, emit a report.

Reports are JSON on stdout with diagnostics on stderr, so output can be
piped into other tools. Numbers are printed with 17 significant digits and
the layout is produced by a deterministic writer: identical invocations
give byte-identical output, with timing segregated under a "meta" key that
--stable removes entirely.

Exit codes: 0 points found (or degenerate); 1 hypothesis unsatisfied and
nothing found; 2 parse or usage error, or a derivative past the node cap
(``mvtlab.expr.MAX_NODES``); 3 numeric failure (including a report whose
points fail re-verification).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time

from .expr import Expr, ExpressionTooLarge, ParseError, Var, _postorder, evaluate, parse
from .numerics import (
    DomainError, HypothesisError, Interval, NoRootFound, PointResult, Points,
    QuadratureError, SolverConfig, SolverError, TheoremId, close,
)
from .mvt_points import (
    cauchy_points, integral_mvt_points, lagrange_points, rolle_points,
)
from .flett import meyers_points
from .conditions import classify
from .generalized import (
    cakmak_tiryaki_points, pawlikowska_points, riedel_sahoo_points,
    second_order_points,
)
from .operators import (
    cauchy_flett_points, lupu_4_6_points, lupu_4_7_points, thm_4_9_points,
    thm_4_10_points, weighted_norm_point, weighted_norms,
)
# verify_point is unused here but bench/tracer.py patches it
from .verify import THEOREMS, Inputs, _check, verify_point

__all__ = ["main"]

_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(SolverConfig))


def _flett_family(tid: TheoremId):
    return (tid,), lambda q: [meyers_points(tid, q.f, q.iv, q.cfg)]


# solve command -> (the theorem ids it reports, the call giving one point
# list per id). A group reports the hypothesis flag of the list its solver
# returned: a Points list carries the flag its solver computed, with or
# without points, and the operator solvers' plain lists carry none. The
# calls go through the names imported above, which the benchmark's tracer
# (bench/tracer.py) wraps.
_SOLVES = {
    "rolle": ((TheoremId.ROLLE,), lambda q: [rolle_points(q.f, q.iv, q.cfg)]),
    "lagrange": ((TheoremId.LAGRANGE,), lambda q: [lagrange_points(q.f, q.iv, q.cfg)]),
    "cauchy": ((TheoremId.CAUCHY,), lambda q: [cauchy_points(q.f, q.g, q.iv, q.cfg)]),
    "integral-mvt": ((TheoremId.INTEGRAL_MVT,),
                     lambda q: [integral_mvt_points(q.f, q.iv, q.cfg)]),
    "flett": _flett_family(TheoremId.FLETT),
    "meyers-2.3": _flett_family(TheoremId.MEYERS_2_3),
    "meyers-2.4": _flett_family(TheoremId.MEYERS_2_4),
    "meyers-2.5": _flett_family(TheoremId.MEYERS_2_5),
    "meyers-2.6": _flett_family(TheoremId.MEYERS_2_6),
    "meyers-2.7": _flett_family(TheoremId.MEYERS_2_7),
    "meyers-2.8": _flett_family(TheoremId.MEYERS_2_8),
    "meyers-2.9": _flett_family(TheoremId.MEYERS_2_9),
    "riedel-sahoo": ((TheoremId.RIEDEL_SAHOO,),
                     lambda q: [riedel_sahoo_points(q.f, q.iv, q.cfg)]),
    "cakmak-tiryaki": ((TheoremId.CAKMAK_TIRYAKI,),
                       lambda q: [cakmak_tiryaki_points(q.f, q.iv, q.cfg)]),
    "second-order-a": ((TheoremId.SECOND_ORDER_A,),
                       lambda q: [second_order_points("anchored_at_a", q.f, q.iv, q.cfg)]),
    "second-order-b": ((TheoremId.SECOND_ORDER_B,),
                       lambda q: [second_order_points("anchored_at_b", q.f, q.iv, q.cfg)]),
    "pawlikowska": ((TheoremId.PAWLIKOWSKA,),
                    lambda q: [pawlikowska_points(q.f, q.iv, q.n, q.cfg)]),
    "cauchy-flett": ((TheoremId.CAUCHY_FLETT,),
                     lambda q: [cauchy_flett_points(q.f, q.g, q.iv, q.cfg)]),
    "thm-4.9": ((TheoremId.THM_4_9,), lambda q: [thm_4_9_points(q.f, q.g, q.iv, q.cfg)]),
    "thm-4.10": ((TheoremId.THM_4_10,),
                 lambda q: [thm_4_10_points(q.f, q.g, q.weight, q.cfg)]),
    "weighted-norm": ((TheoremId.WEIGHTED_NORM,),
                      lambda q: [[weighted_norm_point(q.f, q.g, q.weight, q.cfg)]]),
    "lupu-4.6": ((TheoremId.LUPU_4_6_T, TheoremId.LUPU_4_6_TS, TheoremId.LUPU_4_6_S),
                 lambda q: [[p] for p in lupu_4_6_points(q.f, q.g, q.cfg)]),
    "lupu-4.7": ((TheoremId.LUPU_4_7_T, TheoremId.LUPU_4_7_S),
                 lambda q: [[p] for p in lupu_4_7_points(q.f, q.g, q.cfg)]),
}


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Deterministic JSON rendering (17 significant digits, stable layout)


def _render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return format(obj, ".17g")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(f"{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}"
                           for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {_render(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


# ---------------------------------------------------------------------------
# Request plumbing


def _parse_endpoint(text: str, name: str) -> float:
    try:
        e = parse(text)
    except ParseError as exc:
        raise _UsageError(f"endpoint {name}: {exc}") from exc
    if any(type(node) is Var for node in _postorder((e,))):
        raise _UsageError(f"endpoint {name} must be a constant expression, got {text!r}")
    v = evaluate(e, 0.0)
    if not math.isfinite(v):
        raise _UsageError(f"endpoint {name} must be finite, got {text!r}")
    return v


def _parse_fn(text: str, name: str) -> Expr:
    try:
        return parse(text)
    except ParseError as exc:
        raise _UsageError(f"{name}: {exc}") from exc


def _collect_config(args) -> dict:
    overrides: dict = {}
    env = os.environ.get("MVT_LAB_CONFIG")
    if env:
        try:
            with open(env, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise _UsageError(f"cannot read MVT_LAB_CONFIG file {env!r}: {exc}")
        except UnicodeDecodeError as exc:
            raise _UsageError(f"MVT_LAB_CONFIG file {env!r} is not UTF-8: {exc}")
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise _UsageError(f"MVT_LAB_CONFIG file {env!r} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise _UsageError(f"MVT_LAB_CONFIG file {env!r} must hold a JSON object")
        for k, v in data.items():
            if k not in _CONFIG_FIELDS:
                raise _UsageError(f"unknown config field {k!r} in MVT_LAB_CONFIG file {env!r}")
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise _UsageError(f"config field {k!r} must be a number")
            overrides[k] = v
    for field in ("scan_points", "root_tol", "residual_tol", "quad_tol"):
        v = getattr(args, field)
        if v is not None:
            overrides[field] = v
    return {k: overrides[k] for k in _CONFIG_FIELDS if k in overrides}


def _interval_for(args, unit_only: str | None) -> Interval:
    """The request's interval; ``unit_only`` names a theorem defined on [0, 1]."""
    if args.a is None and args.b is None and unit_only:
        return Interval(0.0, 1.0)
    if args.a is None or args.b is None:
        raise _UsageError("both -a and -b are required")
    a = _parse_endpoint(args.a, "-a")
    b = _parse_endpoint(args.b, "-b")
    if unit_only and (a != 0.0 or b != 1.0):
        raise _UsageError(f"theorem {unit_only} is defined on [0, 1]; "
                          "omit -a/-b or pass 0 and 1")
    try:
        return Interval(a, b)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _group(tid: TheoremId, pts: list[PointResult]) -> dict:
    return {
        "theorem_id": str(tid),
        "hypothesis_satisfied": pts.hypothesis_satisfied if isinstance(pts, Points) else None,
        "points": [{"xi": p.xi, "residual": p.residual} for p in pts],
        "degenerate": any(p.degenerate for p in pts),
    }


# ---------------------------------------------------------------------------
# Commands


def _input_fn(text: str | None, flag: str, theorem: str, taken: bool) -> Expr | None:
    if taken and text is None:
        raise _UsageError(f"theorem {theorem} needs {flag}")
    if text is not None and not taken:
        raise _UsageError(f"theorem {theorem} takes no {flag}")
    return None if text is None else _parse_fn(text, flag)


def _cmd_solve(args, cfg: SolverConfig, overrides: dict) -> tuple[dict, list, int]:
    theorem = args.theorem
    ids, find_points = _SOLVES[theorem]
    thms = [THEOREMS[tid] for tid in ids]
    f = _parse_fn(args.fn, "--fn")
    g = _input_fn(args.gn, "--gn", theorem, any(t.needs_g for t in thms))
    weight = _input_fn(args.weight, "--weight", theorem,
                       any(t.needs_weight for t in thms))
    if args.n is not None and not any(t.takes_n for t in thms):
        raise _UsageError(f"theorem {theorem} takes no --n")
    iv = _interval_for(args, theorem if any(t.unit_only for t in thms) else None)
    n = args.n if args.n is not None else 1
    q = Inputs(f, g, weight, iv, n, cfg)

    groups: list[tuple[TheoremId, list[PointResult]]] = []
    code = 0
    try:
        groups = list(zip(ids, find_points(q)))
    except HypothesisError as exc:
        print(f"hypothesis not satisfied: {exc}", file=sys.stderr)
        groups = [(tid, Points(hypothesis_satisfied=False)) for tid in ids]
        code = 1
    except (NoRootFound, DomainError, QuadratureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        code = 3
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    result_dicts = []
    total_points = 0
    any_hyp_false = False
    for tid, pts in groups:
        d = _group(tid, pts)
        if tid is TheoremId.WEIGHTED_NORM and pts:
            nf, ng = weighted_norms(f, g, weight, pts[0].xi, cfg)
            d["weighted_norms"] = [nf, ng]
        result_dicts.append(d)
        total_points += len(pts)
        if d["hypothesis_satisfied"] is False:
            any_hyp_false = True

    if code == 0:
        if total_points == 0:
            code = 1 if any_hyp_false else 3
            reason = ("hypothesis not satisfied and no points found"
                      if code == 1 else "no points found")
            print(reason, file=sys.stderr)
        else:
            for tid, pts in groups:
                for p in pts:
                    chk = _check(tid, q, p.xi)
                    if not chk.ok:
                        print(f"self-check failed for {tid} at xi={p.xi!r}: "
                              f"|{chk.lhs!r} - {chk.rhs!r}| > {chk.tolerance!r}",
                              file=sys.stderr)
                        code = 3

    request = {
        "command": "solve", "theorem": theorem, "fn": args.fn,
        "gn": args.gn, "weight": args.weight,
        "a": iv.a, "b": iv.b, "n": args.n,
        "config_overrides": overrides,
    }
    report = {"request": request, "results": result_dicts}
    rows = [(d["theorem_id"], p["xi"], p["residual"], d["degenerate"],
             d["hypothesis_satisfied"])
            for d in result_dicts for p in d["points"]]
    return report, rows, code


def _cmd_classify(args, cfg: SolverConfig, overrides: dict) -> tuple[dict, list, int]:
    f = _parse_fn(args.fn, "--fn")
    iv = _interval_for(args, None)
    vec = classify(f, iv, cfg)
    request = {
        "command": "classify", "fn": args.fn, "a": iv.a, "b": iv.b,
        "config_overrides": overrides,
    }
    report = {"request": request, "condition_vector": vec.to_json_dict()}
    return report, [], 0


def _vector_key(d: dict) -> str:
    flag = "point" if d["has_flett_point"] else "no-point"
    return "/".join([d["flett"], d["trahan"], d["tong"],
                     d["malesevic_t1"], d["malesevic_m1"], flag])


def _expect_matches(expect: dict, got: dict) -> bool:
    for k, want in expect.items():
        if k not in got:
            return False
        have = got[k]
        if isinstance(want, (int, float)) and not isinstance(want, bool) \
                and isinstance(have, (int, float)):
            if not close(want, have, 1e-9):
                return False
        elif have != want:
            return False
    return True


def _record_endpoint(v, name: str) -> float:
    """A corpus record's endpoint: a JSON number or an expression string."""
    if isinstance(v, str):
        return _parse_endpoint(v, name)
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise _UsageError(f"endpoint {name} must be a number or an expression, "
                      f"got {json.dumps(v)}")


def _cmd_corpus(args, cfg: SolverConfig, overrides: dict) -> tuple[dict, list, int]:
    try:
        with open(args.path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read corpus file: {exc}")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"corpus file {args.path!r} is not UTF-8: {exc}")
    records = []
    counts: dict[str, int] = {}
    mismatches = 0
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise _UsageError(f"line {lineno}: not valid JSON ({exc})")
        if not isinstance(rec, dict) or not isinstance(rec.get("fn"), str) \
                or "a" not in rec or "b" not in rec:
            raise _UsageError(f"line {lineno}: each record needs fn, a, b")
        try:
            f = parse(rec["fn"])
            a = _record_endpoint(rec["a"], "a")
            b = _record_endpoint(rec["b"], "b")
            iv = Interval(a, b)
        except (ParseError, ValueError, OverflowError, _UsageError) as exc:
            raise _UsageError(f"line {lineno}: {exc}")
        expect = rec.get("expect")
        if expect is not None and not isinstance(expect, dict):
            raise _UsageError(f"line {lineno}: expect must be an object")
        vec = classify(f, iv, cfg).to_json_dict()
        key = _vector_key(vec)
        counts[key] = counts.get(key, 0) + 1
        entry = {"line": lineno, "fn": rec["fn"], "a": a, "b": b,
                 "condition_vector": vec, "expect_ok": None}
        if expect is not None:
            ok = _expect_matches(expect, vec)
            entry["expect_ok"] = ok
            if not ok:
                mismatches += 1
                print(f"line {lineno}: expect mismatch for {rec['fn']!r}",
                      file=sys.stderr)
        records.append(entry)
    request = {"command": "corpus", "path": args.path,
               "config_overrides": overrides}
    report = {
        "request": request,
        "records": records,
        "summary": [{"vector": k, "count": counts[k]} for k in sorted(counts)],
        "mismatches": mismatches,
    }
    return report, [], 1 if mismatches else 0


# ---------------------------------------------------------------------------
# Entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import, and reused after:
    # building costs about ten times what parsing one request does
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--scan-points", dest="scan_points", type=int)
    shared.add_argument("--root-tol", dest="root_tol", type=float)
    shared.add_argument("--residual-tol", dest="residual_tol", type=float)
    shared.add_argument("--quad-tol", dest="quad_tol", type=float)
    shared.add_argument("--stable", action="store_true",
                        help="omit the meta block (timing) for byte-stable output")
    fmt = shared.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report (default)")
    fmt.add_argument("--csv", action="store_true",
                     help="one row per located point instead of JSON")

    p = argparse.ArgumentParser(
        prog="mvtlab",
        description="Locate and check mean-value-style points of a function.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", parents=[shared],
                        help="find the points of one identity")
    ps.add_argument("theorem", choices=_SOLVES, metavar="theorem")
    ps.add_argument("--fn", required=True, help="function text, e.g. 'x^3+2*x-1'")
    ps.add_argument("--gn", help="second function where the identity needs one")
    ps.add_argument("--weight", help="weight function where the identity needs one")
    ps.add_argument("-a", "--a", help="left endpoint (number or expression; "
                                      "use --a=-2/3 for negative expressions)")
    ps.add_argument("-b", "--b", help="right endpoint")
    ps.add_argument("--n", type=int, help="order for the alternating-sum identity")

    pc = sub.add_parser("classify", parents=[shared],
                        help="evaluate the four sufficient conditions")
    pc.add_argument("--fn", required=True)
    pc.add_argument("-a", "--a")
    pc.add_argument("-b", "--b")

    pr = sub.add_parser("corpus", parents=[shared],
                        help="classify every record of an NDJSON file")
    pr.add_argument("path")
    return p


def main(argv: list[str] | None = None) -> int:
    """Serve one request and return its exit code."""
    args = _build_parser().parse_args(argv)
    if [] in vars(args).values():  # argparse's value for a lone "--" (--fn=--)
        _build_parser().error("an option value may not be a lone '--'")
    if args.csv and args.command != "solve":
        print("--csv applies to solve only", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        overrides = _collect_config(args)
        cfg = SolverConfig(**overrides)
    except (_UsageError, ValueError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "solve":
            report, rows, code = _cmd_solve(args, cfg, overrides)
        elif args.command == "classify":
            report, rows, code = _cmd_classify(args, cfg, overrides)
        else:
            report, rows, code = _cmd_corpus(args, cfg, overrides)
    except (_UsageError, ExpressionTooLarge) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    if args.csv:
        out = ["theorem_id,xi,residual,degenerate,hypothesis_satisfied"]
        out += [",".join(_csv_cell(c) for c in row) for row in rows]
        print("\n".join(out))
        return code
    if not args.stable:
        report["meta"] = {"elapsed_seconds": time.perf_counter() - t0}
    print(_render(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
