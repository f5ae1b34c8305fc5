"""Command-line interface: parse a request, run solvers, emit a report.

Reports are JSON on stdout with diagnostics on stderr, so output can be
piped into other tools. Numbers are printed with 17 significant digits and
the layout is produced by a deterministic writer: identical invocations
give byte-identical output, with timing segregated under a "meta" key that
--stable removes entirely.

Exit codes: 0 points found (or degenerate); 1 hypothesis unsatisfied and
nothing found; 2 parse or usage error; 3 numeric failure (including a
report whose points fail re-verification).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from .expr import Expr, ParseError, Var, _walk, evaluate, parse
from .numerics import (
    DomainError, HypothesisError, Interval, NoRootFound, PointResult,
    QuadratureError, SolverConfig, SolverError, TheoremId,
)
from .mvt_points import (
    cauchy_points, integral_mvt_points, lagrange_points, rolle_hypothesis,
    rolle_points,
)
from .flett import MeyersVariant, find_flett_points, flett_hypothesis, meyers_hypothesis, meyers_points
from .conditions import classify
from .generalized import (
    cakmak_tiryaki_points, pawlikowska_hypothesis, pawlikowska_points,
    riedel_sahoo_points, second_order_hypothesis, second_order_points,
)
from .operators import (
    cauchy_flett_hypothesis, cauchy_flett_points, lupu_4_6_points,
    lupu_4_7_points, thm_4_9_points, thm_4_10_points, weighted_norm_point,
    weighted_norms,
)
from .verify import verify_point

__all__ = ["main"]

_SOLVE_THEOREMS = (
    "rolle", "lagrange", "cauchy", "integral-mvt", "flett",
    "meyers-2.3", "meyers-2.4", "meyers-2.5", "meyers-2.6", "meyers-2.7",
    "meyers-2.8", "meyers-2.9",
    "riedel-sahoo", "cakmak-tiryaki", "second-order-a", "second-order-b",
    "pawlikowska", "cauchy-flett", "thm-4.9", "thm-4.10", "weighted-norm",
    "lupu-4.6", "lupu-4.7",
)
_UNIT_ONLY = {"lupu-4.6", "lupu-4.7", "thm-4.10", "weighted-norm"}
_NEEDS_G = {"cauchy", "cauchy-flett", "thm-4.9", "thm-4.10", "weighted-norm",
            "lupu-4.6", "lupu-4.7"}
_NEEDS_WEIGHT = {"thm-4.10", "weighted-norm"}
_CONFIG_FIELDS = ("scan_points", "root_tol", "residual_tol", "quad_tol",
                  "endpoint_margin", "singular_threshold")


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
    if any(isinstance(node, Var) for node in _walk(e)):
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
        except json.JSONDecodeError as exc:
            raise _UsageError(f"MVT_LAB_CONFIG file {env!r} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise _UsageError("MVT_LAB_CONFIG file must hold a JSON object")
        for k, v in data.items():
            if k not in _CONFIG_FIELDS:
                raise _UsageError(f"unknown config field {k!r} in MVT_LAB_CONFIG file")
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise _UsageError(f"config field {k!r} must be a number")
            overrides[k] = v
    for field in ("scan_points", "root_tol", "residual_tol", "quad_tol"):
        v = getattr(args, field)
        if v is not None:
            overrides[field] = v
    return {k: overrides[k] for k in _CONFIG_FIELDS if k in overrides}


def _interval_for(args, theorem: str | None) -> Interval:
    unit = theorem in _UNIT_ONLY
    if args.a is None and args.b is None and unit:
        return Interval(0.0, 1.0)
    if args.a is None or args.b is None:
        raise _UsageError("both -a and -b are required")
    a = _parse_endpoint(args.a, "-a")
    b = _parse_endpoint(args.b, "-b")
    if unit and (a != 0.0 or b != 1.0):
        raise _UsageError(f"theorem {theorem} is defined on [0, 1]; "
                          "omit -a/-b or pass 0 and 1")
    try:
        return Interval(a, b)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _group(tid: TheoremId, pts: list[PointResult],
           fallback_hyp: bool | None) -> dict:
    hyp = pts[0].hypothesis_satisfied if pts else fallback_hyp
    return {
        "theorem_id": str(tid),
        "hypothesis_satisfied": hyp,
        "points": [{"xi": p.xi, "residual": p.residual} for p in pts],
        "degenerate": any(p.degenerate for p in pts),
    }


# ---------------------------------------------------------------------------
# Commands


def _cmd_solve(args, cfg: SolverConfig) -> tuple[dict, list, int]:
    theorem = args.theorem
    f = _parse_fn(args.fn, "--fn")
    g = weight = None
    if theorem in _NEEDS_G:
        if args.gn is None:
            raise _UsageError(f"theorem {theorem} needs --gn")
        g = _parse_fn(args.gn, "--gn")
    if theorem in _NEEDS_WEIGHT:
        if args.weight is None:
            raise _UsageError(f"theorem {theorem} needs --weight")
        weight = _parse_fn(args.weight, "--weight")
    iv = _interval_for(args, theorem)
    n = args.n if args.n is not None else 1

    groups: list[tuple[TheoremId, list[PointResult], bool | None]] = []
    code = 0
    try:
        if theorem == "rolle":
            groups.append((TheoremId.ROLLE, rolle_points(f, iv, cfg),
                           rolle_hypothesis(f, iv, cfg)))
        elif theorem == "lagrange":
            groups.append((TheoremId.LAGRANGE, lagrange_points(f, iv, cfg), None))
        elif theorem == "cauchy":
            groups.append((TheoremId.CAUCHY, cauchy_points(f, g, iv, cfg), None))
        elif theorem == "integral-mvt":
            groups.append((TheoremId.INTEGRAL_MVT, integral_mvt_points(f, iv, cfg), None))
        elif theorem == "flett":
            groups.append((TheoremId.FLETT, find_flett_points(f, iv, cfg),
                           flett_hypothesis(f, iv, cfg)))
        elif theorem.startswith("meyers-"):
            v = MeyersVariant(theorem)
            groups.append((TheoremId(theorem), meyers_points(v, f, iv, cfg),
                           meyers_hypothesis(v, f, iv, cfg)))
        elif theorem == "riedel-sahoo":
            groups.append((TheoremId.RIEDEL_SAHOO, riedel_sahoo_points(f, iv, cfg), None))
        elif theorem == "cakmak-tiryaki":
            groups.append((TheoremId.CAKMAK_TIRYAKI, cakmak_tiryaki_points(f, iv, cfg), None))
        elif theorem in ("second-order-a", "second-order-b"):
            variant = "anchored_at_a" if theorem.endswith("a") else "anchored_at_b"
            groups.append((TheoremId(theorem),
                           second_order_points(variant, f, iv, cfg),
                           second_order_hypothesis(f, iv, cfg)))
        elif theorem == "pawlikowska":
            groups.append((TheoremId.PAWLIKOWSKA, pawlikowska_points(f, iv, n, cfg),
                           pawlikowska_hypothesis(f, iv, n, cfg)))
        elif theorem == "cauchy-flett":
            groups.append((TheoremId.CAUCHY_FLETT, cauchy_flett_points(f, g, iv, cfg),
                           cauchy_flett_hypothesis(f, g, iv, cfg)))
        elif theorem == "thm-4.9":
            groups.append((TheoremId.THM_4_9, thm_4_9_points(f, g, iv, cfg), True))
        elif theorem == "thm-4.10":
            groups.append((TheoremId.THM_4_10, thm_4_10_points(f, g, weight, cfg), None))
        elif theorem == "weighted-norm":
            groups.append((TheoremId.WEIGHTED_NORM,
                           [weighted_norm_point(f, g, weight, cfg)], None))
        elif theorem == "lupu-4.6":
            x1, x2, x3 = lupu_4_6_points(f, g, cfg)
            groups.extend([(TheoremId.LUPU_4_6_T, [x1], None),
                           (TheoremId.LUPU_4_6_TS, [x2], None),
                           (TheoremId.LUPU_4_6_S, [x3], None)])
        elif theorem == "lupu-4.7":
            x1, x2 = lupu_4_7_points(f, g, cfg)
            groups.extend([(TheoremId.LUPU_4_7_T, [x1], None),
                           (TheoremId.LUPU_4_7_S, [x2], None)])
    except HypothesisError as exc:
        # only raised by identities whose command name is also a theorem id
        print(f"hypothesis not satisfied: {exc}", file=sys.stderr)
        groups = [(TheoremId(theorem), [], False)]
        code = 1
    except NoRootFound as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        code = 3
    except (DomainError, QuadratureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        code = 3
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    result_dicts = []
    total_points = 0
    any_hyp_false = False
    for tid, pts, fallback in groups:
        d = _group(tid, pts, fallback)
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
            for tid, pts, _ in groups:
                for p in pts:
                    chk = verify_point(tid, p.xi, f, g=g, weight=weight,
                                       iv=iv, n=n, cfg=cfg)
                    if not chk.ok:
                        print(f"self-check failed for {tid} at xi={p.xi!r}: "
                              f"|{chk.lhs!r} - {chk.rhs!r}| > {chk.tolerance!r}",
                              file=sys.stderr)
                        code = 3

    request = {
        "command": "solve", "theorem": theorem, "fn": args.fn,
        "gn": args.gn, "weight": args.weight,
        "a": iv.a, "b": iv.b, "n": args.n,
        "config_overrides": _collect_config(args),
    }
    report = {"request": request, "results": result_dicts}
    rows = [(d["theorem_id"], p["xi"], p["residual"], d["degenerate"],
             d["hypothesis_satisfied"])
            for d in result_dicts for p in d["points"]]
    return report, rows, code


def _cmd_classify(args, cfg: SolverConfig) -> tuple[dict, list, int]:
    f = _parse_fn(args.fn, "--fn")
    iv = _interval_for(args, None)
    vec = classify(f, iv, cfg)
    request = {
        "command": "classify", "fn": args.fn, "a": iv.a, "b": iv.b,
        "config_overrides": _collect_config(args),
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
            if abs(want - have) > 1e-9 * max(1.0, abs(want)):
                return False
        elif have != want:
            return False
    return True


def _cmd_corpus(args, cfg: SolverConfig) -> tuple[dict, list, int]:
    try:
        with open(args.path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read corpus file: {exc}")
    records = []
    counts: dict[str, int] = {}
    mismatches = 0
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"line {lineno}: not valid JSON ({exc})")
        if not isinstance(rec, dict) or not isinstance(rec.get("fn"), str) \
                or "a" not in rec or "b" not in rec:
            raise _UsageError(f"line {lineno}: each record needs fn, a, b")
        try:
            f = parse(rec["fn"])
            a = float(rec["a"]) if isinstance(rec["a"], (int, float)) \
                else _parse_endpoint(rec["a"], "a")
            b = float(rec["b"]) if isinstance(rec["b"], (int, float)) \
                else _parse_endpoint(rec["b"], "b")
            iv = Interval(a, b)
        except (ParseError, ValueError, _UsageError) as exc:
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
               "config_overrides": _collect_config(args)}
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
    ps.add_argument("theorem", choices=_SOLVE_THEOREMS, metavar="theorem")
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
    args = _build_parser().parse_args(argv)
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
            report, rows, code = _cmd_solve(args, cfg)
        elif args.command == "classify":
            report, rows, code = _cmd_classify(args, cfg)
        else:
            report, rows, code = _cmd_corpus(args, cfg)
    except _UsageError as exc:
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
