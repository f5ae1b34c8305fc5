"""What moved between two checkouts' ``--stable`` answers, and by how much.

    python3 tools/stable_compare.py ../parent

Runs 3,574 requests, the seed-1 and seed-2 request lists of the four
benchmark workloads (``bench/workloads.py``), each with its ``--stable``
flag, in PARENT and in this checkout, each in a subprocess that imports
that checkout's own ``src`` and ``bench``, and prints:

- the moved lines per workload: requests whose exit code, stdout or
  stderr differ;
- every exit-code change;
- every classify condition-vector change, M and I left out;
- every change in a result group's point count or its
  ``hypothesis_satisfied``/``degenerate`` flags;
- the largest |delta xi| over points matched by position, and the largest
  relative delta of classify's I and of the reported weighted norms.

A relative delta is |new - old| / max(1, |old|, |new|), the scale that
``mvtlab.numerics.tolerance`` judges agreement on. The script edits
nothing. It exits 1 when any request's answer moved, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# condition-vector entries that are numbers, not verdicts
_MEANS = ("M", "I")


def dump(checkout: Path) -> None:
    """Print one JSON record per request, run in-process from checkout."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import mvtlab.cli
    from workloads import WORKLOADS, request_list

    for workload in WORKLOADS:
        for seed in (1, 2):
            for i, req in enumerate(request_list(workload, seed)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = mvtlab.cli.main(list(req.argv))
                    except SystemExit as exc:   # argparse reports usage errors this way
                        code = exc.code
                    except Exception as exc:    # recorded, so a crash shows as a change
                        code = f"raised:{type(exc).__name__}"
                print(json.dumps({"key": [workload, seed, i], "argv": list(req.argv),
                                  "code": code, "stdout": out.getvalue(),
                                  "stderr": err.getvalue()}), flush=True)


def run(checkout: Path) -> list[dict]:
    """Every request's record from checkout, in request-list order."""
    proc = subprocess.run([sys.executable, __file__, "--dump", str(checkout)],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"the requests failed to run in {checkout}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def answer_moved(old: dict, new: dict) -> bool:
    """Whether one request's answer differs: its exit code, stdout or stderr."""
    return any(old[k] != new[k] for k in ("code", "stdout", "stderr"))


def _rel(u: float, v: float) -> float:
    return abs(u - v) / max(1.0, abs(u), abs(v))


def compare(old: list[dict], new: list[dict]) -> list[str]:
    """The report's lines, for two record lists of the same requests."""
    moved: dict[str, list[int]] = {}
    codes, verdicts, groups = [], [], []
    worst = {"xi": (0.0, None), "I": (0.0, None), "weighted_norms": (0.0, None)}

    def note(kind: str, value: float, where: str) -> None:
        if value > worst[kind][0]:
            worst[kind] = (value, where)

    for o, n in zip(old, new, strict=True):
        if o["key"] != n["key"]:
            raise ValueError(f"request lists differ at {o['key']} and {n['key']}")
        workload, seed, i = o["key"]
        where = f"{workload} {seed} {i}"
        count = moved.setdefault(workload, [0, 0])
        count[1] += 1
        if not answer_moved(o, n):
            continue
        count[0] += 1
        if o["code"] != n["code"]:
            codes.append(f"  {where}: {o['code']} -> {n['code']}  {' '.join(o['argv'])}")
        jo, jn = _json(o["stdout"]), _json(n["stdout"])
        if not (isinstance(jo, dict) and isinstance(jn, dict)):
            continue
        if "condition_vector" in jo and "condition_vector" in jn:
            cvo, cvn = jo["condition_vector"], jn["condition_vector"]
            for name in sorted(set(cvo) | set(cvn)):
                if name not in _MEANS and cvo.get(name) != cvn.get(name):
                    verdicts.append(f"  {where} {name}: {cvo.get(name)} -> {cvn.get(name)}")
            if isinstance(cvo.get("I"), float) and isinstance(cvn.get("I"), float):
                note("I", _rel(cvo["I"], cvn["I"]), where)
        for go, gn in zip(jo.get("results", []), jn.get("results", [])):
            gw = f"{where} {go.get('theorem_id')}"
            po, pn = go.get("points", []), gn.get("points", [])
            if len(po) != len(pn):
                groups.append(f"  {gw}: {len(po)} -> {len(pn)} points")
            for flag in ("hypothesis_satisfied", "degenerate"):
                if go.get(flag) != gn.get(flag):
                    groups.append(f"  {gw} {flag}: {go.get(flag)} -> {gn.get(flag)}")
            if len(po) == len(pn):
                for a, b in zip(po, pn):
                    note("xi", abs(a["xi"] - b["xi"]), gw)
            for a, b in zip(go.get("weighted_norms", []), gn.get("weighted_norms", [])):
                note("weighted_norms", _rel(a, b), gw)

    lines = ["moved lines: " + ", ".join(f"{w} {m}/{t}" for w, (m, t) in moved.items())]
    for title, items in (("exit-code changes", codes),
                         ("condition-vector changes (M and I left out)", verdicts),
                         ("point-count and flag changes", groups)):
        lines.append(f"{title}: {len(items)}")
        lines.extend(items)
    for kind, label in (("xi", "largest |delta xi|"), ("I", "largest relative delta I"),
                        ("weighted_norms", "largest relative delta of a weighted norm")):
        value, where = worst[kind]
        lines.append(f"{label}: {value:.3g}" + (f" ({where})" if where else ""))
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the other checkout, compared against this one")
    ap.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        dump(args.parent.resolve())
        return 0
    old, new = run(args.parent.resolve()), run(ROOT)
    print("\n".join(compare(old, new)))
    return 1 if any(map(answer_moved, old, new)) else 0


if __name__ == "__main__":
    sys.exit(main())
