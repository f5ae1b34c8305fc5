"""Paired benchmark runs: a parent checkout against this one.

    python3 tools/bench_pairs.py --parent ../parent --workload operator --seeds 1-10

For every seed, runs each checkout's own ``bench/run.py --workload W
--seed S --seconds T --trace 0`` once, T being ``run_seconds`` in this
checkout's ``BENCHMARK.json``. The parent goes first on the first seed and
the order alternates from seed to seed. Then it prints, for every
end-to-end metric that ``BENCHMARK.json`` names, the parent's median and
quartiles, the change's median, their ratio, and in how many pairs the
change was better (the metric's ``better`` direction; ties count for
neither side), and a verdict (see ``verdict``), followed by ``correct`` and
``failed`` per seed for both sides. ``--seeds`` takes a range (``1-10``) or
a list (``1,3,5``).

The script runs the benchmark as it is in each checkout and edits nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run, as a dict."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py failed in {checkout} (seed {seed}, "
                         f"exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def values(runs: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in runs]


def verdict(metric: dict, parent: list[dict], change: list[dict]) -> str:
    """One metric's verdict over paired runs (``parent[i]`` with ``change[i]``).

    ``metric`` is the metric's entry in ``BENCHMARK.json``. In order:

    - ``gain``: the change was better in at least 9 of every 10 pairs, and
      its median is better than the parent's by more than the parent's
      interquartile range;
    - ``worse``: the change's median is worse than the parent's by more
      than ``bound`` times the parent's median;
    - ``unresolved``: the parent's interquartile range exceeds ``bound``
      times its median, and not every change run beats every parent run;
    - ``ok`` otherwise.
    """
    sign = -1.0 if metric["better"] == "lower" else 1.0  # sign * value: higher is better
    par = [sign * v for v in values(parent, metric["name"])]
    chg = [sign * v for v in values(change, metric["name"])]
    q1, _, q3 = statistics.quantiles(par, n=4)
    pm = statistics.median(par)
    gap = statistics.median(chg) - pm  # > 0: the change is better
    wins = sum(new > old for old, new in zip(par, chg))
    if 10 * wins >= 9 * len(par) and gap > q3 - q1:
        return "gain"
    if -gap > metric["bound"] * abs(pm):
        return "worse"
    if q3 - q1 > metric["bound"] * abs(pm) and not min(chg) > max(par):
        return "unresolved"
    return "ok"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="paired benchmark runs, parent vs change")
    p.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds)
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(sides[side], args.workload, seed, spec["run_seconds"]))
        print(f"seed {seed} done ({order[0]} first)", file=sys.stderr, flush=True)

    print(f"{args.workload}, {len(args.seeds)} pairs, seeds {args.seeds}")
    print("metric: parent median [parent q1, q3] -> change median (ratio), "
          "pairs the change won, verdict")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        par, chg = values(runs["parent"], name), values(runs["change"], name)
        q1, _, q3 = statistics.quantiles(par, n=4)
        wins = sum(new < old if lower else new > old for old, new in zip(par, chg))
        pm, cm = statistics.median(par), statistics.median(chg)
        print(f"{name}: {pm:.5g} [{q1:.5g}, {q3:.5g}] -> {cm:.5g} "
              f"(x{cm / pm:.3f}), {wins}/{len(par)}, "
              f"{verdict(m, runs['parent'], runs['change'])}")
    print("seed: parent correct/failed, change correct/failed")
    for seed, rp, rc in zip(args.seeds, runs["parent"], runs["change"]):
        print(f"{seed}: {rp['correct']}/{rp['failed']}, {rc['correct']}/{rc['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
