"""Paired benchmark runs: a parent checkout against this one.

    python3 tools/bench_pairs.py --parent ../parent --workload operator --seeds 1-10

For every seed, runs each checkout's own ``bench/run.py --workload W
--seed S --seconds T --trace 0`` once, T being ``--seconds`` if given and
``run_seconds`` in this checkout's ``BENCHMARK.json`` otherwise. With
``--seconds 0`` each run covers exactly its request list, so the two sides
serve the same requests and ``peak_rss_mb`` compares at a fixed request
count. The parent goes first on the first seed and the order alternates
from seed to seed. Then it prints, for every
end-to-end metric that ``BENCHMARK.json`` names, the parent's median and
quartiles, the change's median, their ratio, and in how many pairs the
change was better (the metric's ``better`` direction; ties count for
neither side), and a verdict (see ``verdict``), followed by ``correct`` and
``failed`` per seed for both sides. ``--seeds`` takes a range (``1-10``) or
a list (``1,3,5``). ``--out PATH`` also writes all of it as JSON (see
``summarize``), the per-run values included.

The script runs the benchmark as it is in each checkout and edits nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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


def summarize(spec: dict, workload: str, seeds: list[int], seconds: float,
              runs: dict[str, list[dict]]) -> dict:
    """Everything the table shows, with each run's value, as one JSON-ready dict.

    ``settings`` holds the workload, the seeds, the run length and the
    machine; ``metrics`` maps each end-to-end metric to both sides' per-run
    values (in seed order), the parent's median and quartiles, the change's
    median, their ratio, the pairs the change won and the verdict; ``seeds``
    holds ``correct`` and ``failed`` per seed for both sides.
    """
    def outcome(r: dict) -> dict:
        return {"correct": r["correct"], "failed": r["failed"]}

    metrics = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        par, chg = values(runs["parent"], name), values(runs["change"], name)
        q1, _, q3 = statistics.quantiles(par, n=4)
        pm, cm = statistics.median(par), statistics.median(chg)
        metrics[name] = {
            "better": m["better"], "bound": m["bound"], "parent": par, "change": chg,
            "parent_median": pm, "parent_q1": q1, "parent_q3": q3, "change_median": cm,
            "ratio": cm / pm,
            "wins": sum(new < old if lower else new > old for old, new in zip(par, chg)),
            "verdict": verdict(m, runs["parent"], runs["change"])}
    return {
        "settings": {"workload": workload, "seeds": seeds, "seconds": seconds,
                     "python": platform.python_version(), "machine": platform.machine(),
                     "cpus": os.cpu_count()},
        "metrics": metrics,
        "seeds": [{"seed": seed, "parent": outcome(rp), "change": outcome(rc)}
                  for seed, rp, rc in zip(seeds, runs["parent"], runs["change"])]}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="paired benchmark runs, parent vs change")
    p.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--seconds", type=float,
                   help="seconds per run (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--out", type=Path, help="also write the results to this JSON file")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(sides[side], args.workload, seed, seconds))
        print(f"seed {seed} done ({order[0]} first)", file=sys.stderr, flush=True)

    summary = summarize(spec, args.workload, args.seeds, seconds, runs)
    print(f"{args.workload}, {len(args.seeds)} pairs, seeds {args.seeds}")
    print("metric: parent median [parent q1, q3] -> change median (ratio), "
          "pairs the change won, verdict")
    for name, m in summary["metrics"].items():
        print(f"{name}: {m['parent_median']:.5g} [{m['parent_q1']:.5g}, {m['parent_q3']:.5g}]"
              f" -> {m['change_median']:.5g} (x{m['ratio']:.3f}), "
              f"{m['wins']}/{len(m['parent'])}, {m['verdict']}")
    print("seed: parent correct/failed, change correct/failed")
    for s in summary["seeds"]:
        par, chg = s["parent"], s["change"]
        print(f"{s['seed']}: {par['correct']}/{par['failed']}, {chg['correct']}/{chg['failed']}")
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
