"""Paired benchmark runs: a parent checkout against this one.

    python3 tools/bench_pairs.py --parent ../parent --workload operator --seeds 1-10

For every seed, runs each checkout's own ``bench/run.py --workload W
--seed S --seconds T --trace 0`` once, T being ``run_seconds`` in this
checkout's ``BENCHMARK.json``. The parent goes first on the first seed and
the order alternates from seed to seed. Then it prints, for every
end-to-end metric that ``BENCHMARK.json`` names, the parent's median and
quartiles, the change's median, their ratio, and in how many pairs the
change was better (the metric's ``better`` direction; ties count for
neither side), followed by ``correct`` and ``failed`` per seed for both
sides. ``--seeds`` takes a range (``1-10``) or a list (``1,3,5``).

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
          "pairs the change won")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        par = [r["metrics"][name]["value"] for r in runs["parent"]]
        chg = [r["metrics"][name]["value"] for r in runs["change"]]
        q1, _, q3 = statistics.quantiles(par, n=4)
        wins = sum(new < old if lower else new > old for old, new in zip(par, chg))
        pm, cm = statistics.median(par), statistics.median(chg)
        print(f"{name}: {pm:.5g} [{q1:.5g}, {q3:.5g}] -> {cm:.5g} "
              f"(x{cm / pm:.3f}), {wins}/{len(par)}")
    print("seed: parent correct/failed, change correct/failed")
    for seed, rp, rc in zip(args.seeds, runs["parent"], runs["change"]):
        print(f"{seed}: {rp['correct']}/{rp['failed']}, {rc['correct']}/{rc['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
