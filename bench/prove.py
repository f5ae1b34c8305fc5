"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/prove.py --seeds 1-10 --out bench/results/baseline.json
    python3 bench/prove.py --seeds 1-5 --workloads high-order

Runs bench/run.py once per (workload, seed), one run at a time, with the
run length from BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles and the spread (q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives them, next to the metric's
bound; a spread above a third of the bound marks the metric unsteady.
With ``--trace`` it adds one traced run per workload (first seed) and keeps
its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "run_seconds": seconds, "seeds": args.seeds, "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, seconds, 0) for s in args.seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "run_s": max(r["run_s"] for r in runs),
            "metrics": {},
        }
        print(f"{workload}: {len(runs)} runs, longest {entry['run_s']:.1f} s, "
              f"correct={entry['correct']}, failed/attempted="
              f"{sum(entry['failed'])}/{sum(entry['attempted'])}")
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["metrics"][name] = s
            flag = "" if s["spread"] <= bound / 3 else "  UNSTEADY"
            steady &= not flag
            print(f"  {name:<16} median {s['median']:>12.6g} {s['unit']:<6} "
                  f"IQR/median {s['spread']:.4f} (bound {bound}){flag}", flush=True)
        if args.trace:
            traced = one_run(workload, args.seeds[0], seconds, 1)
            entry["traced"] = {"seed": args.seeds[0], "correct": traced["correct"],
                               "metrics": traced["metrics"]}
            print(f"  traced run: correct={traced['correct']}, overhead "
                  f"{traced['metrics']['trace.overhead_s']['value']:.2f} s")
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
