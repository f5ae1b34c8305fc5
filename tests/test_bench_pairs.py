"""The paired-benchmark tool tools/bench_pairs.py, on made-up runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "throughput_ref", "better": "higher", "bound": 0.25}
LOWER = {"name": "peak_rss_mb", "better": "lower", "bound": 0.15}


def runs(name, vals):
    return [{"metrics": {name: {"value": v}}} for v in vals]


def verdict(metric, parent, change):
    return bench_pairs.verdict(metric, runs(metric["name"], parent),
                               runs(metric["name"], change))


# parent medians 1.0 and 20.0, interquartile ranges about 0.05 and 0.5
PARENT_UP = [0.96, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.04]
PARENT_DOWN = [19.5, 19.6, 19.8, 19.9, 20.0, 20.0, 20.1, 20.2, 20.4, 20.5]
# median 20.0, interquartile range 13.0: wider than any bound
WIDE = [10.0, 12.0, 14.0, 18.0, 20.0, 20.0, 22.0, 26.0, 28.0, 30.0]


@pytest.mark.parametrize("metric, parent, change, expected", [
    # better in 10/10 pairs by far more than the parent's spread
    (HIGHER, PARENT_UP, [v * 1.2 for v in PARENT_UP], "gain"),
    (LOWER, PARENT_DOWN, [v * 0.8 for v in PARENT_DOWN], "gain"),
    # 9/10 pairs still count as a gain
    (HIGHER, PARENT_UP, [v * 1.2 for v in PARENT_UP[:9]] + [0.5], "gain"),
    # 8/10 pairs do not, however large the gap
    (HIGHER, PARENT_UP, [v * 1.2 for v in PARENT_UP[:8]] + [0.5, 0.5], "ok"),
    # 10/10 pairs but a median gap inside the parent's interquartile range
    (HIGHER, PARENT_UP, [v + 0.01 for v in PARENT_UP], "ok"),
    # worse than the bound, in the metric's own direction
    (HIGHER, PARENT_UP, [v * 0.7 for v in PARENT_UP], "worse"),
    (LOWER, PARENT_DOWN, [v * 1.2 for v in PARENT_DOWN], "worse"),
    # worse, but inside the bound
    (HIGHER, PARENT_UP, [v * 0.8 for v in PARENT_UP], "ok"),
    (LOWER, PARENT_DOWN, [v * 1.1 for v in PARENT_DOWN], "ok"),
    # a parent spread wider than the bound leaves a small change unresolved
    (LOWER, WIDE, [21.0] * 10, "unresolved"),
    (LOWER, WIDE, [19.0] * 10, "unresolved"),
    # ... unless every change run beats every parent run, which is a gain
    # only past the spread (median gap 15 against 13, not 10.5)
    (LOWER, WIDE, [5.0] * 10, "gain"),
    (LOWER, WIDE, [9.5] * 10, "ok"),
    # a regression past the bound reads worse, however wide the spread
    (LOWER, WIDE, [40.0] * 10, "worse"),
])
def test_verdict(metric, parent, change, expected):
    assert verdict(metric, parent, change) == expected



@pytest.mark.parametrize("extra, seconds", [
    ([], json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())["run_seconds"]),
    (["--seconds", "0"], 0.0),
    (["--seconds", "2.5"], 2.5),
])
def test_seconds_sets_every_run_length(monkeypatch, capsys, tmp_path, extra, seconds):
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    calls = []

    def fake_run(checkout, workload, seed, secs):
        calls.append((checkout, workload, seed, secs))
        return {"metrics": {m["name"]: {"value": 1.0 + seed} for m in spec["end_to_end"]},
                "correct": True, "failed": 0}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    code = bench_pairs.main(["--parent", str(tmp_path), "--workload", "pointwise",
                             "--seeds", "1-3", *extra])
    assert code == 0
    assert [c[3] for c in calls] == [seconds] * 6
    # parent first on the first seed, the order alternating after
    assert [c[0] for c in calls[:4]] == [tmp_path, bench_pairs.ROOT, bench_pairs.ROOT, tmp_path]
    assert "throughput_ref" in capsys.readouterr().out


def test_out_writes_the_table_as_json(monkeypatch, capsys, tmp_path):
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())

    def fake_run(checkout, workload, seed, secs):
        # the change is three times the parent on every metric; seed 2's change fails once
        scale = 3.0 if checkout == bench_pairs.ROOT else 1.0
        failed = int(checkout == bench_pairs.ROOT and seed == 2)
        return {"metrics": {m["name"]: {"value": scale * seed} for m in spec["end_to_end"]},
                "correct": True, "failed": failed}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--workload", "operator",
                             "--seeds", "1-4", "--seconds", "0", "--out", str(out)]) == 0
    table = capsys.readouterr().out
    got = json.loads(out.read_text())
    assert got["settings"]["workload"] == "operator"
    assert got["settings"]["seeds"] == [1, 2, 3, 4] and got["settings"]["seconds"] == 0.0
    assert set(got["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    up = got["metrics"]["throughput_ref"]
    assert up["parent"] == [1.0, 2.0, 3.0, 4.0] and up["change"] == [3.0, 6.0, 9.0, 12.0]
    assert (up["parent_median"], up["parent_q1"], up["parent_q3"]) == (2.5, 1.25, 3.75)
    assert up["change_median"] == 7.5 and up["ratio"] == 3.0
    assert up["wins"] == 4 and up["verdict"] == "gain"
    down = got["metrics"]["peak_rss_mb"]
    assert down["wins"] == 0 and down["verdict"] == "worse"
    assert got["seeds"][1] == {"seed": 2, "parent": {"correct": True, "failed": 0},
                               "change": {"correct": True, "failed": 1}}
    # the printed table reads the same figures
    assert "throughput_ref: 2.5 [1.25, 3.75] -> 7.5 (x3.000), 4/4, gain" in table
    assert "2: True/0, True/1" in table
