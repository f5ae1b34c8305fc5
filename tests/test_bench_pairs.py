"""The paired-benchmark verdict rule in tools/bench_pairs.py, on made-up runs."""

import importlib.util
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

