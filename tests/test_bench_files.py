"""The committed benchmark trajectory: every BENCH_<n>.json from 7 on in
one layout, and the newest carrying every end-to-end metric."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tests", "blobs")
METRIC_KEYS = {"parent", "new", "parent_median_q1_q3", "new_median_q1_q3",
               "new_over_parent_median", "new_better_pairs"}
# BENCH_6.json predates the pairs layout: it holds single runs only
BEFORE_PAIRS = {"BENCH_6.json"}


def _entries() -> dict:
    """{n: path} of every BENCH_<n>.json at the root of the repository."""
    found = {}
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            found[int(match.group(1))] = path
    return found


ENTRIES = _entries()
PAIRED = sorted(n for n, path in ENTRIES.items() if n >= 7 and path.name not in BEFORE_PAIRS)


def test_the_trajectory_is_there():
    # numbers may be missing (a change that leaves src alone commits
    # none), but the files from 7 on are there and the one exception is
    # named
    assert len(PAIRED) >= 20
    assert {p.name for p in ENTRIES.values() if p.name in BEFORE_PAIRS} == BEFORE_PAIRS


@pytest.mark.parametrize("n", PAIRED, ids=[f"BENCH_{n}" for n in PAIRED])
def test_entry_has_the_pairs_layout(n):
    pairs = json.loads(ENTRIES[n].read_text())["pairs"]
    assert set(pairs) - {"about"} == set(WORKLOADS), sorted(pairs)
    for workload in WORKLOADS:
        block = pairs[workload]
        count = block["pairs"]
        assert isinstance(count, int) and count >= 1
        assert block["metrics"], workload
        for name, metric in block["metrics"].items():
            where = f"{workload} {name}"
            assert set(metric) >= METRIC_KEYS, (where, sorted(METRIC_KEYS - set(metric)))
            assert len(metric["parent"]) == len(metric["new"]) == count, where
            assert len(metric["parent_median_q1_q3"]) == len(metric["new_median_q1_q3"]) == 3, where
            assert isinstance(metric["new_over_parent_median"], (int, float)), where
            assert 0 <= metric["new_better_pairs"] <= count, where


def test_newest_entry_carries_every_end_to_end_metric():
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    newest = max(PAIRED)
    pairs = json.loads(ENTRIES[newest].read_text())["pairs"]
    for workload in WORKLOADS:
        missing = names - set(pairs[workload]["metrics"])
        assert not missing, f"BENCH_{newest}.json {workload} lacks {sorted(missing)}"
