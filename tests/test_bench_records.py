"""The committed benchmark trajectory: every BENCH_<n>.json at the repository root."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_shape(path):
    record = json.loads(path.read_text())
    assert {"what", "parent", "command", "runs"} <= record.keys()
    assert record["runs"]
    for run in record["runs"]:
        where = (run.get("side"), run.get("workload"), run.get("seed"), run.get("set"))
        assert run["side"] in ("parent", "change"), where
        assert run["workload"] in WORKLOADS, where
        assert run["exit"] == 0, where
        assert run["result"]["correct"] is True, where
        assert run["result"]["metrics"].keys() <= METRICS, where
