"""``BENCHMARK.json`` and ``spec.py`` say the same thing, within the contract."""

import json
import re

from benchmarks.perf import spec
from benchmarks.perf.tests import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_issue_counts():
    assert len(spec.END_TO_END) == 9
    assert len(spec.PER_LAYER) == 89
    assert len(spec.WORKLOADS) == 6
    assert len({m.name for m in spec.PER_LAYER}) == 89


def test_benchmark_json_matches_spec():
    doc = _doc()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/perf"]
    assert doc["command"] == ["python3", "benchmarks/perf/run.py"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(
        spec.WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better, spec.DRIVER_BOUNDS[m.name])
        for m in spec.END_TO_END if m.name in spec.COMMON]
    # The driver's bounds are never tighter than the comparer's.
    assert all(spec.DRIVER_BOUNDS[name] >= spec.END_TO_END_BY_NAME[name].bound
               for name in spec.COMMON)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == [
        tuple(m) for m in spec.DRIVER_PER_LAYER]


def test_benchmark_json_within_contract_limits():
    doc = _doc()
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for key in ("end_to_end", "per_layer") for m in doc[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_workload_carries_its_metrics():
    for name in spec.WORKLOADS:
        assert set(spec.COMMON) <= set(spec.CARRIES[name])
    assert "sim_p50_ms" not in spec.CARRIES["kernel_pingpong"]
    assert "wall_p95_ms" in spec.CARRIES["http_realtime"]
