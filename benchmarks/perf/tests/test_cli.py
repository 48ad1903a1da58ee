"""``run.py`` as the driver runs it: one JSON line last, right exit codes."""

import json
import shutil
import subprocess
import sys

from benchmarks.perf import spec
from benchmarks.perf.tests import ROOT, TINY

RUN = ROOT / "benchmarks" / "perf" / "run.py"


def run(cwd, run_py, *extra):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", "kernel_pingpong",
         "--seed", "5", "--seconds", "1", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )


def test_untraced_result_line():
    done = run(ROOT, RUN, "--trace", "0",
               "--scale", str(TINY["kernel_pingpong"]))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(spec.COMMON)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["setup_s"]["unit"] == "s"


def test_traced_result_line():
    done = run(ROOT, RUN, "--trace", "1",
               "--scale", str(TINY["kernel_pingpong"]))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert list(result["metrics"]) == [m.name for m in spec.DRIVER_PER_LAYER]
    assert result["metrics"]["simnet.events_per_op"]["value"] > 0
    assert result["metrics"]["store.objectops.calls_per_op"]["value"] == 0


def test_no_result_without_the_repo(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "perf", tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, tmp_path / "benchmarks" / "perf" / "run.py",
               "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "no src/repro" in done.stderr
