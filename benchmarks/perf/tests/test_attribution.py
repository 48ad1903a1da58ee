"""ROADMAP item 1's gate: an injected slowdown in one layer is caught
and named, and a workload that bypasses the layer does not move."""

import time

import repro.store.cow as cow
from benchmarks.perf import compare, runner
from benchmarks.perf.tests import TINY
from benchmarks.perf.tracer import rebind


def slowed(fn, extra=0.20):
    """``fn`` plus a busy-wait of ``extra`` of each root call's time."""
    depth = [0]

    def slow(*args, **kwargs):
        if depth[0]:  # recursion: only the root call is stretched
            return fn(*args, **kwargs)
        depth[0] += 1
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
            until = time.perf_counter() + extra * (
                time.perf_counter() - started)
            while time.perf_counter() < until:
                pass

    return slow


def result_file(seed, scales):
    workloads = {
        name: {
            "untraced": runner.run_untraced(name, seed, 0.0, [0.0], scale),
            "traced": runner.run_traced(name, seed, [0.0], scale),
        }
        for name, scale in scales.items()
    }
    return {"seed": seed, "workloads": workloads, "calib_mops": 1.0}


def test_injected_slowdown_is_named_and_bypass_is_unchanged():
    # Sized up from TINY: the verdict needs repetitions long enough to
    # repeat within the bound.
    scales = {"kv_sharded": 4 * TINY["kv_sharded"],
              "kernel_pingpong": 10 * TINY["kernel_pingpong"]}
    before = result_file(3, scales)
    undo = rebind(cow.estimate_size, slowed(cow.estimate_size))
    try:
        after = result_file(3, scales)
    finally:
        undo()
    result = compare.compare(before, after)

    kv = result["workloads"]["kv_sharded"]
    assert kv["movers"][0]["metric"] == (
        "store.cow.estimate_size.self_us_per_op"), compare.render(result)
    # By share, not by microseconds: the machine may drift between the
    # two result files, the split of its time may not.
    assert kv["movers"][0]["share_b"] > kv["movers"][0]["share_a"]
    assert kv["exact_diffs"] == []  # slower, not different work

    pingpong = result["workloads"]["kernel_pingpong"]
    verdicts = {row["metric"]: row["verdict"]
                for row in pingpong["end_to_end"]}
    assert verdicts["ops_per_s"] == "unchanged", compare.render(result)
    assert pingpong["exact_diffs"] == []
    assert all(row["a"] == row["b"] == 0.0 for row in pingpong["movers"]
               if row["metric"].startswith("store."))
