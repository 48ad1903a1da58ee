"""The comparer's verdicts and refusals, on synthetic result files."""

import copy

import pytest

from benchmarks.perf import compare, spec


def stats(median, iqr=0.0, lo=None, hi=None):
    return {"median": median, "q1": median - iqr / 2, "q3": median + iqr / 2,
            "min": median - iqr if lo is None else lo,
            "max": median + iqr if hi is None else hi, "n": 7}


OPS = spec.END_TO_END_BY_NAME["ops_per_s"]  # higher is better, bound 10 %
SETUP = spec.END_TO_END_BY_NAME["setup_s"]  # lower is better, bound 15 %


@pytest.mark.parametrize("a, b, expected", [
    (stats(100, 2), stats(101, 2), "unchanged"),
    (stats(100, 2), stats(85, 2), "regressed"),
    (stats(100, 2), stats(120, 2), "improved"),
    (stats(100, 30), stats(95, 30), "unresolved"),
    # Noisy, but every B run beats every A run: resolved as improved.
    (stats(100, 20, 85, 112), stats(150, 20, 135, 165), "improved"),
])
def test_verdicts_higher_is_better(a, b, expected):
    assert compare.verdict(OPS, a, b)[0] == expected


def test_verdict_lower_is_better():
    assert compare.verdict(SETUP, stats(1.0), stats(1.3))[0] == "regressed"
    assert compare.verdict(SETUP, stats(1.0), stats(0.7))[0] == "improved"
    assert compare.verdict(SETUP, stats(1.0), stats(1.1))[0] == "unchanged"


def test_failed_share_bound_is_absolute():
    metric = spec.END_TO_END_BY_NAME["failed_share"]
    assert compare.verdict(metric, stats(0.0), stats(0.0))[0] == "unchanged"
    assert compare.verdict(metric, stats(0.0), stats(0.01))[0] == "regressed"


def result_file(calib=5.0, seed=1, ops=100.0, estimate=10.0):
    layers = {m.name: 0.0 for m in spec.PER_LAYER}
    layers["store.cow.estimate_size.self_us_per_op"] = estimate
    layers["simnet.step.self_us_per_op"] = 40.0
    layers["store.proc.self_us_per_op"] = 30.0
    layers["store.cow.estimate_size.calls_per_op"] = 4.0
    workload = {
        "untraced": {
            "size": {"ops": 16000}, "state_digest": "d", "kernel_events": 9,
            "end_to_end": {"ops_per_s": stats(ops, 2), "setup_s": stats(0.2),
                           "peak_rss_mb": stats(40.0),
                           "failed_share": stats(0.0)},
        },
        "traced": {"per_layer": layers},
    }
    return {"seed": seed, "calib_mops": calib,
            "workloads": {"kv_sharded": workload}}


def test_top_mover_and_exact_diff():
    a, b = result_file(), result_file(estimate=14.0)
    b["workloads"]["kv_sharded"]["traced"]["per_layer"][
        "store.cow.estimate_size.calls_per_op"] = 5.0
    section = compare.compare(a, b)["workloads"]["kv_sharded"]
    assert section["movers"][0]["metric"] == (
        "store.cow.estimate_size.self_us_per_op")
    assert section["exact_diffs"] == [{
        "metric": "store.cow.estimate_size.calls_per_op",
        "a": 4.0, "b": 5.0}]
    assert "unchanged" in compare.render(compare.compare(a, b))


def test_refuses_other_seed_size_or_machine():
    a = result_file()
    with pytest.raises(compare.Refusal, match="seeds differ"):
        compare.compare(a, result_file(seed=2))
    with pytest.raises(compare.Refusal, match="different machine"):
        compare.compare(a, result_file(calib=6.0))
    bigger = copy.deepcopy(a)
    bigger["workloads"]["kv_sharded"]["untraced"]["size"]["ops"] = 32000
    with pytest.raises(compare.Refusal, match="sizes differ"):
        compare.compare(a, bigger)
    forced = compare.compare(a, result_file(calib=6.0), force=True)
    assert forced["warnings"]


def test_state_digest_change_is_a_regression():
    a, b = result_file(), result_file()
    b["workloads"]["kv_sharded"]["untraced"]["state_digest"] = "other"
    assert compare.regressions(compare.compare(a, b)) == [
        ("kv_sharded", "state_digest", "differs")]
