"""Chaos benchmark: the retail app under a seeded fault schedule.

The robustness counterpart to the latency benches: run the full Knactor
retail app (checkout x shipping x payment through one Cast) while a
:class:`~repro.faults.FaultInjector` crashes the store backend,
partitions links, and drops messages per a deterministic
:class:`~repro.faults.FaultPlan`.  Asserts the properties the resilience
layer exists to provide:

- **convergence** -- every placed order reaches ``fulfilled`` after the
  faults heal (level-triggered reconciliation + watch resync),
- **zero lost updates** -- no acknowledged create disappears (apiserver
  WAL replay across crashes),
- **determinism** -- the same seed reproduces the identical fault event
  trace and final state digest, twice.
"""

import pytest

from repro.faults.chaos import default_retail_plan, describe_report, run_retail_chaos

SEED = 42
ORDERS = 5


@pytest.fixture(scope="module")
def chaos_runs():
    """Two same-seed runs (module-scoped: the sim pair takes a while)."""
    return (
        run_retail_chaos(seed=SEED, orders=ORDERS),
        run_retail_chaos(seed=SEED, orders=ORDERS),
    )


def test_plan_contains_required_fault_classes():
    plan = default_retail_plan(SEED)
    assert plan.count("crash") >= 1
    assert plan.count("partition") >= 1
    assert plan.count("drop") >= 1


def test_converges_with_zero_lost_updates(chaos_runs, report):
    first, _ = chaos_runs
    assert first["lost"] == [], f"lost committed orders: {first['lost']}"
    assert first["unfulfilled"] == [], (
        f"orders never fulfilled: {first['unfulfilled']}"
    )
    assert first["converged"]
    assert first["orders"] == ORDERS
    # The schedule actually bit: the store crashed and clients retried.
    assert first["resilience"]["exchanges"]["object"]["backend"][
        "crash_count"] >= 1
    assert first["retry"]["retries"] > 0
    report(describe_report(first))


def test_same_seed_reproduces_identical_trace(chaos_runs):
    first, second = chaos_runs
    assert first["fault_trace"] == second["fault_trace"]
    assert first["order_states"] == second["order_states"]
    assert first["state_digest"] == second["state_digest"]
    assert first["convergence_time"] == second["convergence_time"]
    assert first["retry"] == second["retry"]
