"""Chaos recovery: the retail app under a seeded fault schedule.

Run the full Knactor retail app (checkout x shipping x payment through
one Cast) while a :class:`~repro.faults.FaultInjector` crashes the store
backend, partitions links, and drops messages per a deterministic
:class:`~repro.faults.FaultPlan`.  Asserts the properties the resilience
layer exists to provide:

- **convergence** -- every placed order reaches ``fulfilled`` after the
  faults heal (level-triggered reconciliation + watch resync),
- **zero lost updates** -- no acknowledged create disappears (apiserver
  WAL replay across crashes),
- **determinism** -- the same seed reproduces the identical fault event
  trace and final state digest, twice.

A failed request is no reference cycle: seeds 0-5 leave no traceback,
frame or exception in cyclic garbage, and each report is the one the
seed gave before that was so (its SHA-256 below).
"""

import gc
import hashlib
import json
import types

import pytest

from repro.faults.chaos import default_retail_plan, run_retail_chaos

SEED = 42
ORDERS = 5

#: ``run_retail_chaos(seed)``'s report (6 orders), as sorted-key JSON.
REPORT_SHA256 = {
    0: "786f2f0ca3c3e313e66d8f42a7c4d7b8bfefb4ba3f6d16edb750012cf6380aa4",
    1: "acdb42dc4c299b2a70b4e50bae841a3a31dbd3634f8da73976537cf73f5e2f7f",
    2: "7a20a2ce69a25923fbd5ab00f6b40bffdbdf1e7797aef3103500c825f4f3321d",
    3: "4687f0b5246e8fa28ccbb2097326ba04d78b1f372481c0a06e72ca0519878968",
    4: "c1429886a1a0d88dd497389f446882c9b85cca7df09e0347bf7a68440c8208bd",
    5: "471b9e89edca9c301244066df57b2edf8dbbd5ec5117d752353a8ad23751434d",
}


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


def test_converges_with_zero_lost_updates(chaos_runs):
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


def test_same_seed_reproduces_identical_trace(chaos_runs):
    first, second = chaos_runs
    assert first["fault_trace"] == second["fault_trace"]
    assert first["order_states"] == second["order_states"]
    assert first["state_digest"] == second["state_digest"]
    assert first["convergence_time"] == second["convergence_time"]
    assert first["retry"] == second["retry"]


@pytest.mark.parametrize("seed", sorted(REPORT_SHA256))
def test_failed_requests_leave_no_cyclic_garbage(seed):
    # Only these types: the app's own object graph is cyclic by design
    # and becomes garbage once the run returns.
    failure = (types.TracebackType, types.FrameType, BaseException)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        report = run_retail_chaos(seed=seed)
        gc.collect()
        kept = [type(o).__name__ for o in gc.garbage if isinstance(o, failure)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert kept == []
    text = json.dumps(report, sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[seed]
