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
seed gave before that was so (its SHA-256 below).  The pins were taken
again when the store stats lost ``watch_shed_events`` (the paused
buffer has one policy, which breaks the stream): each seed's report is
the earlier one with that key removed, and nothing else.
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
    0: "89052c32edfc6ebd8e3cdff9060d28d3a3e970f727a3a8698a9b25cf488fa07a",
    1: "40d08b9e8478f556ceac376309b3fe7997c6a97d6355abe872406943fd5c25ab",
    2: "9f3cc6bafd39d96502502bb53db4c137f74ea4a37a456d12a8c9ad51315dfb88",
    3: "e9663900b4a2a88248b263ff76c17570f31b799bfc3920aa49b55bc4f7ab598c",
    4: "ad3f135edf05916b2c5b3b15cb73dd1482d2c985d6f305f84b17e534e3a0c4bf",
    5: "ca9b14338d3f8567436a92849d39c763b5ae52055e58493bb1877082bbd4104c",
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
