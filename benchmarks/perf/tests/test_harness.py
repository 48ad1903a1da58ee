"""Determinism of the workloads and transparency of the tracer."""

import pytest

from benchmarks.perf import runner
from benchmarks.perf.tests import SIM_WORKLOADS, TINY
from benchmarks.perf.tracer import Tracer, package_of
from repro.simnet import Environment, Interrupt


def rep(name, seed=1, tracer=None):
    workload = runner.WORKLOADS[name](seed, TINY[name])
    return workload, runner.Rep(workload, tracer)


@pytest.mark.parametrize("name", list(TINY))
def test_same_seed_is_identical_work(name):
    workload, first = rep(name)
    _, second = rep(name)
    assert first.outcome.failed == 0, first.outcome.errors
    assert first.outcome.attempted > 0
    assert runner._determinism(workload, [first, second]) == []
    assert first.outcome.digest == second.outcome.digest
    if workload.exact_events:
        assert first.outcome.events == second.outcome.events


@pytest.mark.parametrize("name", list(TINY))
def test_other_seed_is_other_inputs(name):
    _, one = rep(name, seed=1)
    _, two = rep(name, seed=2)
    assert one.outcome.failed == two.outcome.failed == 0
    assert one.outcome.digest != two.outcome.digest


@pytest.mark.parametrize("name", list(TINY))
def test_tracing_changes_no_output(name):
    workload, plain = rep(name)
    tracer = Tracer()
    _, traced = rep(name, tracer=tracer)
    assert traced.outcome.failed == 0, traced.outcome.errors
    assert traced.outcome.digest == plain.outcome.digest
    assert runner._sim_metrics(workload, traced.outcome) == (
        runner._sim_metrics(workload, plain.outcome))
    assert traced.outcome.counters == plain.outcome.counters or (
        not workload.exact_events)
    if workload.exact_events:
        # The step span counts exactly the kernel events of the region.
        assert tracer.count("simnet.step") == traced.outcome.events
    # Everything is unwrapped again afterwards.
    assert Environment.step.__name__ == "step"
    assert not hasattr(Environment.step, "__wrapped__")


def test_bypassed_layers_report_zero_calls():
    _, traced = rep("kernel_pingpong", tracer=(tracer := Tracer()))
    assert traced.outcome.failed == 0
    used = {span for span, (count, _ns) in tracer.spans.items() if count}
    assert used == {"simnet.step", "simnet.schedule", "simnet.network",
                    "simnet.queue", "simnet.process", "proc:bench"} - (
        {"simnet.process"} - used)
    _, traced = rep("kv_sharded", tracer=(tracer := Tracer()))
    for span in ("obs.registry", "obs.causal", "exchange.access",
                 "core.dxg.evaluate", "proc:core.reconciler", "flow.admit"):
        assert tracer.count(span) == 0, span
    assert tracer.count("store.ring") > 0
    assert tracer.count("proc:txn") > 0
    _, traced = rep("retail_orders", tracer=(tracer := Tracer()))
    assert tracer.count("store.ring") == 0  # one shard: no ring
    assert tracer.count("core.dxg.evaluate") > 0


def test_layer_metrics_are_complete():
    record = runner.run_traced("kv_sharded", 1, [0.0], TINY["kv_sharded"])
    assert record["deterministic"] and record["failed"] == 0
    result = runner.driver_result(record)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert len(result["metrics"]) == 95
    assert result["metrics"]["sim_p50_ms"]["value"] > 0
    assert record["per_layer"]["trace.overhead_ratio"] > 1.0
    assert 0.0 < record["per_layer"]["trace.attributed_share"] <= 1.0
    assert record["per_layer"]["probe.store.ring.hash_key_ns"] > 0


# -- the process proxy ------------------------------------------------------


def test_package_of_names_spans_by_package():
    import repro.core.dxg.executor as executor
    import repro.core.reconciler as reconciler
    import repro.store.base as base
    import repro.store.sharded as sharded

    assert package_of(base.StoreClient._request.__code__) == "proc:store"
    assert package_of(
        sharded.ShardedStoreClient._routed_proc.__code__
    ) == "proc:store.sharded"
    assert package_of(
        reconciler.Reconciler._work_loop.__code__) == "proc:core.reconciler"
    assert package_of(
        executor.DXGExecutor._exchange.__code__) == "proc:core.dxg"
    assert package_of(test_package_of_names_spans_by_package.__code__) == (
        "proc:bench")


def test_proxy_forwards_values_exceptions_and_interrupts():
    log = []

    def child(env):
        got = yield env.timeout(1.0, value="tick")
        log.append(got)
        return "child-result"

    def failing(env):
        yield env.timeout(0.5)
        raise ValueError("boom")

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause))
            return "woken"

    def parent(env):
        log.append((yield env.process(child(env))))
        try:
            yield env.process(failing(env))
        except ValueError as exc:
            log.append(str(exc))
        proc = env.process(sleeper(env))
        yield env.timeout(1.0)
        proc.interrupt("wake up")
        log.append((yield proc))
        return "done"

    with Tracer() as tracer:
        env = Environment()
        result = env.run(until=env.process(parent(env)))
    assert result == "done"
    assert log == ["tick", "child-result", "boom",
                   ("interrupted", "wake up"), "woken"]
    assert tracer.spawns == 4
    assert tracer.count("proc:bench") >= 8
    assert tracer.self_us("proc:bench") > 0

    # And with no tracer the same program gives the same answers.
    log_traced, log[:] = list(log), []
    env = Environment()
    assert env.run(until=env.process(parent(env))) == "done"
    assert log == log_traced
