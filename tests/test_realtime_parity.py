"""Sim vs realtime parity: same apps, same seeds, identical outcomes.

The realtime backend keeps the sim's heap discipline and schedule
clock, so an identically-configured run must pop events in the same
order and commit the same state -- revisions included.  These tests
run the retail, smarthome, and socialnetwork apps under both backends
and compare final store state and event-ordering fingerprints.
"""

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.apps.smarthome.knactor_app import SmartHomeKnactorApp
from repro.apps.smarthome.workload import MotionTrace
from repro.apps.socialnetwork.rpc_app import SocialNetworkRpcApp
from repro.core.optimizer import K_REDIS
from repro.realtime import RealtimeEnvironment
from repro.simnet import Environment
from tests.test_simnet_order import SeamEnvironment, SeamRealtimeEnvironment

#: Real seconds per schedule second for realtime runs under test.
FACTOR = 0.02

RETAIL_ORDERS = 3


def _env(backend):
    if backend == "realtime":
        return RealtimeEnvironment(factor=FACTOR)
    return Environment()


# -- retail ----------------------------------------------------------------


def _run_retail(backend, shape_latency):
    """One seeded retail run; returns (state, event order, timestamps)."""
    app = RetailKnactorApp.build(
        env=_env(backend), profile=K_REDIS, seed=7,
        shape_latency=shape_latency,
    )
    watched = []
    app.de.grant("parity-watcher", "knactor-checkout", role="reader")
    app.de.handle("knactor-checkout", principal="parity-watcher").watch(
        lambda event: watched.append((event.key, event.type, event.revision))
    )
    workload = OrderWorkload(seed=7)
    for _ in range(RETAIL_ORDERS):
        key, data = workload.next_order()
        data["email"] = "shopper@example.com"
        app.env.run(until=app.place_order(key, data))
    app.run_until_quiet(max_seconds=60.0)
    state = []
    for store in ("knactor-checkout", "knactor-shipping", "knactor-payment",
                  "knactor-email"):
        handle = app.de.handle(store, principal=app.de.store(store).owner)
        for view in app.env.run(until=handle.list()):
            state.append((store, view["key"], view["revision"], view["data"]))
    return state, watched, app.env.now


@pytest.mark.parametrize("shape_latency", [True, False],
                         ids=["shaped", "unshaped"])
def test_retail_parity(shape_latency):
    sim_state, sim_events, sim_now = _run_retail("sim", shape_latency)
    rt_state, rt_events, rt_now = _run_retail("realtime", shape_latency)
    assert sim_state == rt_state
    assert sim_events == rt_events
    assert sim_now == pytest.approx(rt_now)
    # The run did real work: every order fulfilled, watch saw deliveries.
    fulfilled = [
        row for row in sim_state
        if row[0] == "knactor-checkout" and row[3].get("status") == "fulfilled"
    ]
    assert len(fulfilled) == RETAIL_ORDERS
    assert sim_events


# -- smarthome -------------------------------------------------------------


def _run_smarthome(backend):
    app = SmartHomeKnactorApp.build(
        env=_env(backend), trace=MotionTrace(seed=11, duration=20),
        shape_latency=False,
    )
    app.run(until=24.0)
    state = []
    for store in ("knactor-house", "knactor-lamp", "knactor-motion"):
        owner = app.object_de.store(store).owner
        handle = app.object_de.handle(store, principal=owner)
        for view in app.env.run(until=handle.list()):
            state.append((store, view["key"], view["revision"], view["data"]))
    [report] = app.env.run(until=app.energy_report())
    return state, app.house.kwh_total, report


def test_smarthome_parity():
    sim_state, sim_kwh, sim_report = _run_smarthome("sim")
    rt_state, rt_kwh, rt_report = _run_smarthome("realtime")
    assert sim_state == rt_state
    assert sim_kwh == pytest.approx(rt_kwh)
    assert sim_report == rt_report
    # Motion events flowed and the lamp integrated real energy.
    assert sim_report["motion_events"] > 0
    assert sim_kwh > 0


# -- socialnetwork ---------------------------------------------------------


def _run_socialnetwork(backend):
    app = SocialNetworkRpcApp.build(env=_env(backend), shape_latency=False)
    results = [
        app.env.run(until=app.compose_post(req_id=f"r{i}")) for i in range(3)
    ]
    return results, list(app.calls_traced), app.env.now


def test_socialnetwork_parity():
    sim_results, sim_calls, sim_now = _run_socialnetwork("sim")
    rt_results, rt_calls, rt_now = _run_socialnetwork("realtime")
    assert sim_results == rt_results
    assert sim_calls == rt_calls
    assert sim_now == pytest.approx(rt_now)
    # The compose fan-out really traversed the call graph.
    assert len({service for service, _m in sim_calls}) >= 10


# -- retail, with a listener attached ---------------------------------------


def test_retail_parity_with_a_listener_attached(monkeypatch):
    """A registered external source is the one configuration in which the
    kernel yields loop turns mid-schedule (``knactor serve``, the
    ``http_realtime`` workload); with no traffic it must still pop the
    sim's events in the sim's order."""
    # ``heap_log``: the kernel's full order key of every entry ``step`` pops.
    envs = {"sim": SeamEnvironment(),
            "realtime": SeamRealtimeEnvironment(factor=0.0)}
    envs["realtime"].register_external_source("a listener, no traffic")
    monkeypatch.setitem(globals(), "_env", envs.__getitem__)
    sim_state, sim_events, sim_now = _run_retail("sim", True)
    rt_state, rt_events, rt_now = _run_retail("realtime", True)
    assert sim_state == rt_state  # revisions included
    assert sim_events == rt_events
    assert sim_now == rt_now
    popped = envs["realtime"].heap_log
    assert popped == envs["sim"].heap_log
    assert len(popped) > 1000
    # ...and it got there in bursts, not one loop turn per event.
    assert envs["realtime"].turns < len(popped) / 10
    envs["realtime"].close()
