"""A request's root span closes with what its process did.

Each app that opens a root causal trace per request (a retail order, a
fleet reading, a smart-home motion reading, the RPC baseline's order)
ends that span from the request process's result, the way
``span_process`` does: ``outcome="ok"`` on success, else the failure's
type name.
"""

import random

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.rpc_app import RetailRpcApp
from repro.apps.retail.workload import OrderWorkload
from repro.errors import AlreadyExistsError, RPCStatusError, UnavailableError
from repro.load import SmartHomeLoadScenario
from repro.load.sensorfleet import SensorFleetApp


def root_of(tracer, trace_id):
    [root] = tracer.roots(trace_id)
    return root


def test_retail_order_root_span_outcome():
    app = RetailKnactorApp.build(obs=True)
    workload = OrderWorkload(seed=7)
    key, data = workload.next_order()
    app.env.run(until=app.place_order(key, data))
    ok_trace = app.last_trace_id
    with pytest.raises(AlreadyExistsError):
        app.env.run(until=app.place_order(key, data))
    tracer = app.runtime.obs.causal
    assert root_of(tracer, ok_trace).attrs["outcome"] == "ok"
    failed = root_of(tracer, app.last_trace_id)
    assert failed.name == "place-order"
    assert failed.attrs["outcome"] == "AlreadyExistsError"
    assert failed.end is not None


def test_fleet_reading_root_span_outcome():
    app = SensorFleetApp.build()
    proc, ok_trace = app.ingest("dev-1", 20.0)
    app.env.run(until=proc)
    app.log_de.backend.set_available(False)
    proc, failed_trace = app.ingest("dev-2", 21.0)
    with pytest.raises(UnavailableError):
        app.env.run(until=proc)
    tracer = app.runtime.obs.causal
    assert root_of(tracer, ok_trace).attrs == {"key": "dev-1",
                                              "outcome": "ok"}
    assert root_of(tracer, failed_trace).attrs == {
        "key": "dev-2", "outcome": "UnavailableError"}


def test_smarthome_reading_root_span_outcome():
    scenario = SmartHomeLoadScenario()
    rng = random.Random(1)
    proc, ok_trace = scenario.submit(None, "motion-01", rng)
    scenario.env.run(until=proc)
    motion_log = scenario.app.runtime.handle_of("motion", "log")
    motion_log.de.backend.set_available(False)
    proc, failed_trace = scenario.submit(None, "motion-02", rng)
    with pytest.raises(UnavailableError):
        scenario.env.run(until=proc)
    tracer = scenario.obs.causal
    assert root_of(tracer, ok_trace).attrs["outcome"] == "ok"
    failed = root_of(tracer, failed_trace)
    assert failed.name == "motion-reading"
    assert failed.attrs["outcome"] == "UnavailableError"


def test_rpc_order_root_span_outcome():
    app = RetailRpcApp.build()
    _key, data = OrderWorkload(seed=7).next_order()
    app.env.run(until=app.place_order(data))
    with pytest.raises(RPCStatusError):
        app.env.run(until=app.place_order(dict(data, cardToken="")))
    ok_trace, failed_trace = app.tracer.trace_ids()
    assert root_of(app.tracer, ok_trace).attrs == {"outcome": "ok"}
    assert root_of(app.tracer, failed_trace).attrs == {
        "outcome": "RPCStatusError"}
