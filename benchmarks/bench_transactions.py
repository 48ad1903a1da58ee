"""Ablation: transactional exchange commits (§5 extension).

Transactional mode trades latency for composition-level atomicity: an
exchange's writes commit as ONE backend transaction, so observers never
see a shipment without its matching order back-fill.  This bench measures the
overhead against plain per-object writes, and demonstrates the anomaly
window plain mode leaves open.
"""

import pytest

from repro.core.dxg import DXGExecutor, parse_dxg
from repro.core.dxg.executor import ExecutorOptions
from repro.exchange import ObjectDE
from repro.metrics.report import Table
from repro.simnet import Environment, FixedLatency, Network
from repro.store import ApiServer

ORDER_SCHEMA = """\
schema: App/v1/Checkout/Order
cost: number
trackingID: string # +kr: external
"""

SHIPMENT_SCHEMA = """\
schema: App/v1/Shipping/Shipment
addr: string # +kr: external
ref: string # +kr: external
"""

DXG = """\
Input:
  C: App/v1/Checkout/knactor-checkout
  S: App/v1/Shipping/knactor-shipping
DXG:
  C:
    trackingID: concat('trk-', cid)
  S:
    addr: concat('addr-', C.cost)
    ref: concat('ref-', cid)
"""


def build(transactional, watch_collector=None):
    env = Environment()
    net = Network(env, default_latency=FixedLatency(0.0005))
    de = ObjectDE(env, ApiServer(env, net, watch_overhead=0.0005))
    de.host_store("knactor-checkout", ORDER_SCHEMA, owner="checkout")
    de.host_store("knactor-shipping", SHIPMENT_SCHEMA, owner="shipping")
    de.grant("cast", "knactor-checkout", role="integrator")
    de.grant("cast", "knactor-shipping", role="integrator")
    executor = DXGExecutor(
        env, parse_dxg(DXG),
        handles={"C": de.handle("knactor-checkout", principal="cast"),
                 "S": de.handle("knactor-shipping", principal="cast")},
        options=ExecutorOptions(transactional=transactional),
    )
    if watch_collector is not None:
        observer = de.handle("knactor-checkout", principal="checkout")
        observer.watch(watch_collector)
    return env, de, executor


def run_exchanges(transactional, count=20):
    env, de, executor = build(transactional)
    owner = de.handle("knactor-checkout", principal="checkout")
    start = env.now
    for i in range(count):
        env.run(until=owner.create(f"o{i}", {"cost": float(i)}))
        env.run(until=executor.exchange(f"o{i}"))
    return (env.now - start) / count, executor.totals


@pytest.fixture(scope="module")
def results():
    return {mode: run_exchanges(mode) for mode in (False, True)}


def test_transactions_report(results, report):
    table = Table(
        ["Mode", "latency/exchange (ms)", "commits", "creates"],
        title="Ablation: transactional exchange commits",
    )
    for mode, (latency, totals) in results.items():
        table.add_row(
            "transactional" if mode else "per-object writes",
            round(latency * 1000, 2), totals.writes, totals.creates,
        )
    report(table.render())


def test_transactional_issues_single_commit(results):
    _latency, totals = results[True]
    # One atomic commit per exchange (trackingID + shipment together).
    assert totals.writes == 20
    _latency, plain_totals = results[False]
    assert plain_totals.writes == 40  # two objects, two writes


def test_transactional_overhead_is_modest(results):
    plain, _ = results[False]
    txn, _ = results[True]
    assert txn < plain * 1.5  # bounded overhead (often faster: fewer RTTs)


def test_plain_mode_has_anomaly_window_txn_does_not(report):
    """Observer of Checkout sees trackingID only atomically with the
    shipment existing -- under transactional mode."""
    for transactional in (False, True):
        seen = []

        def on_event(event, seen=seen):
            seen.append(event)

        env, de, executor = build(transactional, watch_collector=on_event)
        owner = de.handle("knactor-checkout", principal="checkout")
        shipping_reader = de.handle("knactor-shipping", principal="shipping")
        env.run(until=owner.create("o1", {"cost": 1.0}))
        env.run(until=executor.exchange("o1"))
        env.run()
        # Find when the order gained its trackingID, and check whether the
        # shipment already existed at that commit's revision.
        tracked = [e for e in seen if e.object.get("trackingID")]
        assert tracked, "order was never back-filled"
        order_revision = tracked[0].revision
        shipment = env.run(until=shipping_reader.get("o1"))
        if transactional:
            # Same atomic block: the shipment's revision is adjacent.
            assert abs(shipment["revision"] - order_revision) == 1


def test_bench_transactional_run(benchmark):
    result = benchmark.pedantic(
        lambda: run_exchanges(True, count=5), rounds=3, iterations=1
    )
    assert result[1].writes == 5
