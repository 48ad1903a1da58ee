"""Ablation: zero-copy (co-located integrator) vs object size.

§3.3: "when data stores are hosted on the DE, the DE and integrator can
implement zero-copy data exchange to further minimize the data
movement."  We model co-location: the integrator runs at the backend's
network location, eliminating its per-op network hops.  The saving
scales with how chatty the exchange is, and is bounded by per-op costs.
"""

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.measure import SHIPMENT_DXG, extract_stages
from repro.core.optimizer import OptimizationProfile
from repro.metrics.report import Table

REMOTE = OptimizationProfile(name="K-redis", backend="memkv")
ZERO_COPY = OptimizationProfile(
    name="K-redis-zerocopy", backend="memkv", zero_copy=True
)

ITEM_COUNTS = (2, 100)


def run(profile, item_count, orders=8):
    app = RetailKnactorApp.build(
        profile=profile, with_notify=False, dxg=SHIPMENT_DXG, obs=True
    )
    env = app.env

    def driver(env):
        for i in range(orders):
            items = {
                f"sku-{j:04d}": {"name": f"sku-{j:04d}", "priceUSD": 5.0}
                for j in range(item_count)
            }
            yield app.place_order(
                f"order/o{i:04d}",
                {"items": items, "address": "9 Oak Ave", "cost": 5.0 * item_count,
                 "totalCost": 5.0 * item_count, "currency": "USD",
                 "status": "placed"},
            )
            yield env.timeout(2.0)

    env.process(driver(env))
    app.run_until_quiet(max_seconds=orders * 2.0 + 60.0)
    return extract_stages(app, profile.name, pushdown=False)


@pytest.fixture(scope="module")
def sweep():
    return {
        (profile.name, items): run(profile, items)
        for profile in (REMOTE, ZERO_COPY)
        for items in ITEM_COUNTS
    }


def test_zerocopy_report(sweep, report):
    table = Table(
        ["Setup", "items/order", "Prop. mean (ms)", "I-S mean (ms)"],
        title="Ablation: zero-copy co-location x object size",
    )
    for (name, items), bd in sorted(sweep.items()):
        table.add_row(
            name, items,
            round(bd.mean("Prop.") * 1000, 2),
            round(bd.mean("I-S") * 1000, 2),
        )
    report(table.render())


def test_zerocopy_reduces_propagation(sweep):
    for items in ITEM_COUNTS:
        assert (
            sweep[("K-redis-zerocopy", items)].mean("Prop.")
            < sweep[("K-redis", items)].mean("Prop.")
        ), items


def test_zerocopy_specifically_cuts_integrator_stages(sweep):
    # The reconciler-side stages (which stay remote) are unchanged; the
    # integrator data movement shrinks.
    for items in ITEM_COUNTS:
        assert (
            sweep[("K-redis-zerocopy", items)].mean("I-S")
            < sweep[("K-redis", items)].mean("I-S")
        ), items


def test_bench_zerocopy_run(benchmark):
    result = benchmark.pedantic(
        lambda: run(ZERO_COPY, 2, orders=4), rounds=3, iterations=1
    )
    assert result.count() >= 3
