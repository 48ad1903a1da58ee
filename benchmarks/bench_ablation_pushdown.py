"""Ablation: integrator push-down vs payload size.

Push-down (§3.3) removes the integrator's per-exchange network transfers;
its advantage should therefore GROW with state size.  We sweep the
order's item count (payload bytes) with push-down on/off on the
in-memory backend.
"""

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.measure import SHIPMENT_DXG, extract_stages
from repro.core.optimizer import K_REDIS, K_REDIS_UDF
from repro.metrics.report import Table

ITEM_COUNTS = (2, 40, 200)


def run_profile(profile, item_count, orders=8):
    app = RetailKnactorApp.build(
        profile=profile, with_notify=False, dxg=SHIPMENT_DXG, obs=True
    )
    env = app.env

    def driver(env):
        for i in range(orders):
            items = {
                f"sku-{j:04d}": {"name": f"sku-{j:04d}", "priceUSD": 9.99}
                for j in range(item_count)
            }
            yield app.place_order(
                f"order/o{i:04d}",
                {
                    "items": items,
                    "address": "12 Elm St",
                    "cost": 9.99 * item_count,
                    "totalCost": 9.99 * item_count,
                    "currency": "USD",
                    "status": "placed",
                },
            )
            yield env.timeout(2.0)

    env.process(driver(env))
    app.run_until_quiet(max_seconds=orders * 2.0 + 60.0)
    return extract_stages(app, profile.name, pushdown=profile.pushdown)


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for profile in (K_REDIS, K_REDIS_UDF):
        for items in ITEM_COUNTS:
            results[(profile.name, items)] = run_profile(profile, items)
    return results


def test_pushdown_report(sweep, report):
    table = Table(
        ["Setup", "items/order", "Prop. mean (ms)", "I-S mean (ms)"],
        title="Ablation: push-down x payload size",
    )
    for (name, items), bd in sorted(sweep.items()):
        table.add_row(
            name, items,
            round(bd.mean("Prop.") * 1000, 2),
            round(bd.mean("I-S") * 1000, 2),
        )
    report(table.render())


def test_pushdown_wins_at_every_size(sweep):
    for items in ITEM_COUNTS:
        assert (
            sweep[("K-redis-udf", items)].mean("Prop.")
            < sweep[("K-redis", items)].mean("Prop.")
        ), items


def test_pushdown_advantage_grows_with_payload(sweep):
    def advantage(items):
        return (
            sweep[("K-redis", items)].mean("Prop.")
            - sweep[("K-redis-udf", items)].mean("Prop.")
        )

    assert advantage(ITEM_COUNTS[-1]) > advantage(ITEM_COUNTS[0])


def test_bench_pushdown_run(benchmark):
    result = benchmark.pedantic(
        lambda: run_profile(K_REDIS_UDF, 40, orders=4), rounds=3, iterations=1
    )
    assert result.count() >= 3
