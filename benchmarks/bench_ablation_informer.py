"""Ablation: integrator read strategy (refresh vs informer cache).

The executor can re-GET every source object per exchange
(``refresh_reads=True``, the paper's data-movement accounting) or serve
reads from the watch-fed informer cache (``refresh_reads=False``), the
way Kubernetes controllers do.  The cache removes read round trips from
the propagation path at the cost of acting on possibly-stale state
(safe here: watch events themselves trigger re-evaluation).
"""

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.measure import SHIPMENT_DXG, extract_stages
from repro.apps.retail.workload import OrderWorkload
from repro.core.dxg.executor import ExecutorOptions
from repro.core.optimizer import K_APISERVER, K_REDIS
from repro.metrics.report import Table


def run(profile, refresh_reads, orders=10):
    app = RetailKnactorApp.build(
        profile=profile, with_notify=False, dxg=SHIPMENT_DXG, obs=True
    )
    app.cast.options = ExecutorOptions(
        refresh_reads=refresh_reads, trust_cache_for_missing=True
    )
    app.cast.reconfigure(body={})  # rebuild executor with the new options
    workload = OrderWorkload(seed=7)
    env = app.env

    def driver(env):
        for _ in range(orders):
            key, data = workload.next_order()
            yield app.place_order(key, data)
            yield env.timeout(2.0)

    env.process(driver(env))
    app.run_until_quiet(max_seconds=orders * 2.0 + 60.0)
    return extract_stages(app, profile.name, pushdown=False)


@pytest.fixture(scope="module")
def sweep():
    return {
        (profile.name, refresh): run(profile, refresh)
        for profile in (K_APISERVER, K_REDIS)
        for refresh in (True, False)
    }


def test_informer_report(sweep, report):
    table = Table(
        ["Backend", "reads", "C-I (ms)", "I-S (ms)", "Prop. (ms)"],
        title="Ablation: refresh reads vs informer cache",
    )
    for (name, refresh), bd in sorted(sweep.items()):
        table.add_row(
            name,
            "refresh" if refresh else "informer-cache",
            round(bd.mean("C-I") * 1000, 2),
            round(bd.mean("I-S") * 1000, 2),
            round(bd.mean("Prop.") * 1000, 2),
        )
    report(table.render())


def test_cache_cuts_propagation_on_slow_backend(sweep):
    refreshed = sweep[("K-apiserver", True)].mean("Prop.")
    cached = sweep[("K-apiserver", False)].mean("Prop.")
    assert cached < refreshed


def test_results_equivalent_either_way(sweep):
    """Both read strategies complete every request correctly."""
    for bd in sweep.values():
        assert bd.count() == 10


def test_bench_informer_run(benchmark):
    result = benchmark.pedantic(
        lambda: run(K_REDIS, False, orders=4), rounds=3, iterations=1
    )
    assert result.count() == 4
