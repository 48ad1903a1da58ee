"""One tracer, counters declared once, one scrape -- pinned against PR 17.

The observability plane was restructured (ISSUE 18) without changing
anything it reports.  The literals in ``tests/golden/obs_one_plane.json``
were taken on the parent commit (de5c3fa), before ``src/`` was touched,
by running this module's own scenario builders there
(``python tests/test_obs_one_plane.py`` rewrites the file from whatever
tree is on ``PYTHONPATH``); the tests hold the restructured plane to
them leaf for leaf.

One later change moved the golden on purpose and was re-pinned: a
request through the sharded router now carries the caller's trace
context, as a plain client's does, so the two-shard scenario's
``watch_lag_seconds`` series gained their trace exemplars (four per
store) and the runtime snapshot's span count went 3 -> 27.  No other
leaf moved.

A second re-pin: a reconciler's generator ``reconcile`` now runs inside
its pass (``yield from``), under the pass's ``reconcile`` span, so the
Shipping, Payment and Checkout reconcilers' writes -- and the exchanges
those writes start -- join their order's trace instead of carrying no
context.  What moved, and nothing else:

- ``runtime_snapshot`` ``obs.traces.spans``: 27 -> 87.
- ``trace_export``: ``count`` 321 -> 381 and its ``sha256``;
  ``shape`` ``X/causal/exchange`` 6 -> 24, ``X/causal/reconcile``
  9 -> 30, ``X/causal/write`` 9 -> 30.
- ``watch_lag_seconds`` exemplars (``plane_metrics`` and the copy under
  ``runtime_snapshot`` ``obs.metrics``), 22 leaves each: a series keeps
  its four worst traced samples, and the reconcilers' writes are now
  traced samples.  Their lag is the same 10.35 ms; taken at t = 1.0 to
  1.45 s instead of t = 0.04 to 0.07 s it rounds 7.6e-17 s higher, so
  they displace the first order's exemplars: each ``time`` moves, each
  ``value`` goes 0.010350000000000005 -> 0.010350000000000081, and six
  ``trace_id``s change (t000001 -> t000007 on shard 0, t000007 ->
  t000004 on shard 1).

A third re-pin: the flat point-event log (``CausalTracer.record``) was
deleted, so spans are the one trace record.  An instant a reader needs
is an annotation on a span, and the Chrome export writes every
annotation as an ``i`` event on its span's track.  What moved, and
nothing else (``table2`` and the three snapshots hold leaf for leaf):

- ``trace_export``: ``count`` 381 -> 222 and its ``sha256``.  The 87
  ``X`` spans are unchanged.  The ``shape`` leaves of the flat log are
  gone: ``i/cast/begin`` 24, ``i/cast/end`` 24, ``i/cast/event`` 42,
  ``i/cast/writes.begin`` 24, ``i/exchange/read.done`` 42,
  ``i/integrator/exchange`` 24, ``i/reconciler/fedex.begin`` 3,
  ``i/reconciler/fedex.done`` 3, ``i/reconciler/observed`` 34,
  ``i/reconciler/order-fulfilled`` 3, ``i/reconciler/reconciled`` 34,
  ``i/request/start`` 3, ``i/store/commit`` 34.  The annotations are
  new leaves: ``i/causal/writes.begin`` 24, ``i/causal/read.done`` 42,
  ``i/causal/observed`` 30, ``i/causal/reconciled`` 30,
  ``i/causal/fedex.begin`` 3, ``i/causal/fedex.done`` 3,
  ``i/causal/order-fulfilled`` 3.  ``observed`` and ``reconciled`` are
  30, not 34: an untraced commit or pass has no span to annotate.
- ``untraced_events``: 294 -> 0.  It now counts what the run without
  a plane records (its spans): nothing.

A fourth re-pin: ``repro.metrics.telemetry`` was deleted, and a runtime
reports itself once, as ``KnactorRuntime.stats()``.  One
``runtime_stats`` section is pinned beside the ``runtime_snapshot`` and
``resilience_snapshot`` sections, which are kept as the parent wrote
them: ``parent_views`` reads both back out of ``runtime.stats()`` along
the path map below, and the test holds each of their 390 leaves to the
parent's value.  ``plane_metrics``, ``trace_export``,
``table2`` and ``untraced_events`` came out byte-identical.  Old path
-> new path (``E`` an exchange, ``N`` a component):

- ``runtime_snapshot.time``, ``resilience_snapshot.time`` -> ``time``.
- ``runtime_snapshot.knactors.N.*``, ``resilience_snapshot.reconcilers.N.*``
  -> ``knactors.N.*``.
- ``runtime_snapshot.integrators.N.*``,
  ``resilience_snapshot.integrators.N.*`` -> ``integrators.N.*``.
- ``runtime_snapshot.exchanges.E.{stores,audited_accesses,denials,retry}``
  -> ``exchanges.E.*``, same names.
- ``runtime_snapshot.exchanges.E.backend_ops.*`` ->
  ``exchanges.E.backend.op_counts.*``; ``backend_available``,
  ``backend_aborted_ops``, ``backend_crashes`` ->
  ``exchanges.E.backend.{available,aborted_ops,crash_count}``;
  ``state_plane.*`` -> ``exchanges.E.backend.*``.
- ``resilience_snapshot.stores.L.{available,aborted_ops,crashes}`` ->
  ``exchanges.E.backend.{available,aborted_ops,crash_count}`` for the
  ``E`` whose ``backend.location`` is ``L``;
  ``resilience_snapshot.retries.E.*`` -> ``exchanges.E.retry.*``;
  ``circuits`` held no leaf (a breaker reports its own ``stats()``).
- ``runtime_snapshot.obs.*`` -> ``runtime.obs.snapshot().*``, which
  ``runtime.stats()`` must not include (the plane's collector reads
  ``runtime.stats()``).  Its ``metrics`` is ``plane_metrics`` leaf for
  leaf; its ``traces`` is pinned in
  ``test_obs_snapshot_is_not_in_runtime_stats``.

The new section also holds the leaves neither old view copied out:
``queue_peak`` and ``shed`` per knactor, ``queue_depth`` per
integrator, and the rest of the backend's ``stats()``.

A fifth re-pin: every order carries its ``cid`` (``"cid": "o0000N"``,
5 + 8 + 2 = 15 bytes by ``estimate_size``), the field the storefront
page joins shipments and charges on.  No count moves; bytes and the
times they are charged for do.  What moved, and nothing else (3 orders
in every scenario):

- ``copy.by_site.ingest`` 1372 -> 1417: 3 order creates x 15 B.
- ``copy.by_site.mask`` 4260 -> 4692: 54 masked path copies of an order
  x 8 B, the one more key slot a path copy re-points.
- ``copy.by_site.merge`` 1401 -> 1473: 9 order patches x 8 B.
- ``copy.copied_bytes`` and ``copied_bytes_total`` 7033 -> 7582 =
  45 + 432 + 72.
- ``copy.shared_bytes_avoided`` and ``copy_bytes_avoided_total``
  23127 -> 24027: 60 aliased order views x 15 B.
- ``watch_wire_bytes``, ``watch_wire_bytes_total`` and
  ``network_bytes_total`` 16841 -> 17381: 36 order watch deliveries x
  15 B.
- ``time`` (every snapshot) 2.0550018187898877 -> 2.055001938789888,
  and the eight ``watch_lag_seconds`` exemplar ``time`` leaves, each
  +1.2e-7 s: two 15 B x 4 ns/B ApiServer write charges on the path.
  Shard 1's ``watch_lag_seconds`` ``p50`` 0.010350000000000002 ->
  0.010349999999999998, the same lag taken at shifted times.
- ``table2``: ``K-apiserver`` ``C-I``, ``Prop.`` and ``Total`` +60 ns
  (``C-I`` 19.676656 -> 19.676716 ms), the order create's 15 B x
  4 ns/B; ``K-redis-udf`` ``C-I``, ``Prop.`` and ``Total`` +22.5 ns,
  15 B x 1.5 ns/B; its ``I`` 1.0750200000003212 -> 1.075020000000321,
  a float rounding of the same stage.
- ``trace_export`` ``sha256``: the shifted span times; its ``count``
  (222) and ``shape`` hold.

The hand-kept ``runtime_snapshot`` and ``resilience_snapshot`` sections
were edited at the same leaves (``exchanges.object.state_plane.*`` for
the backend's ``copy.*`` and ``watch_wire_bytes``, ``obs.metrics.*``
for ``plane_metrics``, and ``time``), and at no other.

A sixth re-pin: a watch's paused buffer has one policy, which breaks
the stream when it is full, so nothing is shed and the store no longer
counts sheds.  What went, and nothing else (no leaf changed value):

- ``watch_shed_events_total`` (``kind`` and its ``exchange=object``
  series, 0.0) from ``plane_metrics`` and from the hand-kept
  ``runtime_snapshot`` ``obs.metrics.metrics``.
- ``runtime_stats`` ``exchanges.object.backend.watch_shed_events`` (0).
"""

import hashlib
import json
import pathlib
from collections import Counter

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.measure import run_knactor_setup
from repro.apps.retail.workload import OrderWorkload
from repro.cli.main import main
from repro.core.optimizer import K_REDIS
from repro.store import ShardedStoreClient, StoreServer, Topology

GOLDEN = pathlib.Path(__file__).parent / "golden" / "obs_one_plane.json"


def _plain(value):
    """JSON round trip: tuples become lists, keys strings, floats exact."""
    return json.loads(json.dumps(value))


def _run_orders(app, count):
    workload = OrderWorkload(seed=7)
    for _ in range(count):
        key, data = workload.next_order()
        app.env.run(until=app.place_order(key, data))
    app.run_until_quiet(max_seconds=60.0)


def sharded_retail():
    """Seeded retail on two shards with obs + flow armed and one 2PC txn."""
    app = RetailKnactorApp.build(
        seed=7, obs=True, flow=True, topology=Topology(shards=2))
    _run_orders(app, 3)
    store = app.de.backend
    client = ShardedStoreClient(store, "golden-caller")
    keys, index = {}, 0
    while len(keys) < 2:  # one key per shard: the txn must cross
        key = f"golden/k{index}"
        keys.setdefault(store.owner_location(key), key)
        index += 1
    ops = [{"action": "create", "key": key, "data": {"n": n}}
           for n, key in enumerate(sorted(keys.values()))]
    app.env.run(until=client.txn(ops, mode="2pc"))
    app.run_until_quiet(max_seconds=60.0)
    return app


def snapshots(app):
    return _plain({
        "plane_metrics": app.runtime.obs.snapshot()["metrics"],
        "runtime_stats": app.runtime.stats(),
        **parent_views(app),
    })


def _pick(stats, *names):
    return {name: stats[name] for name in names if name in stats}


def parent_views(app):
    """The parent's ``runtime_snapshot`` and ``resilience_snapshot``,
    read back out of ``runtime.stats()`` along the path map above."""
    stats = app.runtime.stats()
    runtime = {"time": stats["time"], "knactors": {}, "integrators": {},
               "exchanges": {}, "obs": app.runtime.obs.snapshot()}
    resilience = {"time": stats["time"], "reconcilers": {},
                  "integrators": {}, "stores": {}, "retries": {},
                  "circuits": {}}
    for name, knactor in stats["knactors"].items():
        runtime["knactors"][name] = _pick(
            knactor, "stores", "reconciles", "conflicts", "queue_depth",
            "health", "dead_letters", "unavailable")
        resilience["reconcilers"][name] = _pick(
            knactor, "health", "dead_letters", "dead_letter_keys",
            "unavailable", "kills")
    for name, integrator in stats["integrators"].items():
        runtime["integrators"][name] = {
            key: value for key, value in integrator.items()
            if key not in ("kills", "dead_letter_keys", "queue_depth")}
        resilience["integrators"][name] = _pick(
            integrator, "started", "dead_letters", "dead_letter_keys",
            "unavailable", "kills")
    for name, exchange in stats["exchanges"].items():
        backend = exchange["backend"]
        entry = _pick(exchange, "stores", "audited_accesses", "denials",
                      "retry")
        entry.update(backend_ops=backend["op_counts"],
                     backend_available=backend["available"],
                     backend_aborted_ops=backend["aborted_ops"],
                     backend_crashes=backend["crash_count"])
        if "copy" in backend:
            entry["state_plane"] = _pick(
                backend, "zero_copy", "delta_watch", "copy",
                "watch_wire_bytes", "watch_deltas_sent", "watch_fulls_sent")
        runtime["exchanges"][name] = entry
        resilience["stores"][backend["location"]] = {
            "available": backend["available"],
            "aborted_ops": backend["aborted_ops"],
            "crashes": backend["crash_count"]}
        if "retry" in exchange:
            resilience["retries"][name] = exchange["retry"]
    return {"runtime_snapshot": runtime, "resilience_snapshot": resilience}


def trace_export(tmp_dir):
    """``knactor trace export`` on 3 orders: a multiset digest of the file."""
    out = pathlib.Path(tmp_dir) / "trace.json"
    assert main(["trace", "export", str(out), "--orders", "3"]) == 0
    entries = json.loads(out.read_text())["traceEvents"]
    lines = sorted(json.dumps(entry, sort_keys=True) for entry in entries)
    shape = Counter(f"{e['ph']}/{e['cat']}/{e['name']}" for e in entries)
    return {
        "count": len(entries),
        "shape": dict(sorted(shape.items())),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def table2_rows():
    return _plain({
        setup: run_knactor_setup(setup, orders=3).row()
        for setup in ("K-apiserver", "K-redis-udf")
    })


def untraced_retail():
    app = RetailKnactorApp.build(profile=K_REDIS, seed=7)
    _run_orders(app, 3)
    return app


def _leaves(value, path=()):
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _leaves(inner, path + (key,))
    elif isinstance(value, list):
        for index, inner in enumerate(value):
            yield from _leaves(inner, path + (index,))
    else:
        yield path, value


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        exported = trace_export(tmp)
    parent = json.loads(GOLDEN.read_text())
    GOLDEN.write_text(json.dumps({
        **snapshots(sharded_retail()),
        # pinned on the parent of the path map; never rewritten
        "runtime_snapshot": parent["runtime_snapshot"],
        "resilience_snapshot": parent["resilience_snapshot"],
        "trace_export": exported,
        "table2": table2_rows(),
        "untraced_events": len(untraced_retail().tracer.spans),
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


# -- (i) a store counter is declared once --------------------------------------

#: Declared counters with no registry series.  None has one at the parent
#: either, and the series set is pinned (golden below; the perf harness
#: counts ``Registry.counter`` calls), so they stay ``stats()``-only.  A
#: counter added to ``StoreServer.COUNTERS`` must get a row in the plane's
#: table or be listed here: it cannot go missing silently.
NO_SERIES = {"watch_paused_coalesced", "aborted_ops", "crash_count"}



class TestCountersDeclaredOnce:
    @pytest.fixture(scope="class")
    def resharded(self):
        """Retail on 2 -> 4 -> 2 shards, orders flowing throughout (every
        reconciler and cast holds a merged watch on the backend)."""
        app = RetailKnactorApp.build(
            seed=7, obs=True, flow=True, delta_watch=True,
            topology=Topology(shards=2, max_shards=4))
        store, workload = app.de.backend, OrderWorkload(seed=7)
        marks = []

        def driver(env):
            for target in (4, 2):
                proc = store.reshard(target)
                for _ in range(4):
                    yield app.place_order(*workload.next_order())
                    yield env.timeout(0.05)
                yield proc
                marks.append({name: getattr(store, name)
                              for name in StoreServer.COUNTERS})

        app.env.run(until=app.env.process(driver(app.env)))
        app.run_until_quiet(max_seconds=60.0)
        return app, marks

    def test_frontend_is_the_sum_over_live_and_retired(self, resharded):
        app, _marks = resharded
        store = app.de.backend
        assert len(store.shards) == 2 and len(store.retired_shards) == 2
        for name in StoreServer.COUNTERS:
            every = store.shards + store.retired_shards
            assert getattr(store, name) == sum(
                getattr(shard, name) for shard in every), name
        # The retired half is not decoration: it served watch traffic.
        assert sum(s.watch_events_sent for s in store.retired_shards) > 0
        assert store.fence_rejections > 0 and store.watch_deltas_sent > 0

    def test_never_decreases_across_the_shrink(self, resharded):
        app, (grown, shrunk) = resharded
        for name in StoreServer.COUNTERS:
            assert grown[name] <= shrunk[name] <= getattr(
                app.de.backend, name), name

    def test_reported_by_stats_plane_and_telemetry(self, resharded):
        """Each declared counter is in the backend's ``stats()``, which
        ``runtime.stats()`` carries whole, and in the plane's series."""
        from repro.obs.plane import _STORE
        app, _marks = resharded
        store = app.de.backend
        stats = store.stats()
        metrics = app.runtime.obs.snapshot()["metrics"]["metrics"]
        exchange = app.runtime.stats()["exchanges"]["object"]
        series_of = {name.split(".")[-1]: row[1] for name, row in _STORE.items()}
        assert set(StoreServer.COUNTERS) - set(series_of) == NO_SERIES
        for name in StoreServer.COUNTERS:
            value = getattr(store, name)
            assert stats[name] == value, name
            assert exchange["backend"][name] == value, name
            if name not in NO_SERIES:
                series = metrics[series_of[name]]["series"]
                assert series["exchange=object"] == value, name

    def test_merged_watch_sums_its_branches(self):
        from repro.simnet import Environment, Network
        from repro.store import MemKV, ShardedStore
        from repro.store.watch import Watch

        env = Environment()
        net = Network(env)
        store = ShardedStore(
            [MemKV(env, net, location=f"s{i}") for i in range(3)])
        client = ShardedStoreClient(store, "app")
        merged = client.watch(lambda event: None, credits=1)
        for i in range(12):
            env.run(until=client.create(f"k/{i}", {"v": i}))
        env.run(until=env.now + 1.0)
        assert merged.delivered == 12
        for name in Watch.COUNTERS:
            assert getattr(merged, name) == sum(
                getattr(branch, name) for branch in merged.watches), name
        with pytest.raises(AttributeError):
            merged.no_such_counter


# -- (ii) the golden: same series, same snapshots ------------------------------


class TestGoldenSnapshots:
    @pytest.fixture(scope="class")
    def app(self):
        return sharded_retail()

    @pytest.mark.parametrize("section", [
        "plane_metrics", "runtime_snapshot", "resilience_snapshot",
        "runtime_stats"])
    def test_equal_leaf_for_leaf(self, golden, app, section):
        want = dict(_leaves(golden[section]))
        have = dict(_leaves(snapshots(app)[section]))
        assert have.keys() == want.keys()
        assert [path for path in want if have[path] != want[path]] == []

    def test_obs_snapshot_is_not_in_runtime_stats(self, app):
        assert "obs" not in app.runtime.stats()
        traces = app.runtime.obs.snapshot()["traces"]
        assert traces == {"count": 3, "spans": 87}

    def test_plane_is_built_around_the_runtime_tracer(self, app):
        plane = app.runtime.obs
        assert plane.causal is app.runtime.tracer is app.tracer
        assert app.tracer.plane is plane
        assert app.tracer.start_span("probe", "test").sink is app.tracer


# -- (iii) one exporter, the same file; Table 2 to the last digit -------------


class TestOneExporter:
    def test_trace_export_is_the_parents_multiset(self, golden, tmp_path,
                                                  capsys):
        assert trace_export(tmp_path) == golden["trace_export"]
        count = golden["trace_export"]["count"]
        assert f"wrote {count} trace events" in capsys.readouterr().out

    def test_table2_rows_to_the_last_digit(self, golden):
        assert table2_rows() == golden["table2"]


# -- (iv) obs off: nothing is recorded -----------------------------------------


class TestObsOff:
    def test_nothing_is_recorded(self, golden):
        app = untraced_retail()
        assert app.runtime.obs is None and app.tracer.plane is None
        assert app.tracer.spans == {}
        assert app.tracer.trace_ids() == []
        assert golden["untraced_events"] == 0

    def test_store_server_without_a_tracer_still_delivers(self):
        from repro.simnet import Environment, Network
        from repro.store import MemKV
        from repro.store.memkv import MemKVClient

        env = Environment()
        server = MemKV(env, Network(env), location="kv", tracer=None)
        client = MemKVClient(server, "app")
        seen = []
        client.watch(seen.append)
        env.run(until=client.create("k", {"v": 1}))
        env.run(until=env.now + 1.0)
        assert [event.key for event in seen] == ["k"]
