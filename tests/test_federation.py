"""Cross-store query federation: composed views, planner, maintenance.

Covers the view spec grammar, the two execution strategies behind one
handle (scatter-gather federated vs incrementally maintained
materialized), the planner's freshness rules, viewer-role RBAC with
mask composition at the view boundary, and -- the load-bearing
property -- *answer identity*: at ``freshness=0`` the federated and
materialized strategies return byte-identical records even under
concurrent writes with injected watch-message drops (the PR-3
gap-detect + resync machinery healing the maintenance streams).
"""

import copy
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    AccessDeniedError,
    ConfigurationError,
    QueryError,
)
from repro.exchange import LogDE, ObjectDE
from repro.federation import ComposedView, ViewSource, compose
from repro.federation.engine import RegisteredView
from repro.federation.materialize import MaterializedView, _push_lag
from repro.obs.registry import Registry
from repro.query import Query, QueryResult
from repro.query.core import compile_ops
from repro.simnet import Environment
from repro.store import LogLake, MemKV
from repro.store.base import WatchEvent

ORDER_SCHEMA = """\
schema: Retail/v1/Checkout/Order
status: string
total: number
cardToken: string # +kr: secret
"""

SHIPMENT_SCHEMA = """\
schema: Retail/v1/Shipping/Shipment
carrier: string
eta: number
"""

EVENTS_SCHEMA = """\
schema: Retail/v1/Audit/Events
kind: string # +kr: ingest
order: string # +kr: ingest
"""


def _plain(value):
    if hasattr(value, "items"):
        return {k: _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def canonical(records):
    return json.dumps(_plain(list(records)), sort_keys=True)


@pytest.fixture
def object_de(env, zero_net):
    de = ObjectDE(env, MemKV(env, zero_net, watch_overhead=0.0,
                             delta_watch=True))
    de.host_store("orders", ORDER_SCHEMA, owner="checkout")
    de.host_store("shipments", SHIPMENT_SCHEMA, owner="shipping")
    return de


@pytest.fixture
def log_de(env, zero_net):
    de = LogDE(env, LogLake(env, zero_net, watch_overhead=0.0))
    de.host_store("events", EVENTS_SCHEMA, owner="audit")
    return de


VIEW = ComposedView(
    name="order-view",
    sources=(
        ViewSource(alias="order", store="orders"),
        ViewSource(alias="shipment", store="shipments"),
        ViewSource(alias="events", store="events", exchange="log",
                   match="order", into="history"),
    ),
    freshness=0.25,
)


@pytest.fixture
def registered(env, object_de, log_de):
    registry = Registry(env)
    view = object_de.register_view(
        VIEW, exchanges={"log": log_de}, registry=registry,
    )
    object_de.grant("page", "order-view", role="viewer")
    env.run(until=env.now + 0.05)  # let maintenance seed
    return view


@pytest.fixture
def seeded(env, object_de, log_de, registered, call):
    orders = object_de.handle("orders", principal="checkout")
    shipments = object_de.handle("shipments", principal="shipping")
    events = log_de.handle("events", principal="audit")
    for n in (1, 2, 3):
        call(orders.create(f"o{n}", {
            "status": "placed", "total": 10.0 * n, "cardToken": f"tok-{n}",
        }))
    call(shipments.create("o1", {"carrier": "dhl", "eta": 2}))
    call(events.load([
        {"kind": "placed", "order": "o1"},
        {"kind": "charged", "order": "o1"},
        {"kind": "placed", "order": "o2"},
    ]))
    env.run(until=env.now + 0.2)  # drain watch fan-out
    return {"orders": orders, "shipments": shipments, "events": events}


class TestViewSpec:
    def test_duplicate_aliases_rejected(self):
        with pytest.raises(ConfigurationError, match="alias"):
            ComposedView("v", sources=(
                ViewSource(alias="a", store="s1"),
                ViewSource(alias="a", store="s2"),
            ))

    def test_needs_at_least_one_source(self):
        with pytest.raises(ConfigurationError):
            ComposedView("v", sources=())

    def test_negative_freshness_rejected(self):
        with pytest.raises(ConfigurationError):
            ComposedView("v", sources=(ViewSource(alias="a", store="s"),),
                         freshness=-1.0)

    def test_bad_ops_rejected_eagerly(self):
        with pytest.raises(QueryError):
            ComposedView("v", sources=(ViewSource(alias="a", store="s"),),
                         ops=({"op": "explode"},))

    def test_root_and_field_resolution(self):
        assert VIEW.root.alias == "order"
        assert VIEW.source("events").field == "history"
        assert VIEW.source("shipment").field == "shipment"

    def test_compose_joins_objects_single_and_logs_as_lists(self):
        view = ComposedView("v", sources=(
            ViewSource(alias="a", store="sa"),
            ViewSource(alias="b", store="sb"),
            ViewSource(alias="l", store="sl", match="a_key"),
        ))
        rows = compose(
            view,
            {
                "a": [{"_key": "k1"}, {"_key": "k2"}],
                "b": [{"_key": "k1", "x": 1}],
                "l": [{"a_key": "k1", "n": 1}, {"a_key": "k1", "n": 2}],
            },
            {"a": "object", "b": "object", "l": "log"},
        )
        assert rows[0]["b"] == {"_key": "k1", "x": 1}
        assert [r["n"] for r in rows[0]["l"]] == [1, 2]
        assert rows[1]["b"] is None and rows[1]["l"] == []

    def test_required_source_inner_joins(self):
        view = ComposedView("v", sources=(
            ViewSource(alias="a", store="sa"),
            ViewSource(alias="b", store="sb", required=True),
        ))
        rows = compose(
            view,
            {"a": [{"_key": "k1"}, {"_key": "k2"}],
             "b": [{"_key": "k2", "x": 1}]},
            {"a": "object", "b": "object"},
        )
        assert [r["_key"] for r in rows] == ["k2"]


class TestPlanner:
    def test_fresh_read_goes_federated(self, env, registered, seeded):
        handle = registered.home.view("order-view", principal="page")
        result = env.run(until=handle.query(freshness=0))
        assert result.strategy == "federated"
        assert result.staleness == 0.0

    def test_bounded_read_served_materialized(self, env, registered, seeded):
        handle = registered.home.view("order-view", principal="page")
        result = env.run(until=handle.query())
        assert result.strategy == "materialized"
        assert result.staleness <= VIEW.freshness

    def test_consistency_levels(self, registered, seeded):
        handle = registered.home.view("order-view", principal="page")
        assert handle.plan(consistency="strong").strategy == "federated"
        assert handle.plan(consistency="any").strategy == "materialized"
        assert handle.plan(freshness=0).strategy == "federated"

    def test_unmaterialized_view_always_federated(self, env, object_de):
        view = ComposedView("lean", sources=(
            ViewSource(alias="order", store="orders"),
        ))
        object_de.register_view(view, materialize=False)
        object_de.grant("page", "lean", role="viewer")
        handle = object_de.view("lean", principal="page")
        plan = handle.plan(consistency="any")
        assert plan.strategy == "federated"
        assert "no materialized copy" in plan.reason

    def test_forced_stale_serve_counts_violation(self, env, registered,
                                                 seeded):
        handle = registered.home.view("order-view", principal="page")
        registry = registered.registry
        counter = registry.counter(
            "view_freshness_violations_total", view="order-view",
        )
        before = counter.value
        # The staleness floor (2 ms) exceeds this bound, so the planner
        # would go federated; forcing materialized is a counted override.
        result = env.run(until=handle.query(
            freshness=0.0001, strategy="materialized",
        ))
        assert result.strategy == "materialized"
        assert counter.value == before + 1

    def test_auto_planner_never_violates(self, env, registered, seeded):
        handle = registered.home.view("order-view", principal="page")
        for freshness in (0.0001, 0.01, 1.0):
            result = env.run(until=handle.query(freshness=freshness))
            if result.strategy == "materialized":
                assert result.staleness <= freshness
        counter = registered.registry.counter(
            "view_freshness_violations_total", view="order-view",
        )
        assert counter.value == 0


class TestAnswerIdentity:
    def test_strategies_agree_when_quiet(self, env, registered, seeded):
        handle = registered.home.view("order-view", principal="page")
        federated = env.run(until=handle.query(freshness=0))
        materialized = env.run(until=handle.query(consistency="any"))
        assert materialized.strategy == "materialized"
        assert canonical(federated.records) == canonical(materialized.records)
        row = federated.records[0]
        assert row["_key"] == "o1"
        assert row["shipment"]["carrier"] == "dhl"
        assert [e["kind"] for e in row["history"]] == ["placed", "charged"]

    def test_keyed_read_restricts_and_orders(self, env, registered, seeded):
        handle = registered.home.view("order-view", principal="page")
        result = env.run(until=handle.query(freshness=0, keys=["o2", "o1"]))
        assert [r["_key"] for r in result.records] == ["o2", "o1"]
        keyed_mat = env.run(until=handle.query(
            consistency="any", keys=["o2", "o1"],
        ))
        assert canonical(result.records) == canonical(keyed_mat.records)

    def test_view_ops_apply_after_compose(self, env, object_de, log_de,
                                          seeded):
        view = ComposedView("totals", sources=(
            ViewSource(alias="order", store="orders"),
        ), ops=({"op": "agg", "aggs": {"sum": "sum(total)"}},))
        object_de.register_view(view, materialize=False)
        object_de.grant("page", "totals", role="viewer")
        result = env.run(
            until=object_de.view("totals", principal="page").query()
        )
        assert result.records == [{"sum": pytest.approx(60.0)}]


SEEDS = [3, 11, 27]


@pytest.mark.parametrize("seed", SEEDS)
def test_identity_under_concurrent_writes_and_drops(env, object_de, log_de,
                                                    seed):
    """The seeded property: freshness=0 federated answers equal forced
    materialized answers after quiesce, across random interleavings of
    creates / patches / deletes / appends with watch messages dropped
    mid-run (gap-detect + resync heal the maintenance streams)."""
    registry = Registry(env)
    registered = object_de.register_view(
        VIEW, exchanges={"log": log_de}, registry=registry,
    )
    object_de.grant("page", "order-view", role="viewer")
    orders = object_de.handle("orders", principal="checkout")
    shipments = object_de.handle("shipments", principal="shipping")
    events = log_de.handle("events", principal="audit")
    rng = random.Random(seed)

    def writer(env):
        created = 0
        live, shipped = [], set()
        for step in range(60):
            yield env.timeout(rng.uniform(0.0005, 0.004))
            roll = rng.random()
            if roll < 0.45 or not live:
                created += 1
                key = f"o{created:03d}"
                live.append(key)
                yield orders.create(key, {
                    "status": "placed",
                    "total": float(rng.randint(5, 500)),
                    "cardToken": f"tok-{step}",
                })
            elif roll < 0.70:
                yield orders.patch(rng.choice(live), {
                    "status": rng.choice(["charged", "shipped", "done"]),
                })
            elif roll < 0.80 and len(live) > 1:
                victim = live.pop(rng.randrange(len(live)))
                shipped.discard(victim)
                yield orders.delete(victim)
            elif roll < 0.90:
                key = rng.choice(live)
                payload = {"carrier": rng.choice(["dhl", "ups"]),
                           "eta": rng.randint(1, 9)}
                if key in shipped:
                    yield shipments.update(key, payload)
                else:
                    shipped.add(key)
                    yield shipments.create(key, payload)
            else:
                yield events.load([{
                    "kind": rng.choice(["placed", "charged", "audit"]),
                    "order": rng.choice(live),
                }])
            if step in (10, 25, 40):
                # Lose the very next maintenance delivery on each
                # backend (a patch / append we issue right here): the
                # following same-key delta or log batch trips
                # gap-detect and resyncs.  The healing contract is
                # per-chain -- a later message must flow -- which the
                # sealing pass below guarantees for every key.
                object_de.backend.drop_next_watch_message()
                yield orders.patch(live[0], {"status": f"lost-{step}"})
                log_de.backend.drop_next_watch_message()
                yield events.load([{"kind": "lost", "order": live[0]}])
        for key in live:  # seal every delta chain past any drop
            yield orders.patch(key, {"status": "sealed"})
        yield events.load([{"kind": "seal", "order": "none"}])

    env.run(until=env.process(writer(env)))
    env.run(until=env.now + 3.0)  # quiesce: drain resyncs + lag window
    handle = object_de.view("order-view", principal="page")
    federated = env.run(until=handle.query(freshness=0))
    materialized = env.run(until=handle.query(
        consistency="any", strategy="materialized",
    ))
    assert materialized.strategy == "materialized"
    assert canonical(federated.records) == canonical(materialized.records)
    status = registered.materialized.status()
    assert not any(s["resyncing"] for s in status.values())


class TestViewerRoleAndMasks:
    def test_viewer_role_required_for_view_grants(self, object_de,
                                                  registered):
        with pytest.raises(ConfigurationError, match="viewer"):
            object_de.grant("p2", "order-view", role="reader")

    def test_viewer_role_rejected_on_hosted_stores(self, object_de):
        with pytest.raises(ConfigurationError, match="composed views"):
            object_de.grant("p2", "orders", role="viewer")

    def test_ungranted_principal_denied(self, env, registered, seeded):
        handle = registered.home.view("order-view", principal="stranger")
        with pytest.raises(AccessDeniedError):
            handle.query(freshness=0)

    def test_view_handles_raise_toward_view_api(self, object_de, registered):
        with pytest.raises(ConfigurationError, match="view"):
            object_de.handle("order-view", principal="page")

    @pytest.mark.parametrize("kwargs", [
        {"freshness": 0}, {"consistency": "any"},
    ])
    def test_secret_fields_masked_in_both_strategies(self, env, registered,
                                                     seeded, kwargs):
        """cardToken is ``+kr: secret``: the view's service principal is
        a plain reader on each source, so the per-source mask composes
        into every strategy's answer."""
        handle = registered.home.view("order-view", principal="page")
        result = env.run(until=handle.query(**kwargs))
        assert result.records
        assert all("cardToken" not in r for r in result.records)


class TestUnifiedQuery:
    def test_object_store_query_with_keys_and_ops(self, env, object_de,
                                                  seeded):
        result = env.run(until=object_de.query(
            "orders", keys=["o3", "o1"], principal="checkout",
            ops=({"op": "cut", "fields": ["_key", "total"]},),
        ))
        assert isinstance(result, QueryResult)
        assert result.strategy == "direct"
        assert list(result) == [{"_key": "o3", "total": 30.0},
                                {"_key": "o1", "total": 10.0}]

    def test_log_store_query_pushes_down(self, env, log_de, seeded):
        result = env.run(until=log_de.query(
            "events", principal="audit",
            ops=({"op": "agg", "aggs": {"n": "count()"}, "by": ["order"]},
                 {"op": "sort", "by": "order"}),
        ))
        assert [(r["order"], r["n"]) for r in result] == [("o1", 2),
                                                          ("o2", 1)]

    def test_log_store_rejects_keys(self, log_de, seeded):
        with pytest.raises(QueryError, match="keys"):
            log_de.query("events", keys=["o1"], principal="audit")

    def test_store_target_rejects_strategy(self, object_de, seeded):
        with pytest.raises(QueryError, match="strategy"):
            object_de.query("orders", principal="checkout",
                            strategy="materialized")

    def test_principal_required(self, object_de):
        with pytest.raises(TypeError, match="principal"):
            object_de.query("orders")

    def test_view_target_routes_through_planner(self, env, object_de,
                                                registered, seeded):
        result = env.run(until=object_de.query(
            "order-view", principal="page", freshness=0,
        ))
        assert result.strategy == "federated"

    def test_query_instance_target(self, env, object_de, seeded):
        spec = Query(target="orders", principal="checkout", keys=("o2",))
        result = env.run(until=object_de.query(spec))
        assert [r["_key"] for r in result] == ["o2"]

    def test_spec_validation_is_eager(self):
        with pytest.raises(QueryError):
            Query(target="t", consistency="eventual")
        with pytest.raises(QueryError):
            Query(target="t", freshness=-0.5)
        with pytest.raises(QueryError):
            Query(target="t", ops=({"op": "explode"},))

    def test_effective_consistency(self):
        assert Query(target="t").effective_consistency() == "strong"
        assert Query(target="t", freshness=0.5).effective_consistency() \
            == "bounded"
        assert Query(target="t", freshness=0.5, consistency="any") \
            .effective_consistency() == "any"


class TestRealtimeParity:
    def test_de_query_and_view_identity_on_realtime_backend(self):
        from repro.realtime import RealtimeEnvironment
        from repro.simnet import FixedLatency, Network

        env = RealtimeEnvironment(factor=0.0)
        net = Network(env, default_latency=FixedLatency(0.0))
        de = ObjectDE(env, MemKV(env, net, watch_overhead=0.0))
        de.host_store("orders", ORDER_SCHEMA, owner="checkout")
        de.host_store("shipments", SHIPMENT_SCHEMA, owner="shipping")
        view = ComposedView("rt-view", sources=(
            ViewSource(alias="order", store="orders"),
            ViewSource(alias="shipment", store="shipments"),
        ))
        de.register_view(view)
        de.grant("page", "rt-view", role="viewer")
        orders = de.handle("orders", principal="checkout")
        shipments = de.handle("shipments", principal="shipping")
        env.run(until=orders.create("o1", {"status": "placed", "total": 9.0,
                                           "cardToken": "tok"}))
        env.run(until=shipments.create("o1", {"carrier": "dhl", "eta": 1}))
        env.run(until=env.now + 0.05)
        federated = env.run(until=de.query(
            "rt-view", principal="page", freshness=0,
        ))
        materialized = env.run(until=de.query(
            "rt-view", principal="page", consistency="any",
        ))
        direct = env.run(until=de.query("orders", principal="checkout",
                                        keys=["o1"]))
        env.close()
        assert federated.strategy == "federated"
        assert materialized.strategy == "materialized"
        assert canonical(federated.records) == canonical(materialized.records)
        assert direct.records[0]["cardToken"] == "tok"  # owner sees secrets


# ---------------------------------------------------------------------------
# Keyed materialized reads: a page costs O(page), not O(view)
# ---------------------------------------------------------------------------

PAGE_KEYS = ["k0", "k1", "k2", "k3", "k4"]
ORDER = ViewSource(alias="order", store="orders")
SHAPES = {
    "required": ComposedView("shape-required", sources=(
        ORDER,
        ViewSource(alias="shipment", store="shipments", required=True),
        ViewSource(alias="charge", store="charges"),
    )),
    "joined-ops": ComposedView("shape-ops", sources=(
        ORDER,
        ViewSource(alias="shipment", store="shipments",
                   ops=({"op": "filter", "expr": "eta > 2"},)),
        ViewSource(alias="charge", store="charges"),
    )),
    "log": ComposedView("shape-log", sources=(
        ORDER,
        ViewSource(alias="events", store="events", match="order",
                   into="history"),
        ViewSource(alias="charge", store="charges", required=True),
    )),
    "on-field": ComposedView("shape-on", sources=(
        ORDER,
        ViewSource(alias="charge", store="charges", on="charge_ref",
                   required=True),
        ViewSource(alias="shipment", store="shipments", on="ship_ref"),
    )),
    "match-field": ComposedView("shape-match", sources=(
        ORDER,
        ViewSource(alias="shipment", store="shipments", match="order_ref"),
        ViewSource(alias="charge", store="charges"),
    )),
    "root-ops": ComposedView("shape-root-ops", sources=(
        ViewSource(alias="order", store="orders",
                   ops=({"op": "filter", "expr": "total > 2"},)),
        ViewSource(alias="shipment", store="shipments", on="ship_ref"),
        ViewSource(alias="charge", store="charges"),
    )),
}


def kinds_of(view):
    return {s.alias: "log" if s.store == "events" else "object"
            for s in view.sources}


def maintained(view):
    """A registered view whose materialized copy is fed by hand (see
    ``feed``) rather than by watch streams: seeded, live, no stores."""
    env = Environment()
    kinds = kinds_of(view)
    unwired = SimpleNamespace(watch=lambda *args, **kwargs: None)
    materialized = MaterializedView(
        env, view, {s.alias: unwired for s in view.sources}, kinds)
    for state in materialized._sources.values():
        state.mirror.seeded = True
    return RegisteredView(env, view, None, {}, kinds,
                          materialized=materialized)


def feed(registered, store, event_type, key, obj, revision):
    """One store change, delivered to every source reading ``store``
    (for the Log store, ``obj`` is the appended records)."""
    materialized = registered.materialized
    for state in materialized._sources.values():
        if state.source.store != store:
            continue
        if state.kind == "log":
            cursor = state.mirror.cursor
            records = [{**r, "_seq": cursor + n} for n, r in enumerate(obj)]
            state.mirror._deliver(WatchEvent(
                event_type, key,
                {"first_seq": cursor, "records": records}, revision,
                committed_at=materialized.env.now))
        else:
            state.mirror._deliver(WatchEvent(
                event_type, key, obj, revision,
                committed_at=materialized.env.now))


def full_tables(materialized):
    """The reference join input: every maintained row of every source
    copied, sorted by ``_key`` and pipelined, whatever the page."""
    out = {}
    for alias, state in materialized._sources.items():
        if state.kind == "object":
            rows = sorted(({**view["data"], "_key": key}
                           for key, view in state.mirror.views.items()),
                          key=lambda r: r["_key"])
        else:
            rows = list(state.mirror.views.values())
        out[alias] = compile_ops(state.source.ops)(rows)
    return out


def full_table_read(registered, query):
    """The reference materialized answer and the sim time it ends at, or
    the type of the error its join raised."""
    tables = full_tables(registered.materialized)
    cost = registered.local_join_cost * sum(
        len(rows) for rows in tables.values())
    ends_at = registered.env.now + cost if cost > 0 else registered.env.now
    try:
        rows = compose(registered.view, tables, registered.kinds,
                       keys=query.keys)
    except TypeError:
        return TypeError
    result = QueryResult(
        records=query.pipeline()(rows),
        strategy="materialized",
        staleness=registered.staleness(),
        sources={alias: {"kind": registered.kinds[alias], "rows": len(rows)}
                 for alias, rows in tables.items()},
    )
    return result, ends_at


def materialized_read(registered, query):
    """This tree's answer and the sim time it ends at, or the type of
    the error its join raised."""
    env = registered.env
    try:
        result = env.run(until=env.process(
            registered.execute(query, strategy="materialized")))
    except TypeError:
        return TypeError
    return result, env.now


REF = st.one_of(st.sampled_from(PAGE_KEYS), st.none(),
                st.just(["k1"]))  # unhashable: the join's probe raises
ORDER_DATA = st.fixed_dictionaries(
    {"status": st.sampled_from(["placed", "paid"]),
     "total": st.integers(0, 5)},
    optional={"ship_ref": REF, "charge_ref": REF},
)
SHIPMENT_DATA = st.fixed_dictionaries(
    {"eta": st.integers(0, 5)},
    optional={"order_ref": st.one_of(st.sampled_from(PAGE_KEYS), st.none())},
)
CHARGE_DATA = st.fixed_dictionaries({"amount": st.integers(0, 5)})
EVENT = st.fixed_dictionaries({
    "kind": st.sampled_from(["placed", "charged"]),
    "order": st.one_of(st.sampled_from(PAGE_KEYS), st.none()),
})
CHANGE = st.one_of(*(
    st.tuples(st.just(store), st.sampled_from(["put", "delete"]),
              st.sampled_from(PAGE_KEYS), data)
    for store, data in (("orders", ORDER_DATA),
                        ("shipments", SHIPMENT_DATA),
                        ("charges", CHARGE_DATA))
), st.tuples(st.just("events"), st.just("append"), st.just("batch"),
             st.lists(EVENT, min_size=1, max_size=3)))
PAGE = st.one_of(st.none(),
                 st.lists(st.sampled_from(PAGE_KEYS + ["missing"]),
                          max_size=8))


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)),
       history=st.lists(CHANGE, max_size=30),
       pages=st.lists(PAGE, min_size=1, max_size=4))
# A join on another field must not be read as a lookup by _key.
@example(shape="match-field", pages=[["k2"]], history=[
    ("orders", "put", "k2", {"status": "placed", "total": 1}),
    ("shipments", "put", "k1", {"eta": 1, "order_ref": "k2"}),
])
# An unhashable ``on`` value on a root the inner join already dropped
# is never probed by the join, so the lookup must not raise either.
@example(shape="on-field", pages=[["k1"]], history=[
    ("orders", "put", "k1",
     {"status": "placed", "total": 1, "charge_ref": "k4",
      "ship_ref": ["k1"]}),
])
def test_keyed_materialized_read_equals_the_full_table_join(shape, history,
                                                            pages):
    """Whatever the shape, history and page, a materialized read answers
    what the copy-sort-pipeline-everything input joins to --
    records, strategy, staleness and reported rows -- and charges the
    same sim time (or raises the same join error)."""
    view = SHAPES[shape]
    registered = maintained(view)
    live = {"orders": {}, "shipments": {}, "charges": {}}
    for revision, (store, action, key, data) in enumerate(history, 1):
        if store == "events":
            feed(registered, store, "ADDED", key, data, revision)
        elif action == "put":
            event_type = "MODIFIED" if key in live[store] else "ADDED"
            live[store][key] = {**live[store].get(key, {}), **data}
            feed(registered, store, event_type, key, live[store][key],
                 revision)
        elif key in live[store]:
            feed(registered, store, "DELETED", key, live[store].pop(key),
                 revision)
    for keys in pages:
        query = Query(target=view.name, keys=keys)
        expected = full_table_read(registered, query)
        assert materialized_read(registered, query) == expected


class Unscannable(dict):
    """A maintained table that fails the test when anything iterates it."""

    def _scan(self, *args, **kwargs):
        raise AssertionError("a keyed page iterated a maintained table")

    __iter__ = keys = values = items = _scan


def test_keyed_read_of_a_10k_row_view_never_iterates_a_point_source():
    """O(page) stated structurally: the root and both joined sources
    (``on`` = ``_key`` and ``on`` = a root field, both ``match`` =
    ``_key``) answer an 8-key page from lookups alone, while the report
    and the sim charge still count all 10,000 maintained rows each."""
    view = ComposedView("big", sources=(
        ORDER,
        ViewSource(alias="shipment", store="shipments"),
        ViewSource(alias="charge", store="charges", on="charge_ref",
                   required=True),
    ))
    registered = maintained(view)
    rows = 10_000
    tables = {"order": Unscannable(), "shipment": Unscannable(),
              "charge": Unscannable()}
    for n in range(rows):
        key = f"o{n:05d}"
        tables["order"][key] = {"total": n, "_key": key,
                                "charge_ref": f"c{n:05d}" if n % 2 else None}
        tables["shipment"][key] = {"eta": n % 7, "_key": key}
        tables["charge"][f"c{n:05d}"] = {"amount": n, "_key": f"c{n:05d}"}
    for alias, state in registered.materialized._sources.items():
        state.mirror.views = Unscannable(
            (key, {"data": row}) for key, row in dict.items(tables[alias]))
    page = ["o00007", "o00002", "o09999", "missing", "o00007", "o00501",
            "o00042", "o01234"]
    result, ends_at = materialized_read(registered,
                                        Query(target="big", keys=page))
    assert [r["_key"] for r in result.records] == [
        "o00007", "o09999", "o00007", "o00501"]
    for record in result.records:
        assert record["shipment"] == tables["shipment"][record["_key"]]
        assert record["charge"] == tables["charge"][record["charge_ref"]]
    assert result.sources == {alias: {"kind": "object", "rows": rows}
                              for alias in tables}
    assert ends_at == 3 * rows * registered.local_join_cost


def test_mutating_a_page_leaves_the_maintained_tables_untouched():
    registered = maintained(SHAPES["required"])
    for n, key in enumerate(PAGE_KEYS, 1):
        feed(registered, "orders", "ADDED", key,
             {"status": "placed", "total": n}, n)
        feed(registered, "shipments", "ADDED", key, {"eta": n}, 10 + n)
        feed(registered, "charges", "ADDED", key, {"amount": n}, 20 + n)
    materialized = registered.materialized
    before = copy.deepcopy(
        {alias: s.mirror.views
         for alias, s in materialized._sources.items()})
    keys = ["k3", "k1", "k3"]
    result, _ends_at = materialized_read(
        registered, Query(target=registered.name, keys=keys))
    assert len(result.records) == 3
    for record in result.records:
        record["status"] = "mutated"
        record["shipment"]["eta"] = -1
        record["charge"].clear()
    tables, _fed = materialized.tables(keys)
    for rows in tables.values():
        for row in rows:
            row["_key"] = "mutated"
    assert {alias: s.mirror.views
            for alias, s in materialized._sources.items()} == before


LAG_STEPS = st.lists(st.one_of(
    st.tuples(st.just("apply"), st.integers(0, 2),
              st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                        st.floats(0, 2)),
              st.one_of(st.sampled_from([0.0, 0.002, 0.01]),
                        st.floats(0, 0.5))),
    st.tuples(st.just("catch-up"), st.integers(0, 2),
              st.floats(0, 2), st.none()),
    st.tuples(st.just("read"), st.none(),
              st.one_of(st.none(), st.floats(-3, 3)), st.none()),
), max_size=60)


def reference_staleness(samples, now):
    """The list-comprehension formula: the worst sample of each source's
    list that is inside the window, never below the floor."""
    worst = MaterializedView.floor
    for source in samples:
        horizon = now - MaterializedView.lag_window
        recent = [lag for at, lag in source if at >= horizon]
        worst = max(worst, max(recent, default=0.0))
    return worst


@settings(max_examples=200, deadline=None)
@given(steps=LAG_STEPS)
def test_staleness_equals_the_window_max_formula(steps):
    """Over any stream of apply-lag and catch-up samples, ``staleness``
    (default and explicit ``now``, past or future, asked repeatedly)
    equals the list-comprehension formula over every sample kept,
    and a read removes no sample."""
    clock = SimpleNamespace(now=0.0)
    view = SHAPES["required"]
    materialized = maintained(view).materialized
    materialized.env = clock
    states = list(materialized._sources.values())
    samples = [[] for _ in states]  # every sample, time-pruned on apply
    for action, source, value, lag in steps:
        if action == "read":
            now = None if value is None else clock.now + value
            want = reference_staleness(samples,
                                    clock.now if now is None else now)
            kept = [list(state.lag) for state in states]
            assert materialized.staleness(now) == want
            assert materialized.staleness(now) == want
            assert [list(state.lag) for state in states] == kept
            continue
        clock.now += value
        state = states[source]
        if action == "apply":
            committed_at = clock.now - lag
            materialized._applied(state, committed_at, None, 1)
            samples[source].append((clock.now, clock.now - committed_at))
            horizon = clock.now - MaterializedView.lag_window
            while samples[source] and samples[source][0][0] < horizon:
                samples[source].pop(0)
        else:  # a Log catch-up's synthetic sample
            _push_lag(state.lag, clock.now, MaterializedView.floor)
            samples[source].append((clock.now, MaterializedView.floor))
