"""The storefront page: its answer against the stores, and its claims.

The storefront's "order details" page composes three stores for
``FANOUT`` orders per page: Checkout's order (``order/<cid>``),
Shipping's shipment and Payment's charge (both keyed ``<cid>``).  Three
arms answer it:

- **rpc** -- the RPC-composition baseline (:func:`rpc_order_details`):
  3 sequential GETs per order, the way a service-oriented storefront
  composes reads;
- **federated** -- the composed view forced fresh (``freshness=0``):
  one ``get_many`` of the page's keys for the orders, then one of their
  cids per joined store, and one local join;
- **materialized** -- the view under its declared freshness bound: the
  planner serves the incrementally maintained copy while its staleness
  estimate is within the bound, and reads federated otherwise.

``test_every_page_matches_the_stores`` holds every page each arm serves
at quiescence to :func:`oracle_page`, a join of the three stores' final
state written from the retail key convention alone: it never reads the
view spec, so a spec that joins the wrong fields fails it even when
every arm agrees.

The sweep is one cached run of each arm, plus a repeat of the
materialized one, under the same seeded order/page load (seed 31,
fan-out 8, a 0.25 s freshness bound, 2 s of load), and a small
realtime-backend run; its claims are the tests under it.
"""

import functools
import random
import zlib

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.storefront import (
    STOREFRONT_VIEW_NAME,
    attach_storefront,
    grant_rpc_baseline,
    order_details,
    rpc_order_details,
)
from repro.apps.retail.workload import OrderWorkload
from repro.load import LoadGenerator, PoissonArrivals, TrafficClass
from repro.load.scenarios import LoadScenario

SEED = 31
#: Orders composed per page read.
FANOUT = 8
#: The page's declared staleness tolerance (seconds).
FRESHNESS = 0.25
WRITE_RPS = 10.0
PAGE_RPS = 20.0
DURATION = 2.0
ARMS = ("rpc", "federated", "materialized")
ITEMS = [("mesh-chair", 429.0), ("usb-hub", 39.0), ("monitor-arm", 129.0),
         ("webcam", 89.0)]
JOINED = (("shipment", "knactor-shipping"), ("charge", "knactor-payment"))


def plain(value):
    """A plain-python copy: frozen maps become dicts, tuples lists."""
    if hasattr(value, "items"):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def build_app(env=None, **options):
    app = RetailKnactorApp.build(env=env, seed=SEED, with_notify=False,
                                 **options)
    attach_storefront(app, freshness=FRESHNESS)
    grant_rpc_baseline(app)
    for store in ("knactor-checkout",) + tuple(s for _, s in JOINED):
        app.de.grant("oracle", store, role="reader")
    return app


def serve(app, keys, arm):
    """One page of ``keys`` through ``arm``, run to its answer."""
    if arm == "rpc":
        return app.env.run(until=rpc_order_details(app, keys))
    answer = app.env.run(until=order_details(
        app, keys, freshness=0 if arm == "federated" else None,
        consistency="any" if arm == "materialized" else None))
    assert answer.strategy == arm
    return answer.records


def oracle_page(app, keys):
    """The page of ``keys`` from the stores' final state, read as the
    ``oracle`` reader (the storefront's masks): each existing order
    ``order/<cid>`` with its shipment and charge, the objects keyed
    ``<cid>`` in Shipping's and Payment's stores."""
    stores = {}
    for store in ("knactor-checkout",) + tuple(s for _, s in JOINED):
        handle = app.de.handle(store, principal="oracle")
        views = app.env.run(until=handle.list())
        stores[store] = {v["key"]: {**v["data"], "_key": v["key"]}
                         for v in views}
    page = []
    for key in keys:
        order = stores["knactor-checkout"].get(key)
        if order is not None:
            cid = key.split("/", 1)[1]
            page.append(dict(order, **{
                field: stores[store].get(cid) for field, store in JOINED}))
    return plain(page)


def check_page(arm, keys, records, expected):
    records = plain(records)
    assert [r["_key"] for r in records] == [r["_key"] for r in expected], (
        f"{arm} page of {keys} serves other orders")
    for record, want in zip(records, expected):
        cid = want["_key"].split("/", 1)[1]
        for field, store in JOINED:
            assert want[field] is not None, f"order {cid} has no {field}"
            assert record[field] == want[field], (
                f"order {cid}'s {field} is {store}/{cid}; the {arm} page "
                f"has {record[field]!r}")
        assert record == want, f"{arm} page: order {cid} differs"


# -- the oracle --------------------------------------------------------------


@functools.cache
def settled_app(orders=12):
    """``orders`` orders placed and fulfilled; nothing in flight."""
    app = build_app()
    for key, data in OrderWorkload(seed=SEED).orders(orders):
        app.env.run(until=app.place_order(key, data))
    app.run_until_quiet()
    return app


@pytest.mark.parametrize("arm", ARMS)
def test_every_page_matches_the_stores(arm):
    app = settled_app()
    universe = list(app.orders_placed) + ["order/o99999"]  # one absent
    rng = random.Random(SEED)
    for _ in range(6):
        keys = rng.sample(universe, FANOUT)
        check_page(arm, keys, serve(app, keys, arm), oracle_page(app, keys))


def test_a_fresh_page_lists_no_store():
    # The orders' get_many, then their cids' in Shipping and Payment.
    app = settled_app()
    before = dict(app.de.backend.op_counts)
    serve(app, app.orders_placed[:FANOUT], "federated")
    after = app.de.backend.op_counts
    assert {op: after.get(op, 0) - before.get(op, 0)
            for op in ("get_many", "get", "list")} == {
        "get_many": 3, "get": 0, "list": 0}


# -- the sweep ---------------------------------------------------------------


class StorefrontScenario(LoadScenario):
    """Order writes and page reads, one arm at a time."""

    name = "storefront"

    def __init__(self, arm):
        super().__init__()
        self.arm = arm
        self.app = build_app(obs=True)
        self.orders = 0
        #: The page-key universe: the orders this seed's writes create.
        self.universe = int(WRITE_RPS * DURATION)
        self.page_reads = []  # (strategy, staleness) per served page
        self._wire(self.app.env, self.app.runtime)

    def submit(self, cls, key, rng):
        if cls.name == "orders":
            self.orders += 1
            key = f"order/load{self.orders:06d}"
            item, price = ITEMS[zlib.crc32(key.encode()) % len(ITEMS)]
            return self.app.place_order(key, {
                "items": {item: {"name": item, "priceUSD": price}},
                "address": f"{rng.randint(1, 99)} Main St", "cost": price,
                "totalCost": price, "currency": "USD", "status": "placed",
                "cardToken": f"tok-{rng.randint(10**6, 10**7 - 1)}",
            }), self.app.last_trace_id
        picks = sorted(rng.sample(range(1, self.universe + 1), FANOUT))
        keys = [f"order/load{n:06d}" for n in picks]
        if self.arm == "rpc":
            return rpc_order_details(self.app, keys)
        return self.env.process(self._page(keys))

    def _page(self, keys):
        freshness = 0.0 if self.arm == "federated" else None
        result = yield order_details(self.app, keys, freshness=freshness)
        self.page_reads.append((result.strategy, result.staleness))
        return result

    def quiesce(self):
        self.app.run_until_quiet(max_seconds=120.0)


def answers(app, keys):
    """The page of ``keys`` per arm, and the oracle's, at quiescence."""
    return {**{arm: plain(serve(app, keys, arm)) for arm in ARMS},
            "oracle": oracle_page(app, keys)}


def run_arm(arm):
    scenario = StorefrontScenario(arm)
    classes = [TrafficClass("orders", PoissonArrivals(WRITE_RPS)),
               TrafficClass("pages", PoissonArrivals(PAGE_RPS))]
    result = LoadGenerator(scenario, classes, DURATION, seed=SEED).run()
    keys = [f"order/load{n:06d}"
            for n in range(1, min(FANOUT, scenario.orders) + 1)]
    served = [s for strategy, s in scenario.page_reads
              if strategy == "materialized"]
    return {
        "fingerprint": result.summary()["fingerprint"],
        "p50": result.percentile(0.50, "pages"),
        "p99": result.percentile(0.99, "pages"),
        "strategies": {s for s, _ in scenario.page_reads},
        "materialized_pages": len(served),
        "max_served_staleness": max(served, default=0.0),
        "freshness_violations": scenario.registry.counter(
            "view_freshness_violations_total",
            view=STOREFRONT_VIEW_NAME).value,
        "answers": answers(scenario.app, keys),
    }


def run_realtime(orders=2):
    """A small wall-clock run: the answers hold off the sim too."""
    from repro.realtime import RealtimeEnvironment

    app = build_app(env=RealtimeEnvironment(factor=0.0), shape_latency=False)
    for key, data in OrderWorkload(seed=SEED).orders(orders):
        app.env.run(until=app.place_order(key, data))
    app.run_until_quiet(max_seconds=60.0)
    return answers(app, list(app.orders_placed))


@functools.cache
def sweep():
    return {"arms": {arm: run_arm(arm) for arm in ARMS},
            "repeat": run_arm("materialized"),
            "realtime": run_realtime()}


def test_materialized_page_beats_rpc_baseline():
    # The materialized copy serves the page below the RPC baseline's
    # p99, and below a fresh federated read's.
    arms = sweep()["arms"]
    assert arms["materialized"]["p99"] < arms["rpc"]["p99"]
    assert arms["materialized"]["p99"] < arms["federated"]["p99"]


def test_federated_page_beats_rpc_baseline():
    # A fresh federated page makes one get_many per source store in two
    # rounds (the orders, then their shipments and charges by cid; the
    # sources share the ApiServer's one worker slot), while the RPC
    # baseline makes 3 x FANOUT sequential GETs.
    arms = sweep()["arms"]
    assert arms["federated"]["p50"] < arms["rpc"]["p50"]
    assert arms["federated"]["p99"] < arms["rpc"]["p99"]


def test_planner_serves_materialized_within_bound():
    arms = sweep()["arms"]
    mat = arms["materialized"]
    assert mat["materialized_pages"] > 0
    assert mat["max_served_staleness"] <= FRESHNESS
    for arm, case in arms.items():
        assert case["freshness_violations"] == 0, arm


def test_federated_arm_never_serves_stale():
    assert sweep()["arms"]["federated"]["strategies"] == {"federated"}


@pytest.mark.parametrize("arm", ARMS)
def test_answer_identity(arm):
    # At quiescence every arm's app answers the same page identically
    # through all three paths, and as the stores' final state says.
    case = sweep()["arms"][arm]["answers"]
    assert len(case["oracle"]) == FANOUT
    for path in ARMS:
        assert case[path] == case["oracle"], f"{arm} run: {path} diverges"


def test_realtime_answer_identity():
    case = sweep()["realtime"]
    assert len(case["oracle"]) == 2
    for path in ARMS:
        assert case[path] == case["oracle"], f"realtime: {path} diverges"


def test_deterministic():
    # Same seed: the same offered load in every arm, and the same
    # materialized run twice.
    sweep_ = sweep()
    arms, repeat = sweep_["arms"], sweep_["repeat"]
    assert len({case["fingerprint"] for case in arms.values()}) == 1
    assert repeat["fingerprint"] == arms["materialized"]["fingerprint"]
    assert repeat["p99"] == arms["materialized"]["p99"]
