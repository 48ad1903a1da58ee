"""``retail_orders``: the paper's own application under open-loop orders."""

from repro.load import LoadGenerator, PoissonArrivals, TrafficClass, ZipfKeys
from repro.load.scenarios import RetailLoadScenario

from benchmarks.perf.measure import digest
from benchmarks.perf.workloads.base import (
    CountingEnvironment,
    Outcome,
    Violations,
    Workload,
    read_store,
    server_counters,
)

STORES = ("checkout", "shipping", "payment")

_ITEMS = [
    ("mesh-chair", 429.0),
    ("usb-hub", 39.0),
    ("monitor-arm", 129.0),
    ("webcam", 89.0),
]


def order_payload(rng):
    """One seeded Checkout order body (for the workloads that write
    orders themselves instead of through ``RetailLoadScenario``)."""
    item, price = _ITEMS[rng.randrange(len(_ITEMS))]
    return {
        "items": {item: {"name": item, "priceUSD": price}},
        "address": f"{rng.randint(1, 99)} Main St",
        "cost": price,
        "totalCost": price,
        "currency": "USD",
        "status": "placed",
        "cardToken": f"tok-{rng.randint(10**6, 10**7 - 1)}",
    }


def check_orders(placed, stores, violations):
    """How many placed orders are fulfilled with shipment and charge."""
    correct = 0
    for key in placed:
        cid = key.split("/", 1)[1]
        order = stores["checkout"].get(key)
        ok = violations.op(
            order is not None and order["data"].get("status") == "fulfilled",
            f"order {key!r} is not fulfilled",
        ) and violations.op(
            cid in stores["shipping"] and cid in stores["payment"],
            f"order {key!r} lacks its shipment or its charge",
        )
        correct += ok
    return correct


def retail_state(app):
    """The three composed stores as the owners see them."""
    return {
        name: read_store(app.env, app.runtime.handle_of(name))
        for name in STORES
    }


def retail_digest(stores, with_revisions=True):
    return digest([
        (name, key, view["revision"] if with_revisions else None,
         view["data"])
        for name in STORES
        for key, view in sorted(stores[name].items())
    ])


class RetailOrders(Workload):
    name = "retail_orders"
    op_unit = "one order placed and fulfilled, shipment and charge present"
    loop = "open"
    tail_q = 0.95  # ~200 samples: 10 lie beyond p95

    RATE = 20.0
    DURATION = 10.0
    SKUS = 64

    def size(self):
        return {"orders_per_sim_s": self.RATE,
                "sim_seconds": self.DURATION * self.scale,
                "skus": self.SKUS}

    def build(self, inputs):
        scenario = RetailLoadScenario(
            seed=self.rng("app").getrandbits(32), env=CountingEnvironment(),
        )
        classes = [TrafficClass(
            "orders", PoissonArrivals(self.RATE),
            keys=ZipfKeys(self.SKUS, key_format="sku-{:03d}"),
        )]
        generator = LoadGenerator(
            scenario, classes, self.DURATION * self.scale,
            seed=f"{self.seed}/{self.name}",
        )
        return {"scenario": scenario, "generator": generator}

    def counters(self, ctx):
        app = ctx["scenario"].app
        return server_counters(
            [app.de.backend], app.runtime.network, app.de.retry_policy)

    def run(self, ctx):
        ctx["result"] = ctx["generator"].run()

    def finish(self, ctx):
        app = ctx["scenario"].app
        env = app.env
        events = env.steps
        result = ctx["result"]
        trace = result.classes["orders"]
        violations = Violations()
        stores = retail_state(app)
        placed = list(app.orders_placed)
        violations.whole(
            trace.outcomes.get("ok", 0) == len(placed) == result.offered(),
            f"outcomes {trace.outcomes} for {result.offered()} offered orders",
        )
        correct = check_orders(placed, stores, violations)
        # Orders are keyed in arrival order, so the i-th key pairs with
        # the i-th arrival instant.
        fulfil, last_done = [], result.started_at
        for key, offset in zip(placed, trace.arrival_times):
            view = stores["checkout"].get(key)
            if view is None:
                continue
            fulfil.append(
                (view["updated_at"] - result.started_at - offset) * 1e3)
            last_done = max(last_done, view["updated_at"])
        first = result.started_at + (trace.arrival_times or [0.0])[0]
        return Outcome(
            attempted=result.offered(),
            correct=violations.correct(correct),
            digest=retail_digest(stores),
            events=events,
            sim_latencies_ms=[s * 1e3 for s in trace.latencies],
            sim_span_s=last_done - first,
            sim={"fulfil_ms": fulfil},
            errors=violations.texts,
        )
