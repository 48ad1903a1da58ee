"""``storefront_pages``: composed-view reads beside maintenance writes."""

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.storefront import (
    STOREFRONT_PRINCIPAL,
    STOREFRONT_VIEW_NAME,
    attach_storefront,
)
from repro.load import (
    ConstantArrivals,
    LoadGenerator,
    PoissonArrivals,
    TrafficClass,
)
from repro.obs.registry import Registry

from benchmarks.perf.measure import percentile, plain
from benchmarks.perf.workloads.base import (
    CountingEnvironment,
    Outcome,
    Violations,
    Workload,
    read_store,
    server_counters,
)
from benchmarks.perf.workloads.retail import (
    check_orders,
    order_payload,
    retail_digest,
    retail_state,
)


class ReferenceJoin:
    """The composed records of any page, joined here from source rows.

    An independent statement of the view's declared semantics (root
    restricted to the page's keys, in order; every other source matched
    on ``source.match == root[source.on]``, left join unless
    ``required``) -- the reference every page the program served is
    compared with.  Indexed once, then asked once per page.
    """

    def __init__(self, view, tables):
        self.joined = view.sources[1:]
        self.roots = {row["_key"]: row for row in tables[view.root.alias]}
        self.indexes = [
            {row.get(source.match): row for row in tables[source.alias]}
            for source in self.joined]

    def rows(self, keys):
        rows = [dict(self.roots[key]) for key in keys if key in self.roots]
        for source, index in zip(self.joined, self.indexes):
            for row in rows:
                row[source.field] = index.get(row.get(source.on))
            if source.required:
                rows = [row for row in rows if row[source.field] is not None]
        return plain(rows)


class StorefrontScenario:
    """Order writes and storefront page reads over one retail app.

    Answers the :class:`repro.load.LoadGenerator` scenario protocol
    (``name`` / ``env`` / ``registry`` / ``submit`` / ``quiesce``).
    Payloads and page keys are drawn here, from the generator's seeded
    request streams, and every served page is kept for checking.
    """

    name = "storefront"

    def __init__(self, app, preloaded, fanout, federated_every):
        self.app = app
        self.env = app.env
        obs = app.runtime.obs
        self.registry = obs.registry if obs is not None else Registry(app.env)
        self.preloaded = preloaded
        self.fanout = fanout
        self.federated_every = federated_every
        self.orders = 0
        self.reads = 0
        # (keys, strategy, staleness, latency_s, done_at, records)
        self.pages = []

    def next_order(self, rng):
        self.orders += 1
        return f"order/page{self.orders:06d}", order_payload(rng)

    def submit(self, cls, key, rng):
        if cls.name == "orders":
            return self.app.place_order(*self.next_order(rng))
        picks = rng.sample(range(len(self.preloaded)), self.fanout)
        keys = [self.preloaded[i] for i in sorted(picks)]
        # Every n-th page demands fresh data, so the share of the (much
        # dearer) federated reads is the same for every seed.
        self.reads += 1
        freshness = 0.0 if self.reads % self.federated_every == 0 else None
        return self.env.process(self._page(keys, freshness))

    def _page(self, keys, freshness):
        started = self.env.now
        result = yield self.app.de.query(
            STOREFRONT_VIEW_NAME, keys=keys, freshness=freshness,
            principal=STOREFRONT_PRINCIPAL,
        )
        self.pages.append((keys, result.strategy, result.staleness,
                           self.env.now - started, self.env.now,
                           result.records))
        return result

    def quiesce(self):
        self.app.run_until_quiet(max_seconds=120.0)


class StorefrontPages(Workload):
    name = "storefront_pages"
    op_unit = "one page whose 8 records equal a reference join"
    loop = "open"
    tail_q = 0.99

    PRELOAD = 100
    PAGE_RATE = 120.0
    WRITE_RATE = 6.0
    DURATION = 10.0
    FANOUT = 8
    FEDERATED_EVERY = 10  # one page in ten: freshness=0, scatter-gather
    FRESHNESS = 0.25

    def size(self):
        return {"preloaded_orders": self.scaled(self.PRELOAD, self.FANOUT),
                "pages_per_sim_s": self.PAGE_RATE,
                "orders_per_sim_s": self.WRITE_RATE,
                "sim_seconds": self.DURATION * self.scale,
                "fanout": self.FANOUT,
                "federated_every": self.FEDERATED_EVERY}

    def build(self, inputs):
        app = RetailKnactorApp.build(
            env=CountingEnvironment(), obs=True,
            seed=self.rng("app").getrandbits(32),
        )
        view = attach_storefront(app, freshness=self.FRESHNESS)
        preloaded = []
        scenario = StorefrontScenario(
            app, preloaded, self.FANOUT, self.FEDERATED_EVERY)
        rng = self.rng("preload")
        for _ in range(self.scaled(self.PRELOAD, self.FANOUT)):
            key, data = scenario.next_order(rng)
            app.env.run(until=app.place_order(key, data))
            preloaded.append(key)
        scenario.quiesce()
        # Writes tick at a constant rate: an order costs ~40 page reads
        # of host time, so a Poisson count would make ops_per_s depend on
        # the seed's luck rather than on the code.
        classes = [
            TrafficClass("orders", ConstantArrivals(self.WRITE_RATE)),
            TrafficClass("pages", PoissonArrivals(self.PAGE_RATE)),
        ]
        generator = LoadGenerator(
            scenario, classes, self.DURATION * self.scale,
            seed=f"{self.seed}/{self.name}",
        )
        return {"scenario": scenario, "generator": generator, "view": view,
                "events_before": app.env.steps}

    def counters(self, ctx):
        app = ctx["scenario"].app
        return server_counters(
            [app.de.backend], app.runtime.network, app.de.retry_policy)

    def run(self, ctx):
        ctx["result"] = ctx["generator"].run()

    def finish(self, ctx):
        scenario = ctx["scenario"]
        app = scenario.app
        env = app.env
        events = env.steps - ctx["events_before"]
        result = ctx["result"]
        view = ctx["view"].view
        violations = Violations()

        # Source rows as an independent reader sees them (same masks as
        # the view's own reader principal).
        tables = {}
        for source in view.sources:
            app.de.grant("bench-reference", source.store, role="reader")
            handle = app.de.handle(source.store, principal="bench-reference")
            tables[source.alias] = [
                {**v["data"], "_key": v["key"]}
                for v in read_store(env, handle).values()
            ]
        reference = ReferenceJoin(view, tables)
        correct = 0
        for keys, _strategy, _stale, _latency, _at, records in scenario.pages:
            correct += violations.op(
                len(records) == scenario.fanout
                and plain(records) == reference.rows(keys),
                f"page {keys[:2]}.. differs from the reference join",
            )
        pages = result.classes["pages"]
        violations.whole(
            pages.outcomes.get("ok", 0) == len(scenario.pages)
            == result.offered("pages"),
            f"page outcomes {pages.outcomes} for "
            f"{result.offered('pages')} offered",
        )
        # The maintenance writes are real orders: all must fulfil.
        stores = retail_state(app)
        placed = list(app.orders_placed)
        fulfilled = check_orders(placed, stores, violations)
        violations.whole(fulfilled == len(placed),
                         f"{len(placed) - fulfilled} orders not fulfilled")
        # At quiescence both strategies give the same answer, on every
        # order including the ones written while pages were read.
        every = sorted(placed)
        answers = {
            strategy: env.run(until=app.de.query(
                STOREFRONT_VIEW_NAME, keys=every, strategy=strategy,
                principal=STOREFRONT_PRINCIPAL,
            )).records
            for strategy in ("federated", "materialized")
        }
        violations.whole(
            plain(answers["federated"]) == plain(answers["materialized"])
            == reference.rows(every),
            "federated, materialized and reference answers differ "
            "at quiescence",
        )

        latencies = {"federated": [], "materialized": []}
        staleness = 0.0
        first = done = result.started_at + (pages.arrival_times or [0.0])[0]
        for _keys, strategy, stale, latency, at, _records in scenario.pages:
            latencies[strategy].append(latency * 1e3)
            done = max(done, at)
            if strategy == "materialized":
                staleness = max(staleness, stale)
        served = len(scenario.pages) or 1
        return Outcome(
            attempted=result.offered("pages"),
            correct=violations.correct(correct),
            digest=retail_digest(stores),
            events=events,
            sim_latencies_ms=[s * 1e3 for s in pages.latencies],
            sim_span_s=done - first,
            sim={
                "materialized_share":
                    len(latencies["materialized"]) / served,
                "max_staleness_ms": staleness * 1e3,
                "federated_p50_ms": percentile(latencies["federated"], 0.50),
                "federated_p95_ms": percentile(latencies["federated"], 0.95),
                "materialized_p50_ms":
                    percentile(latencies["materialized"], 0.50),
            },
            errors=violations.texts,
        )
