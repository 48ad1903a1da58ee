"""The federation engine: one view handle, two execution strategies.

A :class:`RegisteredView` binds a declarative
:class:`~repro.federation.views.ComposedView` to live source handles
(minted for the view's service principal, so every row crossing the
view boundary is masked exactly as that principal may see it) and
answers queries through whichever strategy the planner picks:

- **federated**: scatter-gather across the sources *now* -- parallel
  LISTs / point GETs on Object stores, a pushed-down pipeline on Log
  pools -- then one local join.  Staleness 0 by construction; cost is
  the full cross-store fan-out on every read.
- **materialized**: serve the incrementally maintained local copy
  (:class:`~repro.federation.materialize.MaterializedView`).  Cost is a
  local join; staleness is whatever the watch pipeline currently lags.

**Planner rule** (per query, in order): no materialized copy or
``consistency="strong"`` (which a ``freshness`` bound of 0 implies) ->
federated; ``consistency="any"`` -> materialized; otherwise serve
materialized iff its staleness estimate is within the query's freshness
bound (defaulting to the view's declared bound), else fall back to
federated.  Under the default automatic policy a materialized answer is
therefore *never* served beyond its bound -- the
``view_freshness_violations_total`` counter only moves when a caller
forces ``strategy="materialized"`` explicitly.

Every query emits ``view_plan`` / ``view_fetch`` trace spans and the
per-view ``view_queries_total`` / ``view_staleness_seconds`` metrics
(maintenance emits ``view_apply`` points as writes land).
"""

from dataclasses import dataclass

from repro.errors import NotFoundError
from repro.query.core import compile_ops
from repro.query.spec import Query, QueryResult
from repro.federation.views import compose


@dataclass(frozen=True)
class Plan:
    """The planner's verdict for one query."""

    strategy: str  # "federated" | "materialized"
    bound: float  # resolved freshness bound (seconds)
    staleness: float  # materialized staleness estimate at plan time
    reason: str


class RegisteredView:
    """A composed view wired to its sources on a home exchange."""

    #: Simulated CPU per source row fed through the local join -- the
    #: same order of magnitude as the Sync integrator's local stage
    #: cost, so a materialized serve is cheap but never free.  Charged
    #: per *maintained* row even for a keyed page that looks up its own.
    local_join_cost = 2e-6

    def __init__(self, env, view, home, handles, kinds, *, registry=None,
                 tracer=None, materialized=None):
        self.env = env
        self.view = view
        self.home = home  # the DataExchange the view is registered on
        self.handles = handles  # alias -> source StoreHandle
        self.kinds = kinds  # alias -> "object" | "log"
        self.registry = registry
        self.tracer = tracer
        self.materialized = materialized

    @property
    def name(self):
        return self.view.name

    def staleness(self, now=None):
        if self.materialized is None:
            return float("inf")
        return self.materialized.staleness(now)

    # -- planning ----------------------------------------------------------

    def plan(self, query):
        bound = (query.freshness if query.freshness is not None
                 else self.view.freshness)
        level = query.consistency or ("strong" if bound <= 0 else "bounded")
        staleness = self.staleness()
        if self.materialized is None:
            return Plan("federated", bound, staleness,
                        "no materialized copy maintained")
        if level == "strong":
            return Plan("federated", bound, staleness,
                        "strong consistency demanded")
        if level == "any":
            return Plan("materialized", bound, staleness,
                        "any-staleness read")
        if staleness <= bound:
            return Plan("materialized", bound, staleness,
                        f"staleness {staleness:.4f}s within bound {bound}s")
        return Plan("federated", bound, staleness,
                    f"staleness {staleness:.4f}s exceeds bound {bound}s")

    # -- execution ---------------------------------------------------------

    def execute(self, query, strategy=None):
        """Generator body answering ``query`` (wrap in ``env.process``)."""
        root_ctx = plan_ctx = None
        if self.tracer is not None:
            root_ctx = self.tracer.new_trace(
                "view_query", service=f"view:{self.name}", view=self.name,
            )
            plan_ctx = self.tracer.start_span(
                "view_plan", service=f"view:{self.name}", parent=root_ctx,
            )
        plan = self.plan(query)
        chosen = strategy if strategy is not None else plan.strategy
        if plan_ctx is not None:
            self.tracer.end_span(
                plan_ctx, strategy=chosen, reason=plan.reason,
                bound=plan.bound,
            )
        fetch_ctx = None
        if self.tracer is not None:
            fetch_ctx = self.tracer.start_span(
                "view_fetch", service=f"view:{self.name}", parent=root_ctx,
                strategy=chosen,
            )
        if chosen == "materialized":
            if self.materialized is None:
                raise NotFoundError(
                    f"view {self.name!r} maintains no materialized copy"
                )
            staleness = plan.staleness
            if staleness > plan.bound:
                # Only reachable when the caller forced the strategy:
                # the automatic planner never serves beyond the bound.
                self._count("view_freshness_violations_total")
            tables, fed = self.materialized.tables(query.keys)
        else:
            staleness = 0.0
            tables = yield self.env.process(self._scatter(query.keys))
            fed = {alias: len(rows) for alias, rows in tables.items()}
        cost = self.local_join_cost * sum(fed.values())
        if cost > 0:
            yield self.env.timeout(cost)
        rows = compose(self.view, tables, self.kinds, keys=query.keys)
        records = query.pipeline()(rows)
        if fetch_ctx is not None:
            self.tracer.end_span(fetch_ctx, records=len(records))
        self._count("view_queries_total", strategy=chosen)
        if self.registry is not None and staleness != float("inf"):
            self.registry.histogram(
                "view_staleness_seconds", view=self.name,
            ).observe(staleness)
        if root_ctx is not None:
            self.tracer.end_span(root_ctx, strategy=chosen)
        return QueryResult(
            records=records,
            strategy=chosen,
            staleness=staleness,
            sources={
                alias: {"kind": self.kinds[alias], "rows": fed[alias]}
                for alias in tables
            },
        )

    def _scatter(self, keys):
        """Parallel federated fetch of every source; alias -> rows."""
        procs = {
            src.alias: self.env.process(self._fetch_source(src, keys))
            for src in self.view.sources
        }
        results = yield self.env.all_of(list(procs.values()))
        return {alias: results[proc] for alias, proc in procs.items()}

    def _fetch_source(self, src, keys):
        handle = self.handles[src.alias]
        if self.kinds[src.alias] == "log":
            # Analytics push-down: the per-source pipeline runs in the
            # Log store, only the survivors cross the network.
            answer = yield handle.query(
                ops=list(src.ops), include_watermark=True,
            )
            return list(answer["records"])
        if keys is not None and src.on == "_key" and src.match == "_key":
            # Point-read path: this source is keyed identically to the
            # requested root keys, so N parallel GETs beat a full LIST.
            # Per-source ops here see only the fetched subset; keyed
            # queries compose with record-local ops (filter / cut /
            # derive), not whole-table ones (agg / head).
            wanted = list(dict.fromkeys(keys))
            rows = []
            if wanted:
                gets = [self.env.process(self._point_get(handle, k))
                        for k in wanted]
                results = yield self.env.all_of(gets)
                rows = [results[p] for p in gets if results[p] is not None]
        else:
            views = yield handle.list()
            rows = [{**v["data"], "_key": v["key"]} for v in views]
        rows.sort(key=lambda r: r["_key"])  # match materialized ordering
        return compile_ops(src.ops)(rows)

    def _point_get(self, handle, key):
        try:
            view = yield handle.get(key)
        except NotFoundError:
            return None
        return {**view["data"], "_key": view["key"]}

    def _count(self, name, **labels):
        if self.registry is not None:
            self.registry.counter(name, view=self.name, **labels).inc()

    def status(self):
        out = {
            "view": self.name,
            "sources": {
                alias: {"kind": kind, "store": self.view.source(alias).store}
                for alias, kind in self.kinds.items()
            },
            "freshness": self.view.freshness,
            "materialized": self.materialized is not None,
        }
        if self.materialized is not None:
            out["staleness"] = self.materialized.staleness()
            out["maintenance"] = self.materialized.status()
        return out


class ViewHandle:
    """A principal's query handle to one registered composed view.

    The view-side analogue of a :class:`~repro.exchange.base.StoreHandle`:
    every ``query`` passes RBAC (the ``query`` verb on the view name,
    granted via ``de.grant(principal, view_name, role="viewer")``)
    before the planner runs.
    """

    def __init__(self, registered, principal):
        self.registered = registered
        self.principal = principal

    @property
    def env(self):
        return self.registered.env

    @property
    def name(self):
        return self.registered.name

    @property
    def view(self):
        return self.registered.view

    def query(self, *, ops=(), freshness=None, consistency=None, keys=None,
              strategy=None):
        """Answer a declarative read; returns a process event.

        Keyword-only, mirroring :class:`repro.query.Query`:
        ``ops`` (post-compose pipeline), ``freshness`` (staleness bound
        in seconds; ``None`` defers to the view's default),
        ``consistency`` (``strong`` / ``bounded`` / ``any``), ``keys``
        (root-key restriction).  ``strategy`` overrides the planner
        (``"federated"`` / ``"materialized"``) -- forcing a stale
        materialized read is counted as a freshness violation.
        """
        self.registered.home.acl.check(
            self.principal, self.name, "query", now=self.env.now,
        )
        spec = Query(
            target=self.name, ops=ops, freshness=freshness,
            consistency=consistency, principal=self.principal, keys=keys,
        )
        return self.env.process(self.registered.execute(spec, strategy=strategy))

    def plan(self, *, freshness=None, consistency=None):
        """The planner's verdict without executing (no RBAC side effects);
        it depends on the read's freshness and consistency alone."""
        spec = Query(
            target=self.name, freshness=freshness,
            consistency=consistency, principal=self.principal,
        )
        return self.registered.plan(spec)

    def staleness(self):
        return self.registered.staleness()
