"""Spans are the one trace record.

The tracer keeps no flat log beside its spans: an instant a reader needs
is an annotation on the span open around it, the latency series are
span queries, and the Chrome export carries every annotation.  What
must hold:

- a failed exchange is not a latency sample, and does not stretch the
  next exchange's sample (the flat log paired each ``cast/begin`` with
  the next ``end`` of its cid, so a begin orphaned by a store brown-out
  was paired with the exchange that ran after recovery);
- a reconciler's ``ctx.trace`` lands on its own pass's span;
- an annotation reaches the export, on its span's track.
"""

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core import Cast, Knactor, KnactorRuntime, StoreBinding
from repro.core.optimizer import K_REDIS
from repro.exchange import ObjectDE
from repro.metrics.latency import exchange_durations, reconcile_durations
from repro.obs import ObsPlane, use
from repro.store import ApiServer, ShardedStoreClient
from tests.test_cast_news import DST, DXG, SRC
from tests.test_txn_coordinator import cross_shard_ops, make_store


def traced_news(env, net):
    """``test_cast_news``'s two stores and one Cast, with the obs plane."""
    runtime = KnactorRuntime(env, network=net, obs=True)
    de = ObjectDE(env, ApiServer(env, net, location="object-backend",
                                 watch_overhead=0.002))
    runtime.add_exchange("object", de)
    runtime.add_knactor(Knactor("src", [StoreBinding("default", "object", SRC)]))
    runtime.add_knactor(Knactor("dst", [StoreBinding("default", "object", DST)]))
    de.grant("news-cast", "knactor-src", role="integrator")
    de.grant("news-cast", "knactor-dst", role="integrator")
    cast = Cast("news-cast", DXG)
    runtime.add_integrator(cast)
    runtime.start()
    return runtime, de, cast


def traced(runtime, make_request):
    """Issue a request as the root of a fresh trace."""
    with use(runtime.tracer.new_trace("client", service="test")):
        return make_request()


class TestAFailedExchangeIsNotALatencySample:
    def test_a_brown_out_past_the_retry_budget_stretches_no_sample(
            self, env, net, call):
        runtime, de, cast = traced_news(env, net)
        src = runtime.handle_of("src")
        call(traced(runtime, lambda: src.create("k", {"x": 1})))
        de.backend.set_available(False)  # longer than every requeue
        env.run(until=env.now + 5.0)
        assert cast.dead_letters.keys() == ["k"]
        assert cast.unavailable_count > 1 and cast.exchanges_run == 0

        de.backend.set_available(True)
        call(traced(runtime, lambda: src.patch("k", {"x": 1})))
        env.run(until=env.now + 5.0)
        assert cast.exchanges_run == 1

        spans = [s for s in runtime.tracer.spans.values()
                 if s.name == "exchange"]
        failed = [s for s in spans if s.attrs["outcome"] != "ok"]
        [done] = [s for s in spans if s.attrs["outcome"] == "ok"]
        # Every failed attempt is a span that ended, on the error.
        assert len(failed) == cast.unavailable_count
        assert all(s.end is not None for s in spans)
        assert {s.attrs["outcome"] for s in failed} == {"UnavailableError"}
        # The one sample is the exchange that ran, not the outage.
        assert exchange_durations(runtime.tracer, "news-cast") == [
            done.duration]
        assert done.duration < 0.1


class TestCtxTraceAnnotatesThePass:
    def test_each_mark_sits_on_its_own_knactors_reconcile_span(self):
        app = RetailKnactorApp.build(profile=K_REDIS, with_notify=False,
                                     obs=True)
        workload = OrderWorkload(seed=7)
        for _ in range(2):
            app.env.run(until=app.place_order(*workload.next_order()))
        app.run_until_quiet(max_seconds=60.0)
        tracer = app.tracer
        knactor_of = {k.reconciler.name: name
                      for name, k in app.runtime.knactors.items()
                      if k.reconciler is not None}
        marks = [(span, attrs) for name in
                 ("fedex.begin", "fedex.done", "order-fulfilled", "reconciled")
                 for span, _time, attrs in tracer.annotations(name)]
        assert len(tracer.annotations("fedex.done")) == 2
        for span, attrs in marks:
            assert span.name == "reconcile"
            assert knactor_of[span.service] == attrs["knactor"]
            assert span.attrs["key"] == attrs["key"]
        # A pass that reconciled is annotated once, inside its extent.
        for span, time, _attrs in tracer.annotations("reconciled"):
            assert span.start <= time == span.end
        assert len(reconcile_durations(tracer, "shipping")) == 2 * 2


class TestAnnotationsReachTheExport:
    def test_a_2pc_decision_is_an_instant_on_the_txn_track(
            self, env, net, call):
        store = make_store(env, net)
        plane = ObsPlane(env)
        store.coordinator.tracer = plane.causal
        client = ShardedStoreClient(store, "caller")
        call(client.txn(cross_shard_ops(2), mode="2pc"))
        entries = plane.causal.to_chrome_trace()
        [txn] = [e for e in entries if (e["ph"], e["name"]) == ("X", "txn")]
        [decision] = [e for e in entries if e["ph"] == "i"]
        assert decision["name"] == "decision"
        assert decision["args"] == {"span": txn["args"]["span"],
                                    "decision": "commit"}
        assert (decision["pid"], decision["tid"]) == (txn["pid"], txn["tid"])
        assert txn["ts"] <= decision["ts"] <= txn["ts"] + txn["dur"]
