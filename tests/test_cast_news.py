"""Cast exchanges on news, and reads its sources once per exchange.

A watch event that carries state the executor's cache already holds (the
echo of a read or write Cast just made, a rewrite to the same value)
starts no exchange; an exchange gathers once and runs its fixpoint
passes over that one map.  What must survive both: every foreign change
is still exchanged, aborted exchanges are still retried, and every
executor option reaches the state it reached before.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.retail.knactor_app import RETAIL_DXG, RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core import Cast, Knactor, KnactorRuntime, StoreBinding
from repro.core.dxg.executor import ExecutorOptions
from repro.core.optimizer import K_APISERVER, K_REDIS, K_REDIS_UDF
from repro.core.policy import deny_during
from repro.errors import NotFoundError
from repro.exchange import ObjectDE
from repro.simnet import Environment, FixedLatency, Network
from repro.store import ApiServer, MemKV
from repro.store.base import DELETED, MODIFIED, WatchEvent
from tests.test_dxg_globals import DXG as FX_DXG
from tests.test_dxg_globals import ORDER_SCHEMA as FX_ORDER_SCHEMA
from tests.test_dxg_globals import RATES_SCHEMA as FX_RATES_SCHEMA
from tests.test_dxg_globals import build as build_fx

SRC = """\
schema: News/v1/Src/Item
x: number
note: string
pin: string # +kr: secret
"""

DST = """\
schema: News/v1/Dst/Item
y: number # +kr: external
pinLen: number # +kr: external
owner: string
"""

DXG = """\
Input:
  A: News/v1/Src/knactor-src
  B: News/v1/Dst/knactor-dst
DXG:
  B:
    y: A.x * 2
    pinLen: len(A.pin)
"""


def build(env, net, options=None, zero_copy=True, backend_cls=ApiServer):
    """Two stores, one Cast, no reconcilers: every other writer in these
    tests is *foreign* (the stores' owners, through their own handles).

    Watch fan-out costs more than a round trip, as in both calibrated
    backends, so a write's reply reaches its writer before its echo.
    """
    runtime = KnactorRuntime(env, network=net)
    backend = backend_cls(
        env, net, location="object-backend", watch_overhead=0.002,
        zero_copy=zero_copy,
    )
    de = ObjectDE(env, backend)
    runtime.add_exchange("object", de)
    runtime.add_knactor(Knactor("src", [StoreBinding("default", "object", SRC)]))
    runtime.add_knactor(Knactor("dst", [StoreBinding("default", "object", DST)]))
    de.grant("news-cast", "knactor-src", role="integrator")
    de.grant("news-cast", "knactor-dst", role="integrator")
    cast = Cast("news-cast", DXG, options=options)
    runtime.add_integrator(cast)
    runtime.start()
    return runtime, de, cast


def expected_target(source):
    """The DXG above, by hand, over what Cast may see of ``source``."""
    want = {"y": source["x"] * 2}
    if "pin" in source:
        want["pinLen"] = len(source["pin"])
    return want


# ---------------------------------------------------------------------------
# The executor's one question
# ---------------------------------------------------------------------------


class TestObserve:
    def test_news_is_decided_by_value_per_slot(self, env, zero_net):
        _runtime, _de, cast = build(env, zero_net)
        executor = cast.executor
        assert executor.observe("A", "", "k", {"x": 1})  # never seen
        assert not executor.observe("A", "", "k", {"x": 1})  # same value
        assert executor.observe("A", "", "k", {"x": 2})
        # ABA: X -> Y -> X is news on both events.
        assert executor.observe("A", "", "k", {"x": 1})
        # Another slot holding an equal value is still its own slot.
        assert executor.observe("A", "", "other", {"x": 1})
        assert executor.observe("B", "", "k", {"x": 1})

    def test_a_deletion_is_always_news_and_empties_the_slot(
            self, env, zero_net):
        _runtime, _de, cast = build(env, zero_net)
        executor = cast.executor
        assert executor.observe("A", "", "k", None)  # nothing cached
        executor.observe("A", "", "k", {"x": 1})
        assert executor.observe("A", "", "k", None)
        assert ("A", "", "k") not in executor.cache
        assert executor.observe("A", "", "k", {"x": 1})  # re-created

    def test_the_cache_moves_only_on_news(self, env, zero_net):
        _runtime, _de, cast = build(env, zero_net)
        executor = cast.executor
        calls = []
        original = executor.update_cache
        executor.update_cache = lambda *args: (
            calls.append(args), original(*args))
        executor.observe("A", "", "k", {"x": 1})
        executor.observe("A", "", "k", {"x": 1})
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# One foreign change, one exchange
# ---------------------------------------------------------------------------


class TestOneChangeOneExchange:
    def test_one_foreign_change_is_one_exchange_and_an_ignored_echo(
            self, env, net, call):
        runtime, _de, cast = build(env, net)
        src, dst = runtime.handle_of("src"), runtime.handle_of("dst")
        call(src.create("k", {"x": 1}))
        env.run()
        assert call(dst.get("k"))["data"]["y"] == 2
        # The create of B echoes back; Cast wrote it, Cast holds it.
        assert cast.exchanges_run == 1
        assert cast.events_ignored == 1

        call(src.patch("k", {"x": 5}))
        env.run()
        assert call(dst.get("k"))["data"]["y"] == 10
        assert cast.exchanges_run == 2
        assert cast.events_ignored == 2
        stats = cast.stats()
        assert stats["events_ignored"] == 2 and stats["queue_depth"] == 0
        assert cast.stats()["events_ignored"] == 2

    def test_a_rewrite_to_the_same_value_is_not_news(self, env, net, call):
        runtime, _de, cast = build(env, net)
        src = runtime.handle_of("src")
        call(src.create("k", {"x": 1}))
        env.run()
        reads = cast.executor.totals.reads
        call(src.patch("k", {"x": 1}))  # new revision, same state
        env.run()
        assert cast.exchanges_run == 1
        assert cast.executor.totals.reads == reads  # zero reads

    def test_aba_by_a_foreign_writer_exchanges_on_both_events(
            self, env, net, call):
        runtime, _de, cast = build(env, net)
        src, dst = runtime.handle_of("src"), runtime.handle_of("dst")
        call(src.create("k", {"x": 1}))
        env.run()
        seen = []
        dst.watch(lambda event: seen.append(event.object["y"]))
        call(src.patch("k", {"x": 7}))
        env.run()
        call(src.patch("k", {"x": 1}))
        env.run()
        assert seen == [14, 2]
        assert cast.exchanges_run == 3

    def test_a_foreign_write_to_a_target_is_put_right(self, env, net, call):
        runtime, _de, cast = build(env, net)
        src, dst = runtime.handle_of("src"), runtime.handle_of("dst")
        call(src.create("k", {"x": 1}))
        env.run()
        call(dst.patch("k", {"y": -1, "owner": "dst"}))
        env.run()
        assert dict(call(dst.get("k"))["data"]) == {"y": 2, "owner": "dst"}
        assert cast.exchanges_run == 2

    def test_a_deleted_target_is_created_again(self, env, net, call):
        runtime, _de, cast = build(env, net)
        src, dst = runtime.handle_of("src"), runtime.handle_of("dst")
        call(src.create("k", {"x": 1}))
        env.run()
        call(dst.delete("k"))
        env.run()
        assert call(dst.get("k"))["data"]["y"] == 2


# ---------------------------------------------------------------------------
# One gather per exchange
# ---------------------------------------------------------------------------


class TestOneGatherPerExchange:
    def test_reads_are_objects_times_exchanges_not_passes(
            self, env, net, call):
        runtime, _de, cast = build(env, net)
        call(runtime.handle_of("src").create("k", {"x": 1}))
        env.run()
        totals = cast.executor.totals
        assert totals.passes == 1  # one sweep: nothing reads what B gets
        assert totals.reads == len(cast.executor.plan.steps) + 1 == 2

    def test_a_foreign_write_mid_exchange_converges_through_its_event(
            self, env, net, call):
        """A source changes after the gather and before the write: the
        exchange finishes over what it read, and the change's own event
        starts the exchange that catches up -- nothing is re-read in
        between."""
        runtime, _de, cast = build(env, net)
        src, dst = runtime.handle_of("src"), runtime.handle_of("dst")
        executor = cast.executor
        run_steps = executor._run_steps
        fired = []

        def foreign_write_first(cid, objects, stats):
            if not fired:
                fired.append(dict(objects[("A", "")]))
                src.patch("k", {"x": 50})  # in flight beside Cast's write
            return run_steps(cid, objects, stats)

        executor._run_steps = foreign_write_first
        per_exchange = []
        exchange = executor._exchange

        def recording(cid, ctx=None):
            stats = yield from exchange(cid, ctx=ctx)
            per_exchange.append(stats)
            return stats

        executor._exchange = recording
        call(src.create("k", {"x": 1}))
        env.run()
        assert fired == [{"x": 1}]
        assert call(dst.get("k"))["data"]["y"] == 100
        involved = len(executor._involved)
        assert [s.reads for s in per_exchange] == [involved] * len(per_exchange)
        assert per_exchange[0].passes == 1 and per_exchange[0].writes == 1
        assert cast.exchanges_run == len(per_exchange) == 2
        assert cast.stats()["queue_depth"] == 0

    def test_pushdown_reads_once_per_call_too(self, env, net, call):
        runtime, _de, cast = build(env, net, backend_cls=MemKV)
        cast.pushdown = True
        cast.reconfigure(spec=DXG)
        call(runtime.handle_of("src").create("k", {"x": 1}))
        env.run()
        assert call(runtime.handle_of("dst").get("k"))["data"]["y"] == 2


# ---------------------------------------------------------------------------
# Lookup objects
# ---------------------------------------------------------------------------


class TestLookupObjects:
    def _three_orders(self, env):
        runtime, _de, cast = build_fx(env)
        rates, orders = runtime.handle_of("rates"), runtime.handle_of("orders")
        env.run(until=rates.create("main", {"rates": {"EUR": 0.9}}))
        for i in range(3):
            env.run(until=orders.create(
                f"o{i}", {"amount": 9.0, "currency": "EUR"}))
        env.run()
        return cast, rates, orders

    def test_an_unchanged_rewrite_requeues_nobody(self, env):
        cast, rates, _orders = self._three_orders(env)
        before = cast.exchanges_run
        env.run(until=rates.patch("main", {"rates": {"EUR": 0.9}}))
        env.run()
        assert cast.exchanges_run == before
        assert cast.stats()["queue_depth"] == 0

    def test_a_changed_one_still_fans_out_to_every_known_cid(self, env):
        cast, rates, orders = self._three_orders(env)
        before = cast.exchanges_run
        env.run(until=rates.patch("main", {"rates": {"EUR": 0.5}}))
        env.run()
        assert cast.exchanges_run >= before + 3
        for i in range(3):
            data = env.run(until=orders.get(f"o{i}"))["data"]
            assert data["usdAmount"] == pytest.approx(18.0)

    def test_a_gather_that_overtakes_the_event_does_not_swallow_the_fan_out(
            self, env):
        """With a batch window the server holds events back, so one cid's
        gather can GET the new lookup value before its event arrives.
        That gather covers its own cid only: the event must still be
        news, or every other cid keeps values derived from the old one."""
        window = 0.05
        net = Network(env, default_latency=FixedLatency(0.0005))
        runtime = KnactorRuntime(env, network=net)
        de = ObjectDE(env, MemKV(
            env, net, watch_overhead=0.0, watch_batch_window=window))
        runtime.add_exchange("object", de)
        runtime.add_knactor(Knactor("orders", [StoreBinding(
            "default", "object", FX_ORDER_SCHEMA)]))
        runtime.add_knactor(Knactor("rates", [StoreBinding(
            "default", "object", FX_RATES_SCHEMA)]))
        de.grant("fx-cast", "knactor-orders", role="integrator")
        de.grant("fx-cast", "knactor-rates", role="reader")
        cast = Cast("fx-cast", FX_DXG)
        runtime.add_integrator(cast)
        runtime.start()
        rates, orders = runtime.handle_of("rates"), runtime.handle_of("orders")
        env.run(until=rates.create("main", {"rates": {"EUR": 0.9}}))
        for i in range(3):
            env.run(until=orders.create(
                f"o{i}", {"amount": 9.0, "currency": "EUR"}))
        env.run()

        # o0's event leaves the server one window from now; the lookup
        # object changes just before that, so its own event is still
        # held while o0's exchange gathers.
        start = env.now
        env.run(until=orders.patch("o0", {"amount": 18.0}))
        env.run(until=start + 0.8 * window)
        env.run(until=rates.patch("main", {"rates": {"EUR": 0.5}}))
        env.run()
        wanted = {"o0": 36.0, "o1": 18.0, "o2": 18.0}
        for key, usd in wanted.items():
            data = env.run(until=orders.get(key))["data"]
            assert data["usdAmount"] == pytest.approx(usd), key
        assert cast.stats()["queue_depth"] == 0


# ---------------------------------------------------------------------------
# Abandoned exchanges are owed a retry
# ---------------------------------------------------------------------------


class TestAbandonedExchanges:
    @pytest.mark.parametrize("options", [
        ExecutorOptions(),
        ExecutorOptions(trust_cache_for_missing=True),  # every K-* profile
    ], ids=["default", "trust-cache"])
    def test_a_denied_exchange_is_retried_by_a_same_state_event(
            self, env, net, call, options):
        """The window closes writes to the target, not reads: the gather
        caches the new source state, then the write is denied.  Once the
        window opens, the next event for the cid retries it even though
        it carries exactly the state the cache already holds."""
        runtime, de, cast = build(env, net, options=options)
        src, dst = runtime.handle_of("src"), runtime.handle_of("dst")
        deny_during(de, "news-cast", "knactor-dst", 0, 1,
                    seconds_per_hour=1.0, verbs={"create", "patch"})
        call(src.create("k", {"x": 1}))
        env.run(until=0.5)
        assert cast.denied == 1 and cast.exchanges_run == 0
        assert cast.executor.cache[("A", "", "k")] == {"x": 1}

        env.run(until=2.0)  # the window is open
        call(src.patch("k", {"x": 1}))  # a foreign rewrite, same value
        env.run(until=3.0)
        assert call(dst.get("k"))["data"]["y"] == 2
        assert cast.exchanges_run == 1

        # The debt is paid: the next same-state event is an echo again.
        ignored = cast.events_ignored
        call(src.patch("k", {"x": 1}))
        env.run(until=4.0)
        assert cast.exchanges_run == 1
        assert cast.events_ignored == ignored + 1

    def test_the_retry_still_sees_what_the_informer_knew(self, env, net, call):
        """Why an abandoned exchange is *owed* and its slots are not
        dropped: under ``trust_cache_for_missing`` (every K-* profile) a
        slot the cache lacks is not read at all, so a retry started by an
        event on the target would compute over a missing source."""
        runtime, de, cast = build(
            env, net, options=ExecutorOptions(trust_cache_for_missing=True))
        src, dst = runtime.handle_of("src"), runtime.handle_of("dst")
        deny_during(de, "news-cast", "knactor-dst", 0, 1,
                    seconds_per_hour=1.0, verbs={"create", "patch"})
        call(dst.create("k", {"owner": "dst"}))
        call(src.create("k", {"x": 1}))
        env.run(until=0.5)
        assert cast.denied == 1
        assert "y" not in call(dst.get("k"))["data"]

        env.run(until=2.0)
        call(dst.patch("k", {"owner": "dst"}))  # same state, on the target
        env.run(until=3.0)
        assert call(dst.get("k"))["data"]["y"] == 2

    def test_a_dead_lettered_cid_is_requeued_by_its_next_event(
            self, env, net, call):
        runtime, de, cast = build(env, net)
        src, dst = runtime.handle_of("src"), runtime.handle_of("dst")
        call(src.create("k", {"x": 1}))
        de.backend.set_available(False)  # brown-out: streams stay up
        env.run(until=env.now + 5.0)
        assert cast.dead_letters.keys() == ["k"]
        assert cast.executor.cache[("A", "", "k")] == {"x": 1}

        de.backend.set_available(True)
        call(src.patch("k", {"x": 1}))  # same state as the event cached
        env.run(until=env.now + 5.0)
        assert call(dst.get("k"))["data"]["y"] == 2


# ---------------------------------------------------------------------------
# Every option reaches the same retail state
# ---------------------------------------------------------------------------


def place(app, workload, count):
    keys = []
    for _ in range(count):
        key, data = workload.next_order()
        keys.append(key)
        app.env.run(until=app.place_order(key, data))
    return keys


def retail_state(profile, options, orders=4):
    app = RetailKnactorApp.build(profile=profile)
    if options is not None:
        app.cast.options = options
        app.cast.reconfigure(spec=RETAIL_DXG)
    keys = place(app, OrderWorkload(seed=7), orders)
    app.run_until_quiet(max_seconds=120.0)
    state = {}
    for key in keys:
        cid = key.split("/", 1)[1]
        state[cid] = tuple(
            app.env.run(until=read)["data"]
            for read in (app.order(key), app.shipment(cid), app.charge(cid)))
    return app, state


class TestEveryOptionSameState:
    @pytest.fixture(scope="class")
    def reference(self):
        app, state = retail_state(K_APISERVER, ExecutorOptions())
        assert app.cast.events_ignored > 0
        for order, shipment, charge in state.values():
            assert order["status"] == "fulfilled"
            assert order["trackingID"] == shipment["id"]
            assert order["paymentID"] == charge["id"]
            assert charge["amount"] == order["totalCost"]
            assert shipment["addr"] == order["address"]
        return state

    @pytest.mark.parametrize("profile, options", [
        (K_APISERVER, ExecutorOptions(transactional=True)),
        (K_APISERVER, ExecutorOptions(consolidate=False)),
        (K_REDIS, ExecutorOptions(refresh_reads=False)),
        (K_APISERVER, ExecutorOptions(trust_cache_for_missing=True)),
        (K_REDIS_UDF, None),
    ], ids=["transactional", "no-consolidate", "informer", "trust-cache",
            "pushdown"])
    def test_final_state_is_the_reference(self, reference, profile, options):
        app, state = retail_state(profile, options)
        assert state == reference
        assert app.cast.stats()["queue_depth"] == 0


# ---------------------------------------------------------------------------
# Recovery does not depend on echoes
# ---------------------------------------------------------------------------


def all_fulfilled(app, keys):
    orders = [app.env.run(until=app.order(key))["data"] for key in keys]
    return all(order["status"] == "fulfilled"
               and order["trackingID"].startswith("trk-") for order in orders)


class TestRecovery:
    def test_kill_and_restart_recover_every_order(self):
        app = RetailKnactorApp.build(profile=K_APISERVER, with_notify=False)
        workload = OrderWorkload(seed=7)
        keys = place(app, workload, 3)
        app.env.run(until=app.env.now + 0.02)  # mid-flight
        app.cast.kill()
        keys += place(app, workload, 2)  # nobody is listening
        app.env.run(until=app.env.now + 1.0)
        assert not all_fulfilled(app, keys)
        app.cast.restart()
        app.run_until_quiet(max_seconds=120.0)
        assert all_fulfilled(app, keys)
        assert app.cast.stats()["queue_depth"] == 0

    def test_a_severed_stream_recovers_every_order(self):
        app = RetailKnactorApp.build(profile=K_APISERVER, with_notify=False)
        workload = OrderWorkload(seed=7)
        keys = place(app, workload, 2)
        app.env.run(until=app.env.now + 0.02)
        assert app.de.backend.sever_watches() > 0
        keys += place(app, workload, 2)
        app.run_until_quiet(max_seconds=120.0)
        assert all_fulfilled(app, keys)
        assert app.cast.stats()["queue_depth"] == 0

    def test_catch_up_queues_known_cids_whatever_the_listing_holds(
            self, env, net, call):
        runtime, _de, cast = build(env, net)
        call(runtime.handle_of("src").create("k", {"x": 1}))
        env.run()
        before = cast.exchanges_run
        ignored = cast.events_ignored
        cast.followers.members[0].resync()
        env.run()
        # The listed object equals the cache, yet ``k`` ran again.
        assert cast.events_ignored == ignored + 1
        assert cast.exchanges_run == before + 1


class TestReconfiguration:
    def test_a_new_executor_starts_from_an_empty_cache(self, env, net, call):
        runtime, _de, cast = build(env, net)
        src, dst = runtime.handle_of("src"), runtime.handle_of("dst")
        call(src.create("k", {"x": 1}))
        env.run()
        assert cast.executor.cache
        cast.set_assignment("B", "y", "A.x * 3")
        assert cast.executor.cache == {}
        # So the same state, seen again, is news to the new graph.
        call(src.patch("k", {"x": 1}))
        env.run()
        assert call(dst.get("k"))["data"]["y"] == 3


class TestIngestReadsTheEventsContext:
    def test_synthetic_and_untraced_events_carry_none(self, env, zero_net):
        _runtime, _de, cast = build(env, zero_net)
        cast._ingest("A", WatchEvent(MODIFIED, "k", {"x": 1}, 1))
        assert cast.queue.pending == {"k": None}
        cast._ingest("A", WatchEvent(DELETED, "k", None, 2))
        assert list(cast.queue.pending) == ["k"]


# ---------------------------------------------------------------------------
# Any interleaving of foreign writes converges to the from-scratch answer
# ---------------------------------------------------------------------------

CIDS = ("a", "b", "c")

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("src"), st.sampled_from(CIDS),
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("pin"), st.sampled_from(CIDS),
                  st.sampled_from(["", "12", "1234"])),
        st.tuples(st.just("dst"), st.sampled_from(CIDS),
                  st.integers(min_value=-2, max_value=8)),
        st.tuples(st.just("del"), st.sampled_from(CIDS), st.just(0)),
    ),
    max_size=14,
)
#: Sim seconds between one foreign write and the next: from "lands inside
#: the running exchange" to "long after the system went quiet".
_gaps = st.sampled_from([0.0, 0.0002, 0.0011, 0.02])


class TestInterleavingsConverge:
    @pytest.mark.parametrize("options", [
        None,
        ExecutorOptions(consolidate=False),
        ExecutorOptions(transactional=True),
    ], ids=["default", "no-consolidate", "transactional"])
    @settings(max_examples=40, deadline=None)
    @given(ops=_ops, gaps=st.lists(_gaps, min_size=14, max_size=14),
           mask_at=st.integers(min_value=0, max_value=14),
           zero_copy=st.booleans())
    # The target is deleted between the exchange's gather and its write.
    @example(ops=[("src", "a", 1), ("del", "a", 0), ("src", "a", 0),
                  ("src", "a", 0), ("del", "a", 0)],
             gaps=[0.0011, 0.02, 0.02, 0.02, 0.02] + [0.0] * 9,
             mask_at=0, zero_copy=False)
    def test_final_targets_equal_a_from_scratch_evaluation(
            self, ops, gaps, mask_at, zero_copy, options):
        env = Environment()
        net = Network(env, default_latency=FixedLatency(0.00025))
        runtime, de, cast = build(env, net, options=options,
                                  zero_copy=zero_copy)
        src, dst = runtime.handle_of("src"), runtime.handle_of("dst")
        for cid in CIDS:
            src.create(cid, {"x": 1, "pin": "9"})

        def foreign():
            for index, ((what, cid, value), gap) in enumerate(zip(ops, gaps)):
                if index == mask_at:
                    widen_mask()
                yield env.timeout(gap)
                # Fire and forget: the writes race Cast's, as they would.
                if what == "src":
                    src.patch(cid, {"x": value})
                elif what == "pin":
                    src.patch(cid, {"pin": value})
                elif what == "dst":
                    swallow(dst.patch(cid, {"y": value}))
                else:
                    swallow(dst.delete(cid))

        def widen_mask():
            de.grant("news-cast", "knactor-src", verbs={"get"},
                     read_fields=("pin",))

        def swallow(request):
            def tolerant():
                try:
                    yield request
                except NotFoundError:
                    pass  # the target does not exist yet, or any more
            env.process(tolerant())

        env.run(until=env.process(foreign()))
        if mask_at >= len(ops):
            widen_mask()
        env.run()
        # A mask change raises no event; one last real change per source
        # does, so every cid is evaluated under the mask now in force.
        for cid in CIDS:
            src.patch(cid, {"note": "final"})
        env.run()

        as_cast = de.handle("knactor-src", principal="news-cast")
        for cid in CIDS:
            source = env.run(until=as_cast.get(cid))["data"]
            assert "pin" in source
            target = env.run(until=dst.get(cid))["data"]
            assert {k: target[k] for k in ("y", "pinLen")} == \
                expected_target(source)
        stats = cast.stats()
        assert stats["queue_depth"] == 0
        assert cast.queue.stats()["in_flight"] == 0
        assert cast.errors == 0 and len(cast.dead_letters) == 0
