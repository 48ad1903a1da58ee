"""``store.workqueue.WorkQueue``: the dirty-key loop every consumer runs on.

The queue on its own first, then the four brown-outs that used to end
the run (or drop the work) before Sync, Rollup, the Reconciler's log
subscriptions and the in-store transactional function were moved onto
it, then a kill dropping each key's causal parent with the key.
"""

import pytest

from repro.core import Cast, Knactor, KnactorRuntime, Reconciler, StoreBinding
from repro.core import Flow, Pipeline, Sync
from repro.core.rollup import Rollup, RollupRule
from repro.apps.smarthome.knactors import HOUSE_LOG, HOUSE_OBJECT, HouseReconciler
from repro.errors import (
    AlreadyExistsError,
    ConflictError,
    NotFoundError,
    ReproError,
    UnavailableError,
)
from repro.exchange import LogDE, ObjectDE
from repro.faults.dlq import DeadLetterQueue
from repro.flow.policy import BLOCK, SHED_OLDEST
from repro.store.follow import RIDE_OUT
from repro.obs.context import use
from repro.store import ApiServer, LogLake, MemKV, MemKVClient
from repro.store.workqueue import WorkQueue
from repro.txn import TxnFunctionIntegrator

BROWN_OUT = 0.05  # well inside every consumer's retry budget


class Passes:
    """A consumer whose passes take ``hold`` seconds and raise whatever
    ``failing`` holds for their key (popped: one failure per entry)."""

    def __init__(self, env, capacity=1, max_requeues=3, poison_requeues=3,
                 max_queue=None, overflow=BLOCK):
        self.env = env
        self.log = []  # (time, key, payload) per pass started
        self.running = set()
        self.overlaps = 0
        self.failing = {}
        self.hold = 0.001
        self.dead = DeadLetterQueue(name="passes")
        self.queue = WorkQueue(env, self.run, self.dead, capacity,
                               lambda attempt: 0.01 * attempt, max_requeues,
                               poison_requeues, max_queue, overflow)

    def run(self, key, payload):
        self.log.append((self.env.now, key, payload))
        return self._pass(key)

    def _pass(self, key):
        self.overlaps += key in self.running
        self.running.add(key)
        try:
            yield self.env.timeout(self.hold)
            errors = self.failing.get(key)
            if errors:
                raise errors.pop(0)
        finally:
            self.running.discard(key)


class TestWorkQueue:
    def test_marks_of_one_instant_coalesce_into_one_pass(self, env):
        consumer = Passes(env)
        consumer.queue.start()
        for payload in ("first", "second", "latest"):
            consumer.queue.add("k", payload)
        consumer.queue.requeue("k")  # keeps the pending payload
        env.run()
        assert consumer.log == [(0.0, "k", "latest")]

    def test_a_key_marked_while_its_pass_runs_gets_one_more(self, env):
        consumer = Passes(env, capacity=None)
        consumer.queue.start()
        consumer.queue.add("k", 1)
        env.run(until=0.0005)
        consumer.queue.add("k", 2)
        consumer.queue.add("k", 3)
        env.run()
        assert [(key, p) for _t, key, p in consumer.log] == [("k", 1), ("k", 3)]
        assert consumer.overlaps == 0

    def test_capacity_bounds_the_passes_in_flight(self, env):
        consumer = Passes(env, capacity=2)
        consumer.queue.start()
        for key in "abcde":
            consumer.queue.add(key, None)
        env.run()
        assert [t for t, _k, _p in consumer.log] == pytest.approx(
            [0.0, 0.0, 0.001, 0.001, 0.002])

    def test_a_stopped_queue_keeps_its_keys(self, env):
        consumer = Passes(env)
        consumer.queue.add("k", None)
        env.run()
        assert consumer.log == [] and consumer.queue.stats()["pending"] == 1
        consumer.queue.start()
        env.run()
        assert [key for _t, key, _p in consumer.log] == ["k"]

    def test_failed_passes_retry_on_the_backoff_then_succeed(self, env):
        consumer = Passes(env)
        consumer.failing["k"] = [UnavailableError("down"), ReproError("odd")]
        consumer.queue.start()
        consumer.queue.add("k", "ctx")
        env.run()
        # Pass, 0.01 s backoff, pass, 0.02 s backoff, pass: the payload
        # rides along with every retry.
        assert consumer.log == [
            (0.0, "k", "ctx"),
            (pytest.approx(0.011), "k", "ctx"),
            (pytest.approx(0.032), "k", "ctx"),
        ]
        assert len(consumer.dead) == 0

    def test_a_key_failing_past_the_cap_is_dead_lettered(self, env):
        consumer = Passes(env, max_requeues=2)
        consumer.failing["k"] = [UnavailableError("down")] * 9
        consumer.queue.start()
        consumer.queue.add("k", None)
        env.run()
        assert len(consumer.log) == 3
        [letter] = consumer.dead
        assert (letter.key, letter.attempts, letter.source) == (
            "k", 3, "passes")
        assert "down" in letter.error

    def test_a_poison_key_has_its_own_smaller_cap(self, env):
        consumer = Passes(env, max_requeues=100, poison_requeues=0)
        consumer.failing["poison"] = [NotFoundError("gone")] * 9
        consumer.failing["raced"] = [ConflictError("raced")] * 3
        consumer.queue.start()
        consumer.queue.add("poison", None)
        consumer.queue.add("raced", None)
        env.run()
        # The poison key is parked on its first failure; the conflicting
        # one rides its three failures out and then passes.
        assert [key for _t, key, _p in consumer.log] == [
            "poison", "raced", "raced", "raced", "raced"]
        [letter] = consumer.dead
        assert (letter.key, letter.attempts) == ("poison", 1)

    def test_a_pending_key_keeps_its_place_when_marked_again(self, env):
        consumer = Passes(env)
        for key in "abc":
            consumer.queue.add(key, 1)
        consumer.queue.add("a", 2)
        consumer.queue.requeue("b")
        consumer.queue.start()
        env.run()
        assert [(k, p) for _t, k, p in consumer.log] == [
            ("a", 2), ("b", 1), ("c", 1)]

    def test_a_full_queue_sheds_the_oldest_mark_even_if_re_marked(self, env):
        consumer = Passes(env, max_queue=2, overflow=SHED_OLDEST)
        consumer.queue.add("a", 1)
        consumer.queue.add("b", 1)
        consumer.queue.add("a", 2)  # keeps its place at the head
        consumer.queue.add("c", 1)
        consumer.queue.start()
        env.run()
        assert [k for _t, k, _p in consumer.log] == ["b", "c"]
        [letter] = consumer.dead
        assert (letter.key, letter.attempts) == ("a", 0)
        assert consumer.queue.stats()["shed"] == 1

    def test_requeue_of_an_idle_key_hands_the_pass_no_payload(self, env):
        consumer = Passes(env)
        consumer.queue.start()
        consumer.queue.add("k", "ctx")
        env.run()
        consumer.queue.requeue("k")  # a replayed dead letter, say
        env.run()
        assert [p for _t, _k, p in consumer.log] == ["ctx", None]

    def test_anything_but_a_repro_error_ends_the_run(self, env):
        consumer = Passes(env)
        consumer.failing["k"] = [KeyError("bug")]
        consumer.queue.start()
        consumer.queue.add("k", None)
        with pytest.raises(KeyError):
            env.run()

    def test_clear_cancels_a_scheduled_retry(self, env):
        consumer = Passes(env)
        consumer.failing["k"] = [UnavailableError("down")]
        consumer.queue.start()
        consumer.queue.add("k", "stale")
        env.run(until=0.005)  # failed; its retry is due at 0.011
        consumer.queue.clear()
        env.run()
        assert [p for _t, _k, p in consumer.log] == ["stale"]


# -- brown-outs right after a commit -----------------------------------------


def heal_later(env, server, after=BROWN_OUT):
    server.set_available(False)

    def heal():
        yield env.timeout(after)
        server.set_available(True)

    env.process(heal())


def replay(integrator):
    """What an operator does once the store is back: every dead letter
    through the public ``requeue``, nothing but its key to go on."""
    for letter in integrator.dead_letters.clear():
        integrator.queue.requeue(letter.key)


MOTION = "schema: Home/v1/Motion/Readings\ntriggered: boolean\ndevice: string\n"
HOUSE = ("schema: Home/v1/House/Readings\nmotion: boolean # +kr: ingest\n"
         "device: string # +kr: ingest\n")


def motion_sync(env, net, call):
    """Three motion readings just loaded; a Sync flow moves the two
    triggered ones into the house log."""
    runtime = KnactorRuntime(env, network=net)
    lake = LogLake(env, net, watch_overhead=0.0)
    de = LogDE(env, lake)
    runtime.add_exchange("log", de)
    runtime.add_knactor(Knactor("motion", [StoreBinding("log", "log", MOTION)]))
    runtime.add_knactor(Knactor("house", [StoreBinding("log", "log", HOUSE)]))
    de.grant("home-sync", "knactor-motion-log", role="integrator")
    de.grant("home-sync", "knactor-house-log", role="integrator")
    sync = Sync("home-sync", flows=[Flow(
        source="knactor-motion-log", target="knactor-house-log",
        pipeline=Pipeline().filter("triggered == True")
        .rename("triggered", "motion").cut("motion", "device"),
    )])
    runtime.add_integrator(sync)
    runtime.start()
    call(runtime.handle_of("motion", "log").load([
        {"triggered": True, "device": "d1"},
        {"triggered": False, "device": "d2"},
        {"triggered": True, "device": "d3"},
    ]))
    return runtime, lake, sync


def moved_devices(runtime, call):
    return sorted(r["device"]
                  for r in call(runtime.handle_of("house", "log").query()))


def test_sync_moves_each_record_once_across_a_brownout(env, net, call):
    runtime, lake, sync = motion_sync(env, net, call)
    heal_later(env, lake)  # the flow's source query lands in the outage
    env.run()
    assert moved_devices(runtime, call) == ["d1", "d3"]
    assert sync.stats()["flows"][0]["records_moved"] == 2
    assert sync.stats()["dead_letters"] == 0


def test_a_dead_lettered_sync_range_replays_from_its_key(env, net, call):
    runtime, lake, sync = motion_sync(env, net, call)
    heal_later(env, lake, after=120.0)  # longer than the flow rides out
    env.run()
    [letter] = sync.dead_letters
    assert letter.key == ("knactor-motion-log", "knactor-house-log", 0, 3)
    assert letter.attempts == RIDE_OUT + 1
    assert moved_devices(runtime, call) == []
    replay(sync)  # the range is past next_seq: only the key brings it back
    env.run()
    assert moved_devices(runtime, call) == ["d1", "d3"]
    assert sync.stats()["dead_letters"] == 0


READINGS = "schema: Home/v1/Meter/Readings\nkwh: number\n"
DASHBOARD = ("schema: Home/v1/Dashboard/Panel\n"
             "totalKwh: number # +kr: external\n"
             "samples: number # +kr: external\n")


def meter_rollup(env, net, call):
    """Two meter readings just loaded; a Rollup rule sums them into the
    dashboard's ``main`` object."""
    runtime = KnactorRuntime(env, network=net)
    lake = LogLake(env, net, watch_overhead=0.0)
    log_de = LogDE(env, lake)
    object_de = ObjectDE(env, ApiServer(env, net, watch_overhead=0.0))
    runtime.add_exchange("log", log_de)
    runtime.add_exchange("object", object_de)
    runtime.add_knactor(Knactor("meter", [StoreBinding("log", "log", READINGS)]))
    runtime.add_knactor(Knactor("dashboard", [
        StoreBinding("default", "object", DASHBOARD)]))
    log_de.grant("rollup", "knactor-meter-log", role="reader")
    object_de.grant("rollup", "knactor-dashboard", role="integrator")
    rollup = Rollup("rollup", rules=[RollupRule(
        source="knactor-meter-log", target="knactor-dashboard",
        target_key="main", aggs={"totalKwh": "sum(kwh)", "samples": "count()"},
    )])
    runtime.add_integrator(rollup)
    runtime.start()
    call(runtime.handle_of("meter", "log").load([{"kwh": 1.5}, {"kwh": 2.0}]))
    return runtime, lake, rollup


def test_rollup_patches_the_aggregate_across_a_brownout(env, net, call):
    runtime, lake, rollup = meter_rollup(env, net, call)
    heal_later(env, lake)  # the rule's aggregation lands in the outage
    env.run()
    main = call(runtime.handle_of("dashboard").get("main"))["data"]
    assert main == {"totalKwh": 3.5, "samples": 2}
    assert rollup.stats()["dead_letters"] == 0


def test_a_dead_lettered_rollup_rule_replays_from_its_key(env, net, call):
    runtime, lake, rollup = meter_rollup(env, net, call)
    heal_later(env, lake, after=120.0)
    env.run()
    [letter] = rollup.dead_letters
    assert letter.attempts == RIDE_OUT + 1
    with pytest.raises(NotFoundError):
        call(runtime.handle_of("dashboard").get("main"))
    replay(rollup)
    env.run()
    main = call(runtime.handle_of("dashboard").get("main"))["data"]
    assert main == {"totalKwh": 3.5, "samples": 2}


SENSOR = "schema: App/v1/Sensor/Cfg\nvalue: number\n"
SENSOR_LOG = "schema: App/v1/Sensor/Readings\nvalue: number\n"


class Tally(Reconciler):
    """Writes one object per appended reading into its own Object store."""

    log_subscriptions = ("log",)

    def on_log_batch(self, ctx, local_name, records):
        for record in records:
            try:
                yield ctx.store.create(f"reading-{record['_seq']}",
                                       {"value": record["value"]})
            except AlreadyExistsError:
                pass  # handed again after a failed pass


def sensor_tally(env, net):
    runtime = KnactorRuntime(env, network=net)
    apiserver = ApiServer(env, net, watch_overhead=0.0)
    lake = LogLake(env, net, watch_overhead=0.0)
    runtime.add_exchange("object", ObjectDE(env, apiserver))
    runtime.add_exchange("log", LogDE(env, lake))
    tally = Tally("tally")
    runtime.add_knactor(Knactor("sensor", [
        StoreBinding("default", "object", SENSOR),
        StoreBinding("log", "log", SENSOR_LOG),
    ], reconciler=tally))
    runtime.start()
    return runtime, apiserver, lake, tally


def readings(runtime, call):
    return sorted((v["key"], v["data"]["value"])
                  for v in call(runtime.handle_of("sensor").list()))


def test_reconciler_log_batch_writes_across_a_brownout(env, net, call):
    runtime, apiserver, _lake, tally = sensor_tally(env, net)
    call(runtime.handle_of("sensor", "log").load(
        [{"value": 1.0}, {"value": 2.0}, {"value": 3.0}]))
    heal_later(env, apiserver)  # the handler's writes land in the outage
    env.run()
    assert readings(runtime, call) == [
        ("reading-0", 1.0), ("reading-1", 2.0), ("reading-2", 3.0)]
    assert tally.stats()["dead_letters"] == 0


def test_a_delivered_batch_is_handed_over_without_a_query(env, net, call):
    runtime, _apiserver, lake, tally = sensor_tally(env, net)
    log = runtime.handle_of("sensor", "log")
    call(log.load([{"value": 1.0}, {"value": 2.0}]))
    env.run()
    call(log.load([{"value": 3.0}]))
    env.run()
    assert lake.op_counts.get("query", 0) == 0
    # A catch-up has no records to hand over: it queries from the cursor.
    tally.kill()
    call(log.load([{"value": 4.0}]))  # loaded while nobody listens
    tally.restart()
    env.run()
    assert lake.op_counts["query"] == 1
    assert readings(runtime, call) == [
        ("reading-0", 1.0), ("reading-1", 2.0), ("reading-2", 3.0),
        ("reading-3", 4.0)]


def test_the_house_counts_each_reading_once_across_a_brownout(env, net, call):
    runtime = KnactorRuntime(env, network=net)
    apiserver = ApiServer(env, net, watch_overhead=0.0)
    runtime.add_exchange("object", ObjectDE(env, apiserver))
    runtime.add_exchange("log", LogDE(env, LogLake(env, net,
                                                   watch_overhead=0.0)))
    house = HouseReconciler()
    runtime.add_knactor(Knactor("house", [
        StoreBinding("default", "object", HOUSE_OBJECT),
        StoreBinding("log", "log", HOUSE_LOG),
    ], reconciler=house))
    runtime.start()
    call(runtime.handle_of("house", "log").load(
        [{"kwh": 0.25}, {"motion": True}, {"kwh": 0.5}]))
    heal_later(env, apiserver)  # the intensity write lands in the outage
    env.run()
    assert house.kwh_total == 0.75
    assert [motion for _ts, motion in house.motion_log] == [True]
    main = call(runtime.handle_of("house").get("main"))["data"]
    assert main["intensity"] == HouseReconciler.on_brightness
    assert house.stats()["dead_letters"] == 0


def receipter(env, net, call, fn):
    server = MemKV(env, net, watch_overhead=0.0)
    client = MemKVClient(server, "app")
    integrator = TxnFunctionIntegrator("receipter", client, fn,
                                       key_prefix="orders/")
    integrator.bind(None)
    integrator.start()
    call(client.create("orders/o1", {"cost": 42}))
    return server, client, integrator


def receipt(ctx, key):
    order = ctx.get(key)["data"]
    if order.get("receipted"):
        return None
    ctx.create(f"receipts/{key}", {"total": order["cost"]})
    ctx.patch(key, {"receipted": True})
    return key


def assert_receipted_once(client, call):
    receipts = call(client.list("receipts/"))
    assert [(v["key"], v["data"]) for v in receipts] == [
        ("receipts/orders/o1", {"total": 42})]
    assert call(client.get("orders/o1"))["data"]["receipted"] is True


def test_txn_function_receipts_once_across_a_brownout(env, net, call):
    server, client, integrator = receipter(env, net, call, receipt)
    heal_later(env, server)  # the fcall_txn lands in the outage
    env.run()
    assert_receipted_once(client, call)
    assert integrator.stats()["dead_letters"] == 0


def test_a_dead_lettered_txn_call_replays_from_its_key(env, net, call):
    server, client, integrator = receipter(env, net, call, receipt)
    heal_later(env, server, after=120.0)
    env.run()
    [letter] = integrator.dead_letters
    assert letter.key.startswith("receipter:orders/o1:")
    assert letter.attempts == RIDE_OUT + 1
    replay(integrator)
    env.run()
    assert_receipted_once(client, call)


def test_a_txn_function_that_cannot_run_is_parked_at_once(env, net, call):
    def needs_config(ctx, key):
        ctx.get("config/receipts")  # never created
        return receipt(ctx, key)

    _server, client, integrator = receipter(env, net, call, needs_config)
    env.run()
    assert integrator.invocations == 1
    [letter] = integrator.dead_letters
    assert letter.attempts == 1 and "config/receipts" in letter.error
    call(client.create("config/receipts", {}))  # the operator's fix
    replay(integrator)
    env.run()
    assert_receipted_once(client, call)


# -- a kill drops each key's causal parent with the key ----------------------


def spans_after(runtime, name, when, **attrs):
    return [span for span in runtime.tracer.spans.values()
            if span.name == name and span.start >= when
            and all(span.attrs.get(k) == v for k, v in attrs.items())]


def traced_creates(runtime, handle, objects):
    root = runtime.tracer.new_trace("test", service="test")
    with use(root):
        writes = [handle.create(key, data) for key, data in objects]
    return runtime.env.all_of(writes)


class Slow(Reconciler):
    service_time = 0.01

    def __init__(self):
        super().__init__("slow")
        self.seen = []

    def reconcile(self, ctx, key, obj):
        self.seen.append(key)


def test_reconciler_kill_drops_the_pending_causal_parent(env, net):
    runtime = KnactorRuntime(env, network=net)
    runtime.add_exchange("object", ObjectDE(
        env, ApiServer(env, net, watch_overhead=0.0)))
    rec = Slow()
    runtime.add_knactor(Knactor("svc", [StoreBinding("default", "object",
                                                     SENSOR)], reconciler=rec))
    runtime.start()
    env.run(until=traced_creates(runtime, runtime.handle_of("svc"),
                                 [("a", {"value": 1}), ("b", {"value": 2})]))
    env.run(until=env.now + 0.001)  # a reconciling, b waiting behind it
    rec.kill()
    killed_at = env.now
    env.run(until=env.now + 0.1)
    rec.restart()
    env.run()
    assert "b" in rec.seen
    # The resync pass for b has no pre-kill commit to hang off.
    assert spans_after(runtime, "reconcile", killed_at, key="b") == []


def test_cast_kill_drops_the_pending_causal_parent(env, net, call):
    runtime = KnactorRuntime(env, network=net)
    de = ObjectDE(env, ApiServer(env, net, watch_overhead=0.0))
    runtime.add_exchange("object", de)
    runtime.add_knactor(Knactor("src", [StoreBinding(
        "default", "object", "schema: A/v1/Src/S\nv: number\n")]))
    runtime.add_knactor(Knactor("dst", [StoreBinding(
        "default", "object", "schema: A/v1/Dst/D\ncopy: number # +kr: external\n")]))
    de.grant("c", "knactor-src", role="integrator")
    de.grant("c", "knactor-dst", role="integrator")
    cast = Cast("c", "Input:\n  A: A/v1/Src/knactor-src\n"
                     "  B: A/v1/Dst/knactor-dst\nDXG:\n  B:\n    copy: A.v * 2\n")
    runtime.add_integrator(cast)
    runtime.start()
    env.run(until=traced_creates(runtime, runtime.handle_of("src"),
                                 [("x", {"v": 1}), ("y", {"v": 2})]))
    env.run(until=env.now + 0.0001)  # x exchanging, y waiting behind it
    cast.kill()
    killed_at = env.now
    env.run(until=env.now + 0.1)
    cast.restart()
    env.run()
    assert call(runtime.handle_of("dst").get("y"))["data"]["copy"] == 4
    # The catch-up exchange for y has no pre-kill commit to hang off.
    assert spans_after(runtime, "exchange", killed_at, cid="y") == []
