"""The scale-out planes' claims, each asserted once: shard throughput,
watch fan-out batching, the zero-copy/delta state plane and the
workload fleet's SLO reports under overload.

Each exhibit is one cached sweep at a fixed seed and size; its claims
are the tests under it.  Everything runs on the deterministic sim
backend, so a bound that holds here holds on every run.
"""

import functools
import hashlib
import json
import random

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.cluster import Cluster, ShardFleet
from repro.core.optimizer import K_APISERVER, K_REDIS
from repro.flow import FlowConfig
from repro.load import (
    DiurnalArrivals,
    FlashCrowd,
    LoadGenerator,
    PoissonArrivals,
    TrafficClass,
    ZipfKeys,
)
from repro.load.scenarios import RetailLoadScenario, SensorFleetLoadScenario
from repro.obs.slo import BurnRateTracker, evaluate
from repro.simnet import Environment, Network
from repro.store import (
    AutoscalePolicy,
    MemKV,
    ShardedStore,
    ShardedStoreClient,
    Topology,
)

STORES = ("knactor-checkout", "knactor-shipping", "knactor-payment")


def watch_checkout(app, watchers):
    """``watchers`` read-only Checkout watchers; returns watcher index ->
    key -> [(type, revision), ...] as they deliver."""
    observed = {}
    for index in range(watchers):
        principal = f"watcher-{index}"
        app.de.grant(principal, "knactor-checkout", role="reader")
        handle = app.de.handle("knactor-checkout", principal=principal)
        seen = observed.setdefault(index, {})

        def recorder(event, seen=seen):
            seen.setdefault(event.key, []).append((event.type, event.revision))

        handle.watch(recorder)
    return observed


def order_burst(app, batch):
    """Every order of ``batch`` placed at once, each from its own process."""
    def submit(key, data):
        yield app.place_order(key, data)

    burst = [app.env.process(submit(key, data)) for key, data in batch]
    app.env.run(until=app.env.all_of(burst))


def patch_burst(app, keys, rounds):
    """Every key's email patched ``rounds`` times, all in flight at once
    (the server worker serializes the commits)."""
    owner = app.runtime.handle_of("checkout")
    burst = [owner.patch(key, {"email": f"shopper+{round_}@example.com"})
             for round_ in range(rounds) for key in keys]
    app.env.run(until=app.env.all_of(burst))


def state_digest(app, with_revisions):
    state = []
    for store in STORES:
        handle = app.de.handle(store, principal=app.de.store(store).owner)
        for view in app.env.run(until=handle.list()):
            row = (store, view["key"], view["revision"], view["data"])
            state.append(row if with_revisions else row[:2] + row[3:])
    return hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()).hexdigest()


# -- shard count vs op throughput ---------------------------------------------

SHARD_SEED = 11
SHARD_COUNTS = (1, 4)
THROUGHPUT_ORDERS = 32


def shard_case(shards):
    """One concurrent create burst against ``shards`` hash-sharded
    apiserver backends: (backend ops per virtual second over the burst
    window, orders fulfilled once the flow settles)."""
    app = RetailKnactorApp.build(
        profile=K_APISERVER, with_notify=False, seed=SHARD_SEED,
        topology=Topology(shards=shards) if shards > 1 else None,
    )
    batch = OrderWorkload(seed=SHARD_SEED).orders(THROUGHPUT_ORDERS)
    ops_before = sum(app.de.backend.op_counts.values())
    started = app.env.now
    order_burst(app, batch)
    window = app.env.now - started
    ops = sum(app.de.backend.op_counts.values()) - ops_before
    # Fulfilment is carrier-bound, not store-bound, so it is outside the
    # throughput window on purpose.
    app.run_until_quiet(max_seconds=300.0)
    fulfilled = sum(
        app.env.run(until=app.order(key))["data"]["status"] == "fulfilled"
        for key in app.orders_placed)
    return ops / window, fulfilled


@functools.cache
def shard_throughput():
    return {shards: shard_case(shards) for shards in SHARD_COUNTS}


def test_four_shards_double_throughput():
    runs = shard_throughput()
    (one, one_fulfilled), (four, four_fulfilled) = runs[1], runs[4]
    assert four / one >= 2.0, (
        f"4 shards gave only {four / one:.2f}x over 1 "
        f"({four:.0f} vs {one:.0f} ops/sec)")
    assert one_fulfilled == four_fulfilled == THROUGHPUT_ORDERS


# -- watch fan-out vs batched delivery ----------------------------------------

FANOUT = 16
FANOUT_ORDERS = 8
FANOUT_PATCH_ROUNDS = 6
BATCH_WINDOW = 0.005


def fanout_case(batch_window):
    """A patch burst under ``FANOUT`` Checkout watchers: the burst's
    watch messages and events, the final state's digest, and each
    watcher's per-key event sequence over the burst."""
    app = RetailKnactorApp.build(
        profile=K_REDIS, with_notify=False, seed=SHARD_SEED,
        watch_batch_window=batch_window,
    )
    observed = watch_checkout(app, FANOUT)
    keys = []
    for key, data in OrderWorkload(seed=SHARD_SEED).orders(FANOUT_ORDERS):
        app.env.run(until=app.place_order(key, data))
        keys.append(key)
    app.run_until_quiet(max_seconds=120.0)

    backend = app.de.backend
    messages_before = backend.watch_messages_sent
    events_before = backend.watch_events_sent
    # Delivery timing feeds back into the integrator-driven flow, so
    # pre-burst commit interleavings may differ between batch windows.
    # The burst is driver-issued traffic whose per-key order must not.
    cut = {index: {key: len(seq) for key, seq in seen.items()}
           for index, seen in observed.items()}
    patch_burst(app, keys, FANOUT_PATCH_ROUNDS)
    app.run_until_quiet(max_seconds=60.0)
    return {
        "messages": backend.watch_messages_sent - messages_before,
        "events": backend.watch_events_sent - events_before,
        "digest": state_digest(app, with_revisions=True),
        "event_orders": {
            index: {key: seq[cut[index].get(key, 0):]
                    for key, seq in seen.items()}
            for index, seen in observed.items()},
    }


@functools.cache
def fanout_batching():
    return fanout_case(0.0), fanout_case(BATCH_WINDOW)


def test_batching_cuts_messages_without_changing_state():
    unbatched, batched = fanout_batching()
    reduction = unbatched["messages"] / batched["messages"]
    assert reduction >= 3.0, (
        f"batched fan-out reduced messages only {reduction:.2f}x "
        f"at fanout {FANOUT}")
    # Same events, fewer envelopes.
    assert unbatched["events"] == batched["events"]
    assert unbatched["digest"] == batched["digest"], (
        "batching changed the final store state")
    assert unbatched["event_orders"] == batched["event_orders"], (
        "batching changed per-key event order")


# -- the zero-copy/delta state plane ------------------------------------------

ZERO_COPY_SEED = 17
#: (name, zero_copy, delta_watch) -- deepcopy first: it is the baseline.
MODES = (
    ("deepcopy", False, False),
    ("cow", True, False),
    ("cow+delta", True, True),
)
ZERO_COPY_ORDERS = 8
ZERO_COPY_PATCH_ROUNDS = 5
#: Every committed event fans out to each watcher, so snapshot copies
#: (deepcopy) and full snapshots on the wire (no delta) scale with this.
ZERO_COPY_WATCHERS = 6


def plane_case(zero_copy, delta_watch, shards):
    """An order burst, then a patch burst of small field changes against
    full-grown orders (the delta plane's best case, and the shape of
    steady-state reconciliation traffic), under one state plane."""
    app = RetailKnactorApp.build(
        profile=K_APISERVER, with_notify=False, seed=ZERO_COPY_SEED,
        topology=Topology(shards=shards) if shards > 1 else None,
        zero_copy=zero_copy, delta_watch=delta_watch,
    )
    observed = watch_checkout(app, ZERO_COPY_WATCHERS)
    batch = OrderWorkload(seed=ZERO_COPY_SEED).orders(ZERO_COPY_ORDERS)
    order_burst(app, batch)
    app.run_until_quiet(max_seconds=300.0)
    patch_burst(app, list(app.orders_placed), ZERO_COPY_PATCH_ROUNDS)
    app.run_until_quiet(max_seconds=120.0)
    # Traffic first: the measured copies and watch bytes stop at the
    # patch burst, before the digest's own LIST copies (4,812 bytes under
    # deepcopy, none under cow).  At 1 shard the cut reads 282,765 /
    # 61,578 = 4.59x.
    backend = app.de.backend
    case = {
        "copied_bytes": backend.copy_stats["copied_bytes"],
        "wire_bytes": backend.watch_wire_bytes,
        "deltas": backend.watch_deltas_sent,
        "fulls": backend.watch_fulls_sent,
        "event_orders": observed,
    }
    case["digest"] = state_digest(app, with_revisions=False)
    return case


@functools.cache
def state_planes():
    """shards -> mode -> case."""
    return {
        shards: {mode: plane_case(zero_copy, delta_watch, shards)
                 for mode, zero_copy, delta_watch in MODES}
        for shards in SHARD_COUNTS
    }


def test_planes_observably_identical():
    for shards, cases in state_planes().items():
        baseline = cases["deepcopy"]
        for mode, case in cases.items():
            assert case["digest"] == baseline["digest"], (shards, mode)
            assert case["event_orders"] == baseline["event_orders"], (
                shards, mode)


def test_cow_delta_cuts_copied_bytes_3x():
    for shards, cases in state_planes().items():
        cut = (cases["deepcopy"]["copied_bytes"]
               / cases["cow+delta"]["copied_bytes"])
        assert cut >= 3.0, (
            f"shards={shards}: cow+delta cut copied bytes only "
            f"{cut:.2f}x (need >= 3x)")


def test_delta_cuts_wire_bytes_2x():
    for shards, cases in state_planes().items():
        cut = cases["deepcopy"]["wire_bytes"] / cases["cow+delta"]["wire_bytes"]
        assert cut >= 2.0, (
            f"shards={shards}: delta watch cut wire bytes only "
            f"{cut:.2f}x (need >= 2x)")


def test_deltas_dominate_the_stream():
    for cases in state_planes().values():
        for mode, case in cases.items():
            if mode != "cow+delta":
                assert case["deltas"] == 0
                continue
            # Once anchored, the patch burst rides the delta chain.
            assert case["deltas"] > case["fulls"]


# -- the workload fleet under a flash crowd -----------------------------------

FLEET_SEED = 29
FLEET_DEVICES = 100_000
FLEET_STEADY_RPS = 30.0
FLEET_SPIKE_RPS = 400.0
FLEET_DURATION = 2.5
RETAIL_BASE_RPS = 6.0
RETAIL_SPIKE_RPS = 120.0
RETAIL_DURATION = 2.5
#: Deliberately tight admission so the spike sheds: these exhibits
#: measure containment and reporting, not absolute capacity.
FLEET_FLOW = FlowConfig(
    admission_rate=60.0, admission_burst=20, admission_queue_high=4,
)
RETAIL_FLOW = FlowConfig(
    admission_rate=40.0, admission_burst=12, admission_queue_high=6,
)


def slo_run(scenario, classes, duration):
    """The load run's summary and the scenario's SLO report, its burn
    rates tracked while the load ran."""
    specs = scenario.slos()
    tracker = BurnRateTracker(
        scenario.env, scenario.registry, specs, interval=0.25,
    )
    tracker.start()
    result = LoadGenerator(scenario, classes, duration, seed=FLEET_SEED).run()
    tracker.stop()
    report = evaluate(specs, scenario.registry, tracker=tracker,
                      scenario=scenario.name, env=scenario.env)
    return result.summary(), report


def sensorfleet_run():
    """The 10^5-device sensor fleet, Zipf-hot, under a flash crowd."""
    scenario = SensorFleetLoadScenario(
        devices=FLEET_DEVICES, flow=FLEET_FLOW,
    )

    def keys():
        return ZipfKeys(FLEET_DEVICES, key_format="device-{:06d}")

    crowd = FlashCrowd(5.0, FLEET_SPIKE_RPS, FLEET_DURATION * 0.3,
                       FLEET_DURATION * 0.3)
    return slo_run(scenario, [
        TrafficClass("steady", PoissonArrivals(FLEET_STEADY_RPS),
                     keys=keys(), principal="fleet-steady"),
        TrafficClass("crowd", crowd, keys=keys(), principal="fleet-crowd"),
    ], FLEET_DURATION)


def retail_run():
    """The retail app under steady Poisson orders plus a flash crowd."""
    crowd = FlashCrowd(2.0, RETAIL_SPIKE_RPS, RETAIL_DURATION * 0.3,
                       RETAIL_DURATION * 0.25)
    return slo_run(RetailLoadScenario(flow=RETAIL_FLOW), [
        TrafficClass("orders", PoissonArrivals(RETAIL_BASE_RPS),
                     keys=ZipfKeys(64, key_format="sku-{:03d}")),
        TrafficClass("crowd", crowd,
                     keys=ZipfKeys(64, key_format="sku-{:03d}")),
    ], RETAIL_DURATION)


@functools.cache
def flash_crowd():
    """name -> (load summary, SLO report), plus a same-seed fleet rerun."""
    sensorfleet, repeat = sensorfleet_run(), sensorfleet_run()
    return {"sensorfleet": sensorfleet, "retail": retail_run()}, repeat


def test_flash_crowd_sheds_and_reports():
    load, _report = flash_crowd()[0]["sensorfleet"]
    assert load["rejected"] > 0, "tight admission must shed the spike"
    assert load["completed"] > 0


def test_violated_objectives_carry_exemplars():
    for name, (_load, report) in flash_crowd()[0].items():
        for result in report.results:
            if result.met or result.no_data:
                continue
            assert result.exemplars, (
                f"{name}: violated {result.name} has no trace exemplars")


def test_freshness_objective_evaluated():
    kinds = {result.kind: result for _load, report in flash_crowd()[0].values()
             for result in report.results}
    assert "freshness" in kinds
    assert kinds["freshness"].sample_count > 0


def test_same_seed_fleet_runs_are_identical():
    runs, (repeat, _report) = flash_crowd()
    first, _report = runs["sensorfleet"]
    assert first["fingerprint"] == repeat["fingerprint"]
    assert first["p99_s"] == repeat["p99_s"]


# -- the autoscaler under diurnal + flash-crowd writes ------------------------

SCALE_TROUGH_RPS = 40.0
#: The diurnal peak plus the spike must outrun one MemKV shard's service
#: rate, or worker-queue depth never crosses the scale target.
SCALE_PEAK_RPS = 2000.0
SCALE_PERIOD = 4.0
SCALE_SPIKE_RPS = 3000.0
SCALE_DURATION = 2.0


@functools.cache
def autoscaler_stress():
    """Unique-key creates against an autoscaled one-shard fleet, then a
    read-back of every acknowledged write."""
    env = Environment()
    network = Network(env)
    topology = Topology(
        shards=1, seed=FLEET_SEED, min_shards=1, max_shards=6,
        autoscale=AutoscalePolicy(target_queue_depth=2.0, interval=0.2,
                                  cooldown=0.4),
    )
    store = ShardedStore(
        topology=topology, name="bench-fleet-store",
        shard_factory=lambda i: MemKV(env, network,
                                      location=f"fleet-shard-{i}"))
    client = ShardedStoreClient(store, "bench")
    fleet = ShardFleet(Cluster(env), store)
    env.run(until=4.0)  # the initial shard pod comes up
    fleet.start()
    start = env.now

    rng = random.Random(f"{FLEET_SEED}/autoscaler/arrivals")
    arrivals = list(DiurnalArrivals(
        SCALE_TROUGH_RPS, SCALE_PEAK_RPS, SCALE_PERIOD,
    ).times(rng, SCALE_DURATION, start))
    arrivals.extend(FlashCrowd(
        10.0, SCALE_SPIKE_RPS, SCALE_DURATION * 0.5, SCALE_DURATION * 0.2,
    ).times(rng, SCALE_DURATION, start))
    arrivals.sort()
    written, failures = {}, []

    # Unique keys: two creates racing on one hot key would fail on
    # semantics, not capacity, and capacity is what this measures.
    def write(index):
        key = f"k/{index:06d}"
        try:
            yield client.create(key, {"v": index})
        except Exception as error:
            failures.append(type(error).__name__)
        else:
            written[key] = index

    def driver():
        in_flight = []
        for index, when in enumerate(arrivals):
            if when > env.now:
                yield env.timeout(when - env.now)
            in_flight.append(env.process(write(index)))
        yield env.all_of(in_flight)

    env.run(until=env.process(driver()))
    env.run(until=env.now + 10.0)  # drain and scale back down
    fleet.stop()
    mismatches = []

    def verify():
        for key, value in sorted(written.items()):
            obj = yield client.get(key)
            if obj["data"]["v"] != value:
                mismatches.append(key)

    env.process(verify())
    env.run(until=env.now + 10.0)
    events = fleet.autoscaler.events
    return {
        "scaling_events": len(events),
        "peak_shards": max((e.to_replicas for e in events),
                           default=store.shard_count),
        "mismatches": len(mismatches),
        "write_failures": len(failures),
    }


def test_autoscaler_scales_under_load():
    scale = autoscaler_stress()
    assert scale["scaling_events"] > 0
    assert scale["peak_shards"] > 1
    assert scale["mismatches"] == 0
    assert scale["write_failures"] == 0
