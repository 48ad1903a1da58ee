"""Workload-fleet benchmark: SLO reports under engineered overload.

Three measurements, written to ``BENCH_fleet.json``:

- **retail under flash crowd** -- the retail Knactor app driven by the
  :mod:`repro.load` open-loop generator: steady Poisson orders plus a
  flash-crowd spike, with the flow plane armed.  The scenario's SLO set
  (latency p99, availability, watch-lag freshness) is evaluated over the
  obs registry, with multi-window burn rates and causal trace exemplars
  on every violated objective.
- **sensor fleet under flash crowd** -- the DataX-style fleet (10^5
  Zipf-hot devices feeding the Log exchange through Sync) with tight
  admission control; the spike must shed, the report must show the
  reject rate, the freshness objective, and link exemplar trace ids.
- **autoscaler stress** -- the PR-7 :class:`~repro.cluster.ShardFleet`
  fed diurnal + flash-crowd arrivals; the fleet must scale up under the
  spike and land back, with zero lost writes.

All three run on the deterministic sim backend, so two same-seed runs
are bit-identical, which the sweep asserts.

Run directly (``python benchmarks/bench_fleet.py [--smoke]``) or under
pytest (``pytest benchmarks/bench_fleet.py``).
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.cluster import Cluster, ShardFleet
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

SEED = 29
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

#: Sensor-fleet scenario: device cardinality and offered load.
FLEET_DEVICES = 100_000
FLEET_STEADY_RPS = 30.0
FLEET_SPIKE_RPS = 400.0
FLEET_DURATION = 4.0
SMOKE_FLEET_DURATION = 2.5

#: Retail scenario: order arrival shape.
RETAIL_BASE_RPS = 6.0
RETAIL_SPIKE_RPS = 120.0
RETAIL_DURATION = 4.0
SMOKE_RETAIL_DURATION = 2.5

#: Deliberately tight admission so the spike genuinely sheds: the bench
#: measures *containment + reporting*, not absolute capacity.
FLEET_FLOW = FlowConfig(
    admission_rate=60.0, admission_burst=20, admission_queue_high=4,
)
RETAIL_FLOW = FlowConfig(
    admission_rate=40.0, admission_burst=12, admission_queue_high=6,
)

#: Autoscaler stress: write arrival shape against one initial shard.
#: The diurnal peak plus the spike must outrun a single MemKV shard's
#: service rate, or worker-queue depth never crosses the scale target.
SCALE_TROUGH_RPS = 40.0
SCALE_PEAK_RPS = 2000.0
SCALE_PERIOD = 4.0
SCALE_SPIKE_RPS = 3000.0
SCALE_DURATION = 4.0
SMOKE_SCALE_DURATION = 2.0


def _case_from(scenario, result, specs, tracker):
    """One scenario's slice of the artifact: load summary + SLO report."""
    report = evaluate(
        specs, scenario.registry, tracker=tracker,
        scenario=scenario.name, env=scenario.env,
    )
    violated = report.violated()
    return {
        "load": result.summary(),
        "slo_report": report.to_json(),
        "violations": [r.name for r in violated],
        "violations_with_exemplars": sum(
            1 for r in violated if r.exemplars
        ),
        "alerts": [
            {"slo": spec.name, **window}
            for spec in specs
            for window in tracker.burn_rates(spec)
            if window["alert"]
        ] if tracker is not None else [],
    }


def run_sensorfleet(smoke=False, seed=SEED):
    duration = SMOKE_FLEET_DURATION if smoke else FLEET_DURATION
    scenario = SensorFleetLoadScenario(
        devices=FLEET_DEVICES, flow=FLEET_FLOW,
    )
    keys = lambda: ZipfKeys(FLEET_DEVICES, key_format="device-{:06d}")
    classes = [
        TrafficClass("steady", PoissonArrivals(FLEET_STEADY_RPS),
                     keys=keys(), principal="fleet-steady"),
        TrafficClass(
            "crowd",
            FlashCrowd(5.0, FLEET_SPIKE_RPS, duration * 0.3, duration * 0.3),
            keys=keys(), principal="fleet-crowd",
        ),
    ]
    specs = scenario.slos()
    tracker = BurnRateTracker(
        scenario.env, scenario.registry, specs, interval=0.25,
    )
    tracker.start()
    result = LoadGenerator(scenario, classes, duration, seed=seed).run()
    tracker.stop()
    case = _case_from(scenario, result, specs, tracker)
    case["analytics_records_seen"] = len(scenario.app.analytics_seen)
    return case


def run_retail(smoke=False, seed=SEED):
    duration = SMOKE_RETAIL_DURATION if smoke else RETAIL_DURATION
    scenario = RetailLoadScenario(flow=RETAIL_FLOW)
    classes = [
        TrafficClass("orders", PoissonArrivals(RETAIL_BASE_RPS),
                     keys=ZipfKeys(64, key_format="sku-{:03d}")),
        TrafficClass(
            "crowd",
            FlashCrowd(2.0, RETAIL_SPIKE_RPS, duration * 0.3,
                       duration * 0.25),
            keys=ZipfKeys(64, key_format="sku-{:03d}"),
        ),
    ]
    specs = scenario.slos()
    tracker = BurnRateTracker(
        scenario.env, scenario.registry, specs, interval=0.25,
    )
    tracker.start()
    result = LoadGenerator(scenario, classes, duration, seed=seed).run()
    tracker.stop()
    return _case_from(scenario, result, specs, tracker)


def run_autoscaler_stress(smoke=False, seed=SEED):
    """Diurnal + flash-crowd writes against an autoscaled shard fleet."""
    import random

    duration = SMOKE_SCALE_DURATION if smoke else SCALE_DURATION
    env = Environment()
    network = Network(env)

    def factory(i):
        return MemKV(env, network, location=f"fleet-shard-{i}")

    topology = Topology(
        shards=1, seed=seed, min_shards=1, max_shards=6,
        autoscale=AutoscalePolicy(target_queue_depth=2.0, interval=0.2,
                                  cooldown=0.4),
    )
    store = ShardedStore(topology=topology, shard_factory=factory,
                         name="bench-fleet-store")
    client = ShardedStoreClient(store, "bench")
    cluster = Cluster(env)
    fleet = ShardFleet(cluster, store)
    env.run(until=4.0)  # initial shard pod comes up
    fleet.start()
    start = env.now

    arrivals = []
    rng = random.Random(f"{seed}/autoscaler/arrivals")
    diurnal = DiurnalArrivals(SCALE_TROUGH_RPS, SCALE_PEAK_RPS, SCALE_PERIOD)
    arrivals.extend(diurnal.times(rng, duration, start))
    crowd = FlashCrowd(10.0, SCALE_SPIKE_RPS, duration * 0.5, duration * 0.2)
    arrivals.extend(crowd.times(rng, duration, start))
    arrivals.sort()

    written = {}
    failures = []

    # Unique keys: open-loop arrivals put concurrent writes in flight,
    # and two creates racing on one hot key would fail on semantics
    # rather than capacity -- capacity is what this case measures.
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
            delay = when - env.now
            if delay > 0:
                yield env.timeout(delay)
            in_flight.append(env.process(write(index)))
        yield env.all_of(in_flight)

    env.run(until=env.process(driver()))
    env.run(until=env.now + 10.0)  # drain + scale back down
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
        "writes_offered": len(arrivals),
        "writes_acked": len(written),
        "write_failures": len(failures),
        "scaling_events": len(events),
        "peak_shards": max((e.to_replicas for e in events),
                           default=store.shard_count),
        "final_shards": store.shard_count,
        "reshards_driven": fleet.reshards_driven,
        "mismatches": len(mismatches),
        "virtual_seconds": env.now - start,
    }


# -- the sweep -------------------------------------------------------------


def run_sweep(smoke=False):
    sensorfleet = run_sensorfleet(smoke)
    sensorfleet_repeat = run_sensorfleet(smoke)
    retail = run_retail(smoke)
    autoscaler = run_autoscaler_stress(smoke)
    violated = (sensorfleet["violations"] + retail["violations"])
    with_exemplars = (sensorfleet["violations_with_exemplars"]
                      + retail["violations_with_exemplars"])
    return {
        "schema": 1,
        "bench": "fleet",
        "seed": SEED,
        "smoke": smoke,
        "scenarios": {
            "retail": retail,
            "sensorfleet": sensorfleet,
        },
        "autoscaler": autoscaler,
        "violations": violated,
        "violations_with_exemplars": with_exemplars,
        "deterministic": (
            sensorfleet["load"]["fingerprint"]
            == sensorfleet_repeat["load"]["fingerprint"]
            and sensorfleet["load"]["p99_s"]
            == sensorfleet_repeat["load"]["p99_s"]
        ),
    }


def write_results(results, path=OUTPUT):
    path = Path(path)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def describe(results):
    lines = ["workload fleet: SLO reports under flash-crowd load"]
    lines.append(
        f"{'scenario':>12} {'offered':>8} {'ok':>6} {'rej':>6} "
        f"{'p50 ms':>8} {'p99 ms':>8} {'violations':>11}"
    )
    for name, case in sorted(results["scenarios"].items()):
        load = case["load"]
        lines.append(
            f"{name:>12} {load['offered']:>8} {load['completed']:>6} "
            f"{load['rejected']:>6} {load['p50_s'] * 1000:>8.2f} "
            f"{load['p99_s'] * 1000:>8.2f} "
            f"{len(case['violations']):>11}"
        )
        for entry in case["slo_report"]["objectives"]:
            status = "MET" if entry["met"] else "VIOLATED"
            exemplar = ""
            if entry["exemplars"]:
                exemplar = f" exemplar={entry['exemplars'][0]['trace_id']}"
            lines.append(f"{'':>14}{entry['name']}: {status}{exemplar}")
    scale = results["autoscaler"]
    lines.append(
        f"autoscaler: {scale['writes_acked']}/{scale['writes_offered']} "
        f"writes, {scale['scaling_events']} scaling events, peak "
        f"{scale['peak_shards']} shards, {scale['mismatches']} mismatches"
    )
    lines.append(f"deterministic: {results['deterministic']}")
    return "\n".join(lines)


# -- pytest surface --------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    """Module-scoped smoke sweep; also refreshes the artifact."""
    results = run_sweep(smoke=True)
    write_results(results)
    return results


def test_flash_crowd_sheds_and_reports(sweep):
    fleet = sweep["scenarios"]["sensorfleet"]["load"]
    assert fleet["rejected"] > 0, "tight admission must shed the spike"
    assert fleet["completed"] > 0


def test_violated_objectives_carry_exemplars(sweep):
    for name, case in sweep["scenarios"].items():
        for entry in case["slo_report"]["objectives"]:
            if entry["met"] or entry["no_data"]:
                continue
            assert entry["exemplars"], (
                f"{name}: violated {entry['name']} has no trace exemplars"
            )


def test_freshness_objective_evaluated(sweep):
    kinds = {e["kind"]: e for case in sweep["scenarios"].values()
             for e in case["slo_report"]["objectives"]}
    assert "freshness" in kinds
    assert kinds["freshness"]["sample_count"] > 0


def test_autoscaler_scales_under_load(sweep):
    scale = sweep["autoscaler"]
    assert scale["scaling_events"] > 0
    assert scale["peak_shards"] > 1
    assert scale["mismatches"] == 0
    assert scale["write_failures"] == 0


def test_deterministic(sweep):
    assert sweep["deterministic"] is True


# -- CLI -------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep for CI")
    parser.add_argument("--output", default=str(OUTPUT))
    args = parser.parse_args(argv)
    results = run_sweep(smoke=args.smoke)
    print(describe(results))
    out = write_results(results, args.output)
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
