"""``fleet_ingest``: the DataX-style sensor fleet through the Log plane."""

from collections import Counter, defaultdict, deque

from repro.flow import FlowConfig
from repro.load import LoadGenerator, PoissonArrivals, TrafficClass, ZipfKeys
from repro.load.scenarios import SensorFleetLoadScenario

from benchmarks.perf.measure import digest
from benchmarks.perf.workloads.base import (
    CountingEnvironment,
    Outcome,
    Violations,
    Workload,
    server_counters,
)

ANALYTICS_STORE = "knactor-analytics-log"


class RecordingFleet(SensorFleetLoadScenario):
    """The fleet scenario, with the payload drawn here and written down.

    The reference aggregate must come from the generated inputs, not
    from anything the program reports, so the reading is drawn from the
    request stream in benchmark code and logged with its submit instant.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.submitted = []  # (device, temp_c, submit instant)

    def submit(self, cls, key, rng):
        temp_c = round(15.0 + 15.0 * rng.random(), 2)
        battery = round(rng.random(), 3)
        self.submitted.append((key, temp_c, self.env.now))
        return self.app.ingest(
            key, temp_c=temp_c, battery=battery, principal=cls.principal,
        )


class FleetIngest(Workload):
    name = "fleet_ingest"
    op_unit = "one record visible in the analytics store"
    loop = "open"
    tail_q = 0.99

    DEVICES = 100_000
    RATE = 200.0
    # Fixed: LogLake query scans are O(pool), so per-record cost grows
    # with the run length (705 us at 4k records, 1,020 us at 8k).
    DURATION = 20.0

    def size(self):
        return {"devices": self.DEVICES, "records_per_sim_s": self.RATE,
                "sim_seconds": self.DURATION * self.scale}

    def build(self, inputs):
        scenario = RecordingFleet(
            devices=self.DEVICES, flow=FlowConfig(),
            env=CountingEnvironment(),
        )
        app = scenario.app
        # The benchmark's own analytics consumer: when each record
        # became visible downstream of Sync.
        seen = []
        app.log_de.grant("bench-analytics", ANALYTICS_STORE, role="reader")
        app.log_de.handle(ANALYTICS_STORE, principal="bench-analytics").watch(
            lambda event: seen.extend(
                (record.get("device"), scenario.env.now)
                for record in (event.object or {}).get("records", ())
            )
        )
        classes = [TrafficClass(
            "devices", PoissonArrivals(self.RATE),
            keys=ZipfKeys(self.DEVICES, key_format="device-{:06d}"),
            principal="fleet-devices",
        )]
        generator = LoadGenerator(
            scenario, classes, self.DURATION * self.scale,
            seed=f"{self.seed}/{self.name}",
        )
        return {"scenario": scenario, "generator": generator, "seen": seen}

    def counters(self, ctx):
        app = ctx["scenario"].app
        return server_counters(
            [app.log_de.backend], app.runtime.network, app.log_de.retry_policy)

    def run(self, ctx):
        ctx["result"] = ctx["generator"].run()

    def finish(self, ctx):
        scenario = ctx["scenario"]
        app = scenario.app
        env = app.env
        events = env.steps
        result = ctx["result"]
        trace = result.classes["devices"]
        submitted = scenario.submitted
        violations = Violations()

        # Reference aggregate from the generated inputs alone.
        want = Counter(device for device, _t, _at in submitted)
        got = Counter(app.analytics_seen)
        correct = sum((want & got).values())
        violations.whole(
            want == got,
            f"analytics_seen differs from the inputs on "
            f"{len((want - got) + (got - want))} devices",
        )
        report = env.run(until=app.analytics_report())
        mean = (sum(t for _d, t, _at in submitted) / len(submitted)
                if submitted else 0.0)
        row = report[0] if report else {}
        violations.whole(
            row.get("readings") == len(submitted)
            and abs((row.get("mean_temp") or 0.0) - mean) < 1e-9,
            f"analytics report {row} != {len(submitted)} readings, "
            f"mean {mean}",
        )
        violations.whole(
            trace.outcomes.get("ok", 0) == len(submitted),
            f"load outcomes {trace.outcomes}",
        )

        # Ingest-to-visible lag: a device's records stay in order.
        pending = defaultdict(deque)
        for device, _t, at in submitted:
            pending[device].append(at)
        lag, last_seen = [], result.started_at
        for device, at in ctx["seen"]:
            if pending[device]:
                lag.append((at - pending[device].popleft()) * 1e3)
                last_seen = max(last_seen, at)
        first = submitted[0][2] if submitted else result.started_at

        return Outcome(
            attempted=len(submitted),
            correct=violations.correct(correct),
            digest=digest([
                sorted(got.items()), row, env.run(until=app.runtime.handle_of(
                    "analytics", "log").stats())["next_seq"],
            ]),
            events=events,
            sim_latencies_ms=[s * 1e3 for s in trace.latencies],
            sim_span_s=last_seen - first,
            sim={"sync_lag_ms": lag},
            errors=violations.texts,
        )
