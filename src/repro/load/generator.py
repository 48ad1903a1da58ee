"""Open-loop load driving: :class:`TrafficClass` + :class:`LoadGenerator`.

The generator composes a scenario (an app adapter from
:mod:`repro.load.scenarios`) with one or more traffic classes.  Each
class gets its own pair of seeded streams -- one for the arrival
schedule, one for request content (keys, payload sizes) -- so adding a
class never perturbs another class's draws, and the same ``seed``
reproduces the exact offered load on either backend.

Arrivals are open loop: a request is launched at its scheduled instant
whether or not earlier requests have completed.  Outcomes are recorded
into the scenario's obs registry as ``request_latency_seconds`` (with
the request's causal trace id attached as an exemplar) and
``requests_total`` labeled by outcome, which is exactly the surface the
:mod:`repro.obs.slo` objectives evaluate.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, OverloadedError


@dataclass
class TrafficClass:
    """One composable slice of offered load.

    ``arrivals`` shapes *when* requests land; ``keys`` shapes *what* they
    touch (pass a :class:`~repro.load.sampling.ZipfKeys`, or None for
    scenarios that pick their own keys); ``principal`` names the
    flow-plane identity the scenario should submit under.
    """

    name: str
    arrivals: object
    keys: object = None
    principal: str = None

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("traffic class needs a name")


@dataclass
class _ClassTrace:
    """Everything one class did during a run (for determinism tests)."""

    arrival_times: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)
    trace_ids: list = field(default_factory=list)


def _percentile(values, q):
    # Nearest-rank, not repro.obs.registry.percentile's interpolation:
    # its output is inside the pinned load fingerprints.
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


@dataclass
class LoadResult:
    """Outcome of one :meth:`LoadGenerator.run`."""

    scenario: str
    seed: int
    duration: float
    started_at: float
    finished_at: float
    classes: dict = field(init=False, default_factory=dict)

    def offered(self, cls=None):
        """Requests launched (for one class, or total)."""
        if cls is not None:
            return len(self.classes[cls].arrival_times)
        return sum(len(t.arrival_times) for t in self.classes.values())

    def outcome_counts(self):
        """``{outcome: count}`` summed across classes."""
        totals = {}
        for trace in self.classes.values():
            for outcome, count in trace.outcomes.items():
                totals[outcome] = totals.get(outcome, 0) + count
        return totals

    def latencies(self, cls=None):
        if cls is not None:
            return list(self.classes[cls].latencies)
        merged = []
        for trace in self.classes.values():
            merged.extend(trace.latencies)
        return merged

    def percentile(self, q, cls=None):
        return _percentile(self.latencies(cls), q)

    def fingerprint(self):
        """A digest of the *offered* load: schedule + key sequence.

        Two runs with the same seed must produce the same fingerprint on
        any machine and either backend -- this is the determinism
        contract the load tests pin.
        """
        payload = {
            name: {
                "arrivals": [round(t, 9) for t in trace.arrival_times],
                "keys": trace.keys,
            }
            for name, trace in sorted(self.classes.items())
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()

    def summary(self):
        counts = self.outcome_counts()
        total = sum(counts.values())
        window = self.finished_at - self.started_at
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "duration_s": self.duration,
            "offered": self.offered(),
            "completed": counts.get("ok", 0),
            "rejected": counts.get("rejected", 0),
            "failed": counts.get("failed", 0),
            "reject_rate": counts.get("rejected", 0) / total if total else 0.0,
            "throughput_rps": counts.get("ok", 0) / window if window else 0.0,
            "p50_s": self.percentile(0.50),
            "p99_s": self.percentile(0.99),
            "fingerprint": self.fingerprint(),
            "classes": {
                name: {
                    "offered": len(trace.arrival_times),
                    "outcomes": dict(trace.outcomes),
                    "p99_s": _percentile(trace.latencies, 0.99),
                }
                for name, trace in sorted(self.classes.items())
            },
        }


class LoadGenerator:
    """Drives one scenario with a set of traffic classes, open loop."""

    def __init__(self, scenario, classes, duration, seed=0):
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise ConfigurationError("traffic class names must be unique")
        if not classes:
            raise ConfigurationError("need at least one traffic class")
        self.scenario = scenario
        self.classes = list(classes)
        self.duration = float(duration)
        self.seed = seed

    # Stream naming: one independent Random per (class, purpose), keyed
    # by a readable path.  Adding a class, or drawing more from one
    # stream, can never shift another stream's sequence.
    def _rng(self, cls, purpose):
        return random.Random(
            f"{self.seed}/{self.scenario.name}/{cls.name}/{purpose}"
        )

    def schedule(self, cls):
        """The class's full arrival schedule, without running anything."""
        return list(
            cls.arrivals.times(self._rng(cls, "arrivals"), self.duration)
        )

    def key_sequence(self, cls, count):
        """The first ``count`` keys the class would draw, without running."""
        if cls.keys is None:
            return [None] * count
        rng = self._rng(cls, "requests")
        return [cls.keys.sample(rng) for _ in range(count)]

    def run(self):
        env = self.scenario.env
        result = LoadResult(
            scenario=self.scenario.name,
            seed=self.seed,
            duration=self.duration,
            started_at=env.now,
            finished_at=env.now,
        )
        in_flight = []
        drivers = [
            env.process(self._drive(env, cls, result, in_flight))
            for cls in self.classes
        ]
        env.run(until=env.all_of(drivers))
        if in_flight:
            env.run(until=env.all_of(in_flight))
        quiesce = getattr(self.scenario, "quiesce", None)
        if quiesce is not None:
            quiesce()
        result.finished_at = env.now
        return result

    def _drive(self, env, cls, result, in_flight):
        trace = result.classes.setdefault(cls.name, _ClassTrace())
        arrival_rng = self._rng(cls, "arrivals")
        request_rng = self._rng(cls, "requests")
        start = env.now
        for when in cls.arrivals.times(arrival_rng, self.duration, start):
            delay = when - env.now
            if delay > 0:
                yield env.timeout(delay)
            key = cls.keys.sample(request_rng) if cls.keys is not None else None
            trace.arrival_times.append(when - start)
            trace.keys.append(key)
            in_flight.append(
                env.process(self._request(env, cls, key, request_rng, trace))
            )

    def _request(self, env, cls, key, rng, trace):
        registry = self.scenario.registry
        labels = {"scenario": self.scenario.name, "cls": cls.name}
        started = env.now
        trace_id = None
        try:
            submission = self.scenario.submit(cls, key, rng)
            if isinstance(submission, tuple):
                event, trace_id = submission
            else:
                event = submission
            if event is not None:
                yield event
        except OverloadedError:
            outcome = "rejected"
        except Exception:
            outcome = "failed"
        else:
            outcome = "ok"
            latency = env.now - started
            trace.latencies.append(latency)
            if registry is not None:
                registry.histogram(
                    "request_latency_seconds", **labels
                ).observe(latency, exemplar=trace_id)
        trace.outcomes[outcome] = trace.outcomes.get(outcome, 0) + 1
        trace.trace_ids.append(trace_id)
        if registry is not None:
            registry.counter(
                "requests_total", outcome=outcome, **labels
            ).inc()
