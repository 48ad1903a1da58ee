"""Latency series from the trace stream, and their summary statistics.

:func:`exchange_durations` / :func:`reconcile_durations` are the
distributed-tracing view of an integrator / a reconciler;
:class:`StageBreakdown` carries Table 2's per-stage rows.
"""

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.registry import percentile


def summarize(values):
    """Mean / median / p99 / min / max of a list of durations."""
    if not values:
        raise ConfigurationError("no values to summarize")
    ordered = sorted(values)
    n = len(ordered)
    return {
        "mean": sum(ordered) / n,
        "p50": percentile(ordered, 0.50),
        "p99": percentile(ordered, 0.99),
        "min": ordered[0],
        "max": ordered[-1],
        "count": n,
    }


#: Table 2's stage columns, in the paper's order.
STAGES = ("C-I", "I", "I-S", "S", "Prop.", "Total")


@dataclass
class StageBreakdown:
    """Per-request stage durations for one experimental setup.

    ``stages`` maps stage name -> list of per-request durations; the
    stage names for the retail experiment are the paper's: ``C-I``,
    ``I``, ``I-S``, ``S`` (plus derived ``Prop.`` and ``Total``).
    """

    setup: str
    stages: dict = field(default_factory=dict)

    def add(self, stage, duration):
        self.stages.setdefault(stage, []).append(duration)

    def add_request(self, durations):
        """Record one request's full stage dict."""
        for stage, duration in durations.items():
            self.add(stage, duration)

    def mean(self, stage):
        values = self.stages.get(stage)
        if not values:
            return None
        return sum(values) / len(values)

    def summary(self, stage):
        return summarize(self.stages[stage])

    def count(self):
        if not self.stages:
            return 0
        return min(len(v) for v in self.stages.values())

    def row(self):
        """Mean per :data:`STAGES` stage in milliseconds, None for absent
        stages."""
        out = {"Setup": self.setup}
        for stage in STAGES:
            mean = self.mean(stage)
            out[stage] = None if mean is None else mean * 1000.0
        return out


def exchange_durations(tracer, integrator):
    """Per-exchange (begin -> end) durations for one Cast integrator.

    Matches each ``cast/begin`` with the next ``cast/end`` of the same
    correlation id, in trace order -- the span a distributed tracer
    would reconstruct.
    """
    open_begins = {}
    durations = []
    for event in tracer.events:
        if event.category != "cast" or event.attrs.get("integrator") != integrator:
            continue
        cid = event.attrs.get("cid")
        if event.name == "begin":
            open_begins.setdefault(cid, []).append(event.time)
        elif event.name in ("end", "denied") and open_begins.get(cid):
            started = open_begins[cid].pop(0)
            durations.append(event.time - started)
    return durations


def reconcile_durations(tracer, knactor):
    """Per-reconcile durations for one knactor's reconciler."""
    return [
        event.attrs["duration"]
        for event in tracer.events
        if event.category == "reconciler"
        and event.name == "reconciled"
        and event.attrs.get("knactor") == knactor
        and "duration" in event.attrs
    ]
