"""Latency series from the causal spans, and their summary statistics.

:func:`exchange_durations` / :func:`reconcile_durations` are the
distributed-tracing view of an integrator / a reconciler (spans exist
only with an observability plane attached);
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
    ``offered_rate`` is the requests/s offered, from the first request's
    start to the last (None where not measured).
    """

    setup: str
    stages: dict = field(default_factory=dict)
    offered_rate: float = field(default=None, init=False)

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
    """Durations of one Cast integrator's exchange spans that finished
    (``ok``) or were vetoed by an access policy (``denied``).  An
    exchange that failed on a store or diverged is not a latency
    sample: its cid goes back to the queue."""
    return [
        span.duration for span in tracer.spans.values()
        if span.name == "exchange" and span.service == integrator
        and span.attrs.get("outcome") in ("ok", "denied")
    ]


def reconcile_durations(tracer, knactor):
    """Durations of one knactor's reconcile passes that reconciled."""
    return [
        span.duration for span, _time, attrs in tracer.annotations("reconciled")
        if attrs.get("knactor") == knactor
    ]
