"""The unified observability plane (paper §5).

"Deployment issues such as ... observability, such as monitoring knactor
SLOs through distributed tracing and telemetry, are also worth
exploring."  Data-centric composition replaces the RPC call-chain with
state flowing through Data Exchanges, so classic request tracing has
nothing to hook: services never call each other.  This package restores
end-to-end visibility from the data plane itself:

- :mod:`repro.obs.context` -- a :class:`TraceContext` carried on every
  store write, stamped into watch/delta events, WAL records, pub/sub
  messages and RPC calls, and re-attached when reconcilers and
  integrators read state and write downstream;
- :mod:`repro.obs.causal` -- the :class:`CausalTracer` that records each
  context as one span (:class:`CausalSpan`) of a per-request causal DAG;
- :mod:`repro.obs.registry` -- labeled counters/gauges/histograms with
  sim-time-aware windowing behind one ``Registry.snapshot()``;
- :mod:`repro.obs.plane` -- the :class:`ObsPlane` tying both to a
  running :class:`~repro.core.runtime.KnactorRuntime`;
- :mod:`repro.obs.slo` -- declarative :class:`SLOSpec` objectives over
  the registry (latency percentiles, availability, watch-lag freshness)
  with multi-window burn-rate alerting and trace exemplars.
"""

from repro.obs.causal import CausalSpan, CausalTracer
from repro.obs.context import (
    TraceContext,
    activate,
    bind_generator,
    current_context,
    restore,
    span_process,
    use,
)
from repro.obs.plane import ObsPlane
from repro.obs.registry import Registry
from repro.obs.slo import (
    AvailabilitySLO,
    BurnRateTracker,
    BurnWindow,
    FreshnessSLO,
    LatencySLO,
    SLOReport,
    SLOResult,
    SLOSpec,
    TraceLatencySLO,
)

__all__ = [
    "AvailabilitySLO",
    "BurnRateTracker",
    "BurnWindow",
    "CausalSpan",
    "CausalTracer",
    "FreshnessSLO",
    "LatencySLO",
    "ObsPlane",
    "Registry",
    "SLOReport",
    "SLOResult",
    "SLOSpec",
    "TraceContext",
    "TraceLatencySLO",
    "activate",
    "bind_generator",
    "current_context",
    "restore",
    "span_process",
    "use",
]
