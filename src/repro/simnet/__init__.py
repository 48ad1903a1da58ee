"""Deterministic discrete-event simulation kernel.

``simnet`` is a small SimPy-flavoured kernel purpose-built for this
reproduction.  Every substrate in the repository (data stores, RPC channels,
pub/sub brokers, reconcilers, integrators) runs as processes on a shared
:class:`Environment` with a virtual clock, which makes latency experiments
deterministic, seedable, and orders of magnitude faster than wall-clock
execution.

Core concepts:

- :class:`Environment` -- the event loop and virtual clock.
- :class:`Event` -- a one-shot occurrence processes can wait on.
- :class:`Process` -- a generator-based coroutine; ``yield`` an event to
  suspend until it fires.
- :class:`Store` / :class:`Resource` -- blocking queue / counting semaphore.
- :class:`Link` / :class:`Network` -- message delivery with pluggable
  latency models.

Tracing lives in :mod:`repro.obs` (one :class:`~repro.obs.CausalTracer`
per run); the kernel itself records nothing.
"""

from repro.simnet.events import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)
from repro.simnet.process import Process
from repro.simnet.queue import Resource, Store
from repro.simnet.network import (
    ExponentialLatency,
    FixedLatency,
    LatencyModel,
    Link,
    LogNormalLatency,
    Network,
    UniformLatency,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "ExponentialLatency",
    "FixedLatency",
    "Interrupt",
    "LatencyModel",
    "Link",
    "LogNormalLatency",
    "Network",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
    "UniformLatency",
]
