"""``repro.flow`` -- the unified backpressure and admission-control plane.

Three mechanisms (see ``docs/api.md``):

- **credit-based watch flow control**: every watch carries a credit
  window; a server pauses fan-out when a consumer's credits run out,
  coalesces the paused events, and breaks the stream once the paused
  buffer is full, so the watcher's follower resyncs, instead of
  buffering without bound (:mod:`repro.store.watch`);
- **bounded queues with typed overflow policies**
  (:mod:`repro.flow.policy`): ``block | shed_oldest | shed_newest |
  reject``, adopted by :class:`repro.simnet.queue.Store`, the pub/sub
  broker, reconciler work queues, and RPC accept queues, with sheds
  counted and routed to the existing dead-letter queues;
- **admission control** (:mod:`repro.flow.admission`): a token-bucket +
  queue-depth AIMD limiter per principal with priority classes at the
  store-server front door, surfacing retryable
  :class:`~repro.errors.OverloadedError` that
  :class:`repro.faults.RetryPolicy` already understands.

:class:`FlowConfig` bundles the knobs an application turns on at build
time (``RetailKnactorApp.build(flow=True)``).
"""

from dataclasses import dataclass, field
from typing import ClassVar

from repro.flow.admission import (
    BULK,
    DEFAULT_CLASSES,
    INTEGRATOR,
    NORMAL,
    VIEW,
    AdmissionController,
    PriorityClass,
)
from repro.flow.policy import (
    BLOCK,
    OVERFLOW_POLICIES,
    REJECT,
    SHED_NEWEST,
    SHED_OLDEST,
    check_overflow,
)


@dataclass
class FlowConfig:
    """Application-level bundle of backpressure knobs.

    The defaults are sized for the retail app under ~10x nominal load:
    generous enough that nominal traffic never notices flow control,
    tight enough that overload degrades into sheds and admission
    rejections instead of unbounded queues.
    """

    #: Default credit window for every watch minted through an exchange
    #: handle (``None`` disables credit flow control).
    watch_credits: int = 64
    #: Reconciler dirty-key queue bound; a full queue sheds its oldest
    #: key to the DLQ.
    reconciler_queue: int = 512
    reconciler_overflow: ClassVar[str] = SHED_OLDEST
    #: Admission-control front door (see AdmissionController).
    admission_rate: float = 4000.0
    admission_burst: int = 256
    admission_queue_high: int = 24
    #: principal -> priority-class overrides.
    principals: dict = field(default_factory=dict)

    def build_admission(self, env):
        return AdmissionController(
            env,
            rate=self.admission_rate,
            burst=self.admission_burst,
            queue_high=self.admission_queue_high,
            principals=self.principals,
        )


__all__ = [
    "AdmissionController",
    "PriorityClass",
    "FlowConfig",
    "DEFAULT_CLASSES",
    "INTEGRATOR",
    "VIEW",
    "NORMAL",
    "BULK",
    "BLOCK",
    "SHED_OLDEST",
    "SHED_NEWEST",
    "REJECT",
    "OVERFLOW_POLICIES",
    "check_overflow",
]
