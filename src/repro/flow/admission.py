"""Admission control for the data-exchange front door.

A :class:`AdmissionController` sits in front of a store server's worker
pool (:meth:`repro.store.base.StoreServer._handle`) and decides, per
request, whether the principal may enter the queue *right now*.  Two
mechanisms compose:

- **token bucket per priority class** -- each class accrues tokens at
  ``rate * share * scale`` per second of virtual time, up to ``burst``;
  a request spends one token or is rejected with a retryable
  :class:`~repro.errors.OverloadedError`;
- **queue-depth AIMD** -- ``scale`` is the class's congestion window:
  while the server's worker queue sits above ``queue_high`` the scale is
  cut multiplicatively (once per ``decrease_interval``), and while the
  queue is healthy it recovers additively.  Classes differ in their
  ``floor``: integrator traffic keeps at least half its rate through an
  overload, bulk readers are cut to near zero -- integrators outrank
  bulk readers exactly when it matters.

Everything is a pure function of virtual time and call order, so
admission decisions are bit-reproducible across seeded runs.
"""

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: The built-in priority classes.  ``share`` scales the class's token
#: rate at steady state; ``floor`` is the AIMD scale it can never be cut
#: below (the overload ranking: integrator >> view >> normal >> bulk).
INTEGRATOR = "integrator"
VIEW = "view"
NORMAL = "normal"
BULK = "bulk"


@dataclass(frozen=True)
class PriorityClass:
    """Rate share + congestion floor for one class of principals."""

    name: str
    share: float = 1.0
    floor: float = 0.1


DEFAULT_CLASSES = (
    PriorityClass(INTEGRATOR, share=1.0, floor=0.5),
    # Composed-view service principals: federated scatter reads and
    # materialized-view maintenance.  Above NORMAL (a congested store
    # that starves view maintenance makes every later read pay a
    # federated fan-out, amplifying the overload), below INTEGRATOR
    # (control loops keep the system converging).
    PriorityClass(VIEW, share=1.0, floor=0.3),
    PriorityClass(NORMAL, share=1.0, floor=0.1),
    PriorityClass(BULK, share=0.5, floor=0.02),
)


class _ClassState:
    """Mutable per-class limiter state (tokens + AIMD scale)."""

    __slots__ = ("spec", "tokens", "last_refill", "scale", "last_decrease",
                 "admitted", "rejected")

    def __init__(self, spec, burst, now):
        self.spec = spec
        self.tokens = float(burst)
        self.last_refill = now
        self.scale = 1.0
        self.last_decrease = -float("inf")
        self.admitted = 0
        self.rejected = 0


class AdmissionController:
    """Token-bucket + queue-depth AIMD limiter over one store server.

    Parameters
    ----------
    rate:
        Baseline admitted requests/second (virtual time) per class at
        full scale, before ``share`` and AIMD scaling.
    burst:
        Token-bucket depth: how far a quiet class may burst.
    queue_high:
        Worker-queue depth above which the AIMD cuts class scales.
    beta / alpha:
        Multiplicative-decrease factor and additive-increase rate
        (scale units per second) of the congestion window.
    decrease_interval:
        Minimum virtual time between two multiplicative cuts, so one
        congested instant does not zero the window.
    classes:
        Iterable of :class:`PriorityClass`; defaults to
        ``integrator``/``normal``/``bulk``.
    principals:
        Mapping of principal name -> class name; unlisted principals get
        ``default_class``.
    """

    def __init__(self, env, rate=2000.0, burst=64, queue_high=16,
                 beta=0.5, alpha=0.2, decrease_interval=0.05,
                 classes=DEFAULT_CLASSES, principals=None,
                 default_class=NORMAL):
        if rate <= 0 or burst <= 0:
            raise ConfigurationError(
                f"admission rate/burst must be positive, got {rate}/{burst}"
            )
        self.env = env
        self.rate = float(rate)
        self.burst = float(burst)
        self.queue_high = int(queue_high)
        self.beta = float(beta)
        self.alpha = float(alpha)
        self.decrease_interval = float(decrease_interval)
        self._classes = {}
        for spec in classes:
            self._classes[spec.name] = _ClassState(spec, burst, env.now)
        if default_class not in self._classes:
            raise ConfigurationError(
                f"default class {default_class!r} is not a configured class"
            )
        self.default_class = default_class
        self.principals = dict(principals or {})
        for cls in self.principals.values():
            if cls not in self._classes:
                raise ConfigurationError(
                    f"principal mapped to unknown class {cls!r}"
                )
        self.admitted = 0
        self.rejected = 0

    # -- principal -> class -------------------------------------------------

    def class_of(self, principal):
        return self.principals.get(principal, self.default_class)

    def assign(self, principal, class_name):
        """Bind ``principal`` to a priority class (idempotent)."""
        if class_name not in self._classes:
            raise ConfigurationError(f"unknown priority class {class_name!r}")
        self.principals[principal] = class_name

    def fresh(self):
        """A controller configured like this one, principal classes
        included, with full buckets: what a shard a reshard adds gets."""
        return AdmissionController(
            self.env, rate=self.rate, burst=self.burst,
            queue_high=self.queue_high, beta=self.beta, alpha=self.alpha,
            decrease_interval=self.decrease_interval,
            classes=[state.spec for state in self._classes.values()],
            principals=self.principals, default_class=self.default_class,
        )

    # -- the decision -------------------------------------------------------

    def admit(self, principal, queue_depth):
        """May ``principal`` enter a queue currently ``queue_depth`` deep?

        Spends one token on admit; counts the rejection otherwise.
        ``principal=None`` (an unattributed internal caller) is treated
        as the default class.
        """
        now = self.env.now
        state = self._classes[self.class_of(principal)]
        self._adjust(state, queue_depth, now)
        self._refill(state, now)
        if state.tokens >= 1.0:
            state.tokens -= 1.0
            state.admitted += 1
            self.admitted += 1
            return True
        state.rejected += 1
        self.rejected += 1
        return False

    def _refill(self, state, now):
        dt = now - state.last_refill
        if dt > 0:
            effective = self.rate * state.spec.share * state.scale
            state.tokens = min(self.burst, state.tokens + dt * effective)
        state.last_refill = now

    def _adjust(self, state, queue_depth, now):
        """AIMD on the observed queue depth (congestion signal)."""
        if queue_depth >= self.queue_high:
            if now - state.last_decrease >= self.decrease_interval:
                state.scale = max(state.spec.floor, state.scale * self.beta)
                state.last_decrease = now
        else:
            dt = now - state.last_refill
            if dt > 0:
                state.scale = min(1.0, state.scale + self.alpha * dt)

    # -- observability ------------------------------------------------------

    def stats(self):
        """Plain-data counters (scraped by the obs plane)."""
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "classes": {
                name: {
                    "admitted": state.admitted,
                    "rejected": state.rejected,
                    "scale": round(state.scale, 6),
                }
                for name, state in sorted(self._classes.items())
            },
        }

    def __repr__(self):
        return (f"<AdmissionController rate={self.rate} burst={self.burst} "
                f"queue_high={self.queue_high}>")
