"""Client-side resilience: retry policies and circuit breakers.

A :class:`RetryPolicy` wraps an *attempt factory* (a zero-argument
callable returning a fresh simnet process/event) and re-issues it through
transient failures with seeded-jitter exponential backoff, per-attempt
timeouts, an overall deadline, and an optional retry budget.  A
:class:`CircuitBreaker` sits in front of the attempts and fast-fails
(:class:`~repro.errors.CircuitOpenError`) once the target looks dead, so
a down dependency costs microseconds instead of full timeout chains.

Both are deterministic: backoff jitter comes from a ``random.Random``
seeded at construction, and all timing is virtual time.

At-least-once caveat: an attempt abandoned by the per-attempt timeout may
still complete server-side.  Retries are therefore only safe for
idempotent operations (all store ops here are; ``create`` retries may
surface :class:`~repro.errors.AlreadyExistsError`, which callers should
treat as success).
"""

import random

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    RPCStatusError,
)
from repro.obs.context import current_context

#: RPC status codes considered transient (kept as literals so this module
#: does not import :mod:`repro.rpc`).  ``RESOURCE_EXHAUSTED`` is the RPC
#: face of admission control / full accept queues: back off and retry.
_RETRYABLE_RPC_CODES = ("UNAVAILABLE", "DEADLINE_EXCEEDED",
                        "RESOURCE_EXHAUSTED")


def default_retryable(exc):
    """True when ``exc`` marks a transient, safe-to-retry failure."""
    if getattr(exc, "retryable", False):
        return True
    if isinstance(exc, RPCStatusError):
        return exc.code in _RETRYABLE_RPC_CODES
    return False


class CircuitBreaker:
    """Closed / open / half-open breaker over one logical dependency.

    ``record_failure`` counts *consecutive* transient failures; at
    ``failure_threshold`` the circuit opens and :meth:`allow` rejects
    calls until ``reset_timeout`` seconds of virtual time pass.  The
    first call after that runs as a half-open probe: success closes the
    circuit, failure re-opens it for another full window.
    """

    #: Probe calls let through while half-open.
    half_open_max = 1

    def __init__(self, env, failure_threshold=5, reset_timeout=0.25, name=""):
        self.env = env
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.name = name
        self.state = "closed"
        self.failures = 0
        self._opened_at = None
        self._probes = 0
        self.opened_count = 0
        self.rejected = 0

    def allow(self):
        """May a call proceed right now?  (Counts rejections.)"""
        if self.state == "open":
            if self.env.now - self._opened_at >= self.reset_timeout:
                self.state = "half_open"
                self._probes = 0
            else:
                self.rejected += 1
                return False
        if self.state == "half_open":
            if self._probes >= self.half_open_max:
                self.rejected += 1
                return False
            self._probes += 1
        return True

    def record_success(self):
        self.state = "closed"
        self.failures = 0

    def record_failure(self):
        self.failures += 1
        if self.state == "half_open" or (
            self.state == "closed" and self.failures >= self.failure_threshold
        ):
            self._trip()

    def _trip(self):
        self.state = "open"
        self._opened_at = self.env.now
        self.opened_count += 1

    def stats(self):
        return {
            "state": self.state,
            "opened": self.opened_count,
            "rejected": self.rejected,
        }

    def __repr__(self):
        return f"<CircuitBreaker {self.name or id(self):#x} {self.state}>"


class RetryPolicy:
    """Exponential backoff + jitter over an idempotent attempt factory.

    Parameters
    ----------
    max_attempts:
        Total tries, including the first (1 = no retries).
    base_backoff, max_backoff:
        Sleep before retry *n* is ``min(max_backoff,
        base_backoff * multiplier**(n-1))``, jittered.
    jitter:
        Each sleep is scaled by ``uniform(1 - jitter, 1 + jitter)`` from
        the policy's seeded RNG.
    attempt_timeout:
        Per-attempt deadline; a slower attempt is abandoned and raises
        :class:`~repro.errors.DeadlineExceededError` (itself retryable).
    deadline:
        Overall wall-clock (virtual) budget across all attempts.
    budget:
        Maximum *retries* (excluding first attempts) this policy instance
        may spend across all operations sharing it -- a global retry
        budget preventing retry storms.  ``None`` = unlimited.

    Which failures are retried is :func:`default_retryable`'s call.
    """

    #: Growth of the sleep from one retry to the next, before the cap.
    multiplier = 2.0

    def __init__(self, max_attempts=4, base_backoff=0.01, max_backoff=0.5,
                 jitter=0.25, attempt_timeout=None, deadline=None, budget=None,
                 seed=0):
        self.max_attempts = int(max_attempts)
        self.base_backoff = float(base_backoff)
        self.max_backoff = float(max_backoff)
        self.jitter = float(jitter)
        self.attempt_timeout = attempt_timeout
        self.deadline = deadline
        self.budget = budget
        self._rng = random.Random(seed)
        # Counters (reported by stats(); the obs plane and telemetry read that).
        self.attempts = 0
        self.retries = 0
        self.timeouts = 0
        self.giveups = 0
        self.rejected = 0

    def backoff_delay(self, attempt):
        """Jittered sleep before retry number ``attempt`` (1-based)."""
        base = min(self.max_backoff,
                   self.base_backoff * self.multiplier ** (attempt - 1))
        if self.jitter <= 0:
            return base
        return base * self._rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)

    def execute(self, env, factory, breaker=None):
        """Run ``factory()`` attempts under this policy; returns a process.

        ``factory`` must return a *fresh* simnet event per call (typically
        ``lambda: env.process(...)``).  With ``breaker`` given, each
        attempt first asks the breaker; rejected calls raise
        :class:`~repro.errors.CircuitOpenError` without touching the
        network.
        """
        # Captured synchronously at call creation: retries then annotate
        # the calling span even though attempts run unbound later.
        ctx = current_context()
        return env.process(self._run(env, factory, breaker, ctx))

    def _run(self, env, factory, breaker, ctx=None):
        sink = ctx.sink if ctx is not None else None
        start = env.now
        attempt = 0
        while True:
            attempt += 1
            if breaker is not None and not breaker.allow():
                self.rejected += 1
                if sink is not None:
                    sink.annotate(ctx, "circuit-rejected",
                                  breaker=breaker.name or "?")
                raise CircuitOpenError(
                    f"circuit {breaker.name or '?'} is open"
                )
            self.attempts += 1
            try:
                work = factory()
                if self.attempt_timeout is None:
                    result = yield work
                else:
                    # Abandoned attempts may fail later; pre-defuse so a
                    # late failure cannot crash the event loop.
                    work._defused = True
                    timer = env.timeout(self.attempt_timeout)
                    yield env.any_of([work, timer])
                    if not work.processed:
                        self.timeouts += 1
                        raise DeadlineExceededError(
                            f"attempt {attempt} timed out after "
                            f"{self.attempt_timeout}s"
                        )
                    if not work.ok:
                        raise work.value
                    result = work.value
            except ReproError as exc:
                if not default_retryable(exc):
                    if breaker is not None:
                        # The dependency answered; the call failed for
                        # application reasons -- not a circuit signal.
                        breaker.record_success()
                    raise
                if breaker is not None:
                    breaker.record_failure()
                if attempt >= self.max_attempts:
                    self.giveups += 1
                    if sink is not None:
                        sink.annotate(ctx, "giveup", attempts=attempt,
                                      error=type(exc).__name__)
                    raise
                if self.budget is not None and self.retries >= self.budget:
                    self.giveups += 1
                    if sink is not None:
                        sink.annotate(ctx, "giveup", attempts=attempt,
                                      error="retry budget exhausted")
                    raise
                delay = self.backoff_delay(attempt)
                if (self.deadline is not None
                        and env.now - start + delay >= self.deadline):
                    self.giveups += 1
                    if sink is not None:
                        sink.annotate(ctx, "giveup", attempts=attempt,
                                      error="deadline exhausted")
                    raise DeadlineExceededError(
                        f"deadline {self.deadline}s exhausted after "
                        f"{attempt} attempts"
                    ) from exc
                self.retries += 1
                if sink is not None:
                    sink.annotate(ctx, "retry", attempt=attempt, delay=delay,
                                  error=type(exc).__name__)
                yield env.timeout(delay)
            else:
                if breaker is not None:
                    breaker.record_success()
                return result

    def stats(self):
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "giveups": self.giveups,
            "rejected": self.rejected,
        }

    def __repr__(self):
        return (f"<RetryPolicy attempts={self.max_attempts} "
                f"backoff={self.base_backoff}>")
