"""Integrator base class: lifecycle and run-time reconfiguration.

"Integrators, such as Cast and Sync, can be dynamically reconfigured at
run-time to add new composition logic or modify existing configurations.
This avoids service-level code changes, rebuilding, and redeployment for
each composition update." (paper §3.3)

The base class tracks a *generation* counter bumped on every successful
reconfiguration, and a reconfiguration history -- the observable artifact
the composition-cost benchmark counts (a Knactor composition change is one
``reconfigure()`` against a running integrator, zero service rebuilds).
"""

from repro.errors import ConfigurationError
from repro.faults.dlq import DeadLetterQueue
from repro.flow.policy import BLOCK
from repro.store.follow import RIDE_OUT, capped_exponential
from repro.store.workqueue import WorkQueue


class Integrator:
    """Base class for composition modules: deliveries mark keys dirty in
    one :class:`~repro.store.workqueue.WorkQueue`, which runs ``_pass``
    over each (``workers`` at once; None: one per key)."""

    max_requeues = RIDE_OUT
    workers = None

    def __init__(self, name):
        if not name:
            raise ConfigurationError("integrator name must be non-empty")
        self.name = name
        self.runtime = None
        self.started = False
        self.generation = 0
        self.reconfigurations = []  # (time, description)
        self.dead_letters = DeadLetterQueue(name=name)
        self.queue = None  # the work queue, once bound

    # -- lifecycle -----------------------------------------------------------

    def bind(self, runtime):
        """Attach to a runtime (resolve stores, run static analysis)."""
        self.runtime = runtime
        # A failing store is ridden out; any other failure is parked at once.
        self.queue = WorkQueue(
            runtime.env, self._pass, self.dead_letters, self.workers,
            self._backoff, self.max_requeues, 0, None, BLOCK,
        )
        self._on_bind()
        return self

    def start(self):
        if self.runtime is None:
            raise ConfigurationError(f"integrator {self.name!r} is not bound")
        if self.started:
            return
        self.started = True
        self.queue.start()
        self._on_start()

    def stop(self):
        if not self.started:
            return
        self.started = False
        self.queue.stop()
        self._on_stop()

    # -- reconfiguration ---------------------------------------------------------

    def reconfigure(self, *args, **kwargs):
        """Swap in new composition logic without touching any service.

        Subclasses implement ``_apply_configuration``; on success the
        generation is bumped and the change recorded.  Works both before
        and after ``start()`` -- that is the point.
        """
        description = self._apply_configuration(*args, **kwargs)
        self.generation += 1
        when = self.runtime.env.now if self.runtime is not None else 0.0
        self.reconfigurations.append((when, description or "reconfigured"))
        return self.generation

    # -- subclass hooks -------------------------------------------------------------

    def _on_bind(self):
        pass

    def _on_start(self):
        pass

    def _on_stop(self):
        pass

    def _apply_configuration(self, *args, **kwargs):
        raise NotImplementedError

    def _pass(self, key, payload):
        """The generator working off one dirty ``key``; with ``payload``
        None (a replayed dead letter) it works from the key alone."""
        raise NotImplementedError

    def _backoff(self, attempt):
        return capped_exponential(attempt)

    def stats(self):
        """Run-time counters as plain data (the ``stats()`` contract of
        ``docs/observability.md``)."""
        return {
            "name": self.name,
            "started": self.started,
            "generation": self.generation,
            "reconfigurations": len(self.reconfigurations),
            "queue_depth": len(self.queue.pending) if self.queue else 0,
            "dead_letters": len(self.dead_letters),
            "dead_letter_keys": self.dead_letters.keys(),
        }

    def __repr__(self):
        state = "started" if self.started else "stopped"
        return f"<{type(self).__name__} {self.name} {state} gen={self.generation}>"
