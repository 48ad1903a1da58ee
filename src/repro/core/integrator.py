"""Integrator base class: lifecycle and run-time reconfiguration.

"Integrators, such as Cast and Sync, can be dynamically reconfigured at
run-time to add new composition logic or modify existing configurations.
This avoids service-level code changes, rebuilding, and redeployment for
each composition update." (paper §3.3)

The base class tracks a *generation* counter bumped on every successful
reconfiguration, and a reconfiguration history -- the observable artifact
the composition-cost benchmark counts (a Knactor composition change is one
``reconfigure()`` against a running integrator, zero service rebuilds).

A generation -- its followers and the state they feed -- is built and
validated before the live one is swapped out: a rejected
reconfiguration changes nothing.
"""

from functools import partial

from repro.errors import ConfigurationError
from repro.faults.dlq import DeadLetterQueue
from repro.flow.policy import BLOCK
from repro.store.follow import (
    RIDE_OUT, Follower, FollowerGroup, capped_exponential)
from repro.store.workqueue import WorkQueue


class Supervised:
    """``kill()`` and ``restart()`` for a consumer of store streams with a
    ``queue`` of dirty keys, a ``followers`` group and ``start``/``stop``;
    it is started while its followers are."""

    kill_count = 0

    @property
    def started(self):
        return self.followers.started

    def kill(self):
        """Simulate a process crash: the streams die with it, and so do
        the queue's pending keys and retry state.  A :meth:`restart` (a
        supervisor's) catches every stream up: level triggering makes
        the lost queue safe."""
        if not self.started:
            return
        self.kill_count += 1
        self.queue.clear()
        self.stop()

    def restart(self):
        """Restart after :meth:`kill`: start, then catch up every stream."""
        if self.started:
            return
        self.start()
        self.followers.resync()


class Integrator(Supervised):
    """Base class for composition modules: deliveries mark keys dirty in
    one :class:`~repro.store.workqueue.WorkQueue`, which runs ``_pass``
    over each (``workers`` at once; None: one per key).  ``configuration``
    is the first ``_apply_configuration``'s arguments, applied at bind."""

    max_requeues = RIDE_OUT
    workers = None
    #: A follower a reconfiguration starts catches up once: what the old
    #: stream still had on its link was dropped with it.
    catch_up_on_swap = True

    def __init__(self, name, *configuration):
        if not name:
            raise ConfigurationError("integrator name must be non-empty")
        self.name = name
        self.runtime = None
        self.generation = 0
        self.reconfigurations = []  # (time, description)
        self.dead_letters = DeadLetterQueue(name=name)
        self.queue = None  # the work queue, once bound
        self.followers = FollowerGroup([])
        self._configuration = configuration

    # -- lifecycle -----------------------------------------------------------

    def bind(self, runtime):
        """Attach to a runtime (resolve stores, run static analysis)."""
        self.runtime = runtime
        # A failing store is ridden out; any other failure is parked at once.
        self.queue = WorkQueue(
            runtime.env, self._pass, self.dead_letters, self.workers,
            self._backoff, self.max_requeues, 0, None, BLOCK,
        )
        self._swap(*self._configuration)
        return self

    def start(self):
        if self.runtime is None:
            raise ConfigurationError(f"integrator {self.name!r} is not bound")
        if self.started:
            return
        self.queue.start()
        self.followers.start()

    def stop(self):
        if not self.started:
            return
        self.queue.stop()
        self.followers.stop()

    # -- reconfiguration ---------------------------------------------------------

    def reconfigure(self, *args, **kwargs):
        """Swap in new composition logic without touching any service.

        Subclasses implement ``_apply_configuration``; on success the
        generation is bumped and the change recorded.  Works both before
        and after ``start()`` -- that is the point.
        """
        description = self._swap(*args, **kwargs)
        self.generation += 1
        when = self.runtime.env.now if self.runtime is not None else 0.0
        self.reconfigurations.append((when, description))
        return self.generation

    def _swap(self, *args, **kwargs):
        """Build the new generation, then make it the live one: its state
        replaces the old, and its followers the old ones."""
        description, followers, state = self._apply_configuration(
            *args, **kwargs)
        vars(self).update(state)
        for follower in self.followers.swap(followers):
            if self.catch_up_on_swap:
                follower.resync()
        return description

    def _handle(self, de_name, store):
        """This integrator's handle to ``store`` on exchange ``de_name``."""
        return self.runtime.exchange(de_name).handle(
            store, principal=self.name, location=self.location)

    def _follow(self, handle, deliver, catch_up):
        return Follower(self.runtime.env, partial(handle.watch, deliver),
                        catch_up)

    # -- subclass hooks -------------------------------------------------------------

    def _apply_configuration(self, *args, **kwargs):
        """Build and validate a generation, changing nothing live; return
        ``(description, followers, state)``: ``state`` maps each attribute
        the generation sets to its value."""
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
            "kills": self.kill_count,
        }

    def __repr__(self):
        state = "started" if self.started else "stopped"
        return f"<{type(self).__name__} {self.name} {state} gen={self.generation}>"
