"""The wall-clock execution backend: simnet's kernel surface on asyncio.

:class:`RealtimeEnvironment` subclasses the deterministic
:class:`~repro.simnet.events.Environment` and keeps its entire scheduling
discipline -- the ``(deadline, priority, sequence)`` heap, the virtual
schedule clock ``now``, Event/Process/AllOf/AnyOf/Interrupt semantics,
``Store``/``Resource`` queues -- but *executes* the schedule in real time
on an asyncio event loop:

- before firing an event whose deadline lies ahead of the wall clock, the
  kernel ``asyncio.sleep``s until it is due (scaled by ``factor``: real
  seconds per schedule second);
- events that are already due fire back-to-back in one *burst*, with no
  loop turn between them (the kernel never waits to "catch up" -- falling
  behind the schedule is not an error unless ``strict=True``);
- between bursts the kernel sleeps or yields and other asyncio tasks on
  the same loop run -- which is how real TCP listeners (:meth:`repro.rest
  .RestServer.serve`) inject work into a live kernel.

Because the heap discipline is byte-for-byte the sim's, a realtime run of
an identically-configured app pops events in exactly the same order and
reads exactly the same ``now`` values as the sim run: final store state,
revisions, and watch-event order are *identical*, which is what the
sim-vs-realtime parity suite asserts.  The wall clock is exposed
separately (:attr:`wall_now`, :meth:`trace_clock`) so tracers can stamp
real timestamps without perturbing the schedule.
"""

import asyncio
import time

from repro.simnet.events import NORMAL, Environment, Event, SimulationError

_INF = float("inf")


class RealtimeDriftError(SimulationError):
    """Raised under ``strict=True`` when execution falls too far behind."""


class RealtimeEnvironment(Environment):
    """An :class:`~repro.simnet.events.Environment` paced by the wall clock.

    ``factor`` is the real-seconds-per-schedule-second ratio: ``1.0``
    (default) runs timeouts at face value, ``0.05`` compresses a
    130-second device trace into 6.5 real seconds while leaving the event
    schedule -- and therefore every observable outcome -- untouched.
    ``strict=True`` raises :class:`RealtimeDriftError` when an event
    fires more than ``max_drift`` real seconds late.  ``factor=0`` runs
    the schedule flat out: nothing is paced, so nothing can be late
    (``max_lateness`` stays 0 and ``strict`` never trips).

    The environment owns a private asyncio loop.  ``run()`` drives it
    from synchronous code exactly like the sim (``run()``,
    ``run(until=seconds)``, ``run(until=event)``); coroutines started on
    :attr:`loop` (e.g. socket listeners) execute when the kernel sleeps or
    yields: between *bursts* (``turns`` counts them), not events -- a burst
    fires every event already due, up to a :meth:`future_of` hand-off or,
    while an external source is registered, ``tolerance`` real seconds.
    """

    backend = "realtime"

    #: Deadlines closer than this (in real seconds) fire without sleeping;
    #: OS timers below ~1 ms are noise anyway.  Also a burst's time slice:
    #: the longest a registered source's sockets wait behind a busy kernel.
    tolerance = 0.001

    def __init__(self, initial_time=0.0, factor=1.0, strict=False,
                 max_drift=1.0):
        if factor < 0:
            raise SimulationError(f"negative time factor {factor}")
        super().__init__(initial_time)
        self.factor = float(factor)
        self.strict = strict
        self.max_drift = float(max_drift)
        self._loop = asyncio.new_event_loop()
        self._wake = asyncio.Event()
        self._external_sources = set()
        self._wall_anchor = time.monotonic()
        self._wall_created = self._wall_anchor
        self._anchor_now = self._now
        self._parked = self._handoff = False
        self.max_lateness = 0.0
        self.turns = 0

    # -- wall clock --------------------------------------------------------

    @property
    def loop(self):
        """The asyncio loop this kernel runs on."""
        return self._loop

    @property
    def wall_now(self):
        """Real seconds elapsed since the environment was created."""
        return time.monotonic() - self._wall_created

    def trace_clock(self):
        """Wall-clock timestamp source for tracers (see obs.causal)."""
        return self.wall_now

    # -- scheduling --------------------------------------------------------

    def schedule(self, event, delay=0.0, priority=NORMAL):
        """Queue ``event`` and wake the kernel if it is sleeping.

        External sources (socket handlers, ``loop.call_later`` callbacks)
        schedule through the same entry point as processes, so a sleeping
        kernel re-examines its heap whenever new work arrives.
        """
        super().schedule(event, delay, priority)
        if self._parked:
            self._wake.set()

    # -- external sources --------------------------------------------------

    def register_external_source(self, name):
        """Declare a live event source (e.g. a listening socket).

        While any source is registered, ``run()`` treats an empty event
        queue as *idle* rather than *finished* and sleeps until an event
        is injected.
        """
        self._external_sources.add(name)

    def unregister_external_source(self, name):
        self._external_sources.discard(name)
        self._wake.set()  # let an idle run() re-check for termination

    # -- asyncio bridging --------------------------------------------------

    def future_of(self, event):
        """An :class:`asyncio.Future` resolved when ``event`` fires.

        The bridge from kernel space to coroutine space: socket handlers
        ``await env.future_of(server.dispatch(request))``.  A failing
        event is defused (the exception surfaces on the future, not out
        of the kernel loop).  Resolving is a hand-off: it ends the burst,
        so the awaiting coroutine resumes before any further event fires.
        """

        future = self._loop.create_future()

        def resolve(evt):
            if future.cancelled():
                return
            self._handoff = True
            if evt.ok:
                future.set_result(evt.value)
            else:
                evt._defused = True
                future.set_exception(evt.value)

        if event.callbacks is None:  # already processed
            resolve(event)
        else:
            event.callbacks.append(resolve)
        return future

    # -- the paced run loop ------------------------------------------------

    def run(self, until=None):
        """Drive the schedule in real time (same contract as the sim).

        ``until=None`` runs to an empty queue (or forever, while an
        external source is registered); ``until=seconds`` runs the
        schedule clock to that horizon; ``until=event`` runs until the
        event fires and returns its value.  Long-period background
        timers (retention sweeps, autoscaler ticks) keep the queue
        non-empty -- drive servers with ``until=event`` or a finite
        horizon rather than ``until=None``.
        """
        if self._loop.is_closed():
            raise SimulationError("environment is closed")
        if self._loop.is_running():
            raise SimulationError(
                "run() re-entered from inside the event loop"
            )
        # Re-anchor pacing: real time spent *outside* run() (building the
        # app, asserting between runs) must not register as lateness.
        self._wall_anchor = time.monotonic()
        self._anchor_now = self._now
        return self._loop.run_until_complete(self._arun(until))

    def close(self):
        """Close the private asyncio loop (the environment is spent).

        Pending tasks -- idle socket connections, say -- are cancelled
        and drained first so they unwind while the loop still runs,
        instead of erroring at garbage-collection time.
        """
        if self._loop.is_closed():
            return
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.run_until_complete(self._loop.shutdown_asyncgens())
        self._loop.close()

    async def _idle_wait(self, timeout=None):
        """Sleep until new work is scheduled (or ``timeout`` real secs).

        Everything runs on one loop: external sources only schedule
        while the kernel awaits, so clearing the flag here cannot lose a
        wakeup.
        """
        self._wake.clear()
        self._parked = True
        try:
            await asyncio.wait_for(self._wake.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        self._parked = False

    def _wall_deadline(self, when):
        """Real-clock instant at which the event at ``when`` is due."""
        return self._wall_anchor + (when - self._anchor_now) * self.factor

    async def _arun(self, until):
        stop, fired, horizon = None, [], _INF
        if isinstance(until, Event):
            stop = until
            if stop.processed:
                if stop.ok:
                    return stop.value
                raise stop.value
            stop.callbacks.append(fired.append)
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"cannot run until {horizon}: clock already at {self._now}"
                )

        while (wait := self._burst(fired, horizon)) is not None:
            self.turns += 1
            if wait:
                await self._idle_wait(None if wait == _INF else wait)
            else:
                await asyncio.sleep(0)

        if horizon != _INF:
            self._now = horizon
        if stop is not None:
            if not fired:
                raise SimulationError(
                    "event queue empty before target event fired")
            if stop.ok:
                return stop.value
            stop._defused = True
            raise stop.value
        return None

    def _burst(self, fired, horizon):
        """Fire every event already due; return what to await before more.

        ``None``: the run is over; ``0``: one loop turn (a hand-off, or the
        slice spent with a source registered); else the real seconds to idle
        unless woken (``inf``: until woken).
        """
        queue, sources = self._queue, self._external_sources
        self._handoff = False
        slice_end = time.monotonic() + self.tolerance
        while not fired:
            when = queue[0][0] if queue else _INF
            if when == _INF == horizon:
                # Empty queue: finished, unless a live external source
                # (a listening socket) may still inject work.
                return _INF if sources else None
            # Nothing (left) to fire before the finite horizon: this is
            # a *realtime* kernel, so the horizon itself is paced -- idle
            # until its wall deadline (waking early if a socket injects
            # work), then jump the schedule clock.
            if when > horizon:
                remaining = self._wall_deadline(horizon) - time.monotonic()
                return remaining if remaining > self.tolerance else None
            # Unpaced (factor 0) there is no wall schedule to be early or
            # late against: events fire back to back and lateness stays 0.
            if self.factor:
                delay = self._wall_deadline(when) - time.monotonic()
                if delay > self.tolerance:
                    return delay  # idle, then re-examine the heap
                lateness = -delay
                if lateness > self.max_lateness:
                    self.max_lateness = lateness
                if self.strict and lateness > self.max_drift:
                    raise RealtimeDriftError(
                        f"event due at t={when:.6f} fired {lateness:.3f}s "
                        f"late (max_drift={self.max_drift})"
                    )
            self.step()
            if self._handoff or (sources and time.monotonic() >= slice_end):
                return 0
        return None

    def __repr__(self):
        return (
            f"<RealtimeEnvironment now={self._now} factor={self.factor} "
            f"queued={len(self._queue)}>"
        )
