"""Executes a :class:`~repro.faults.plan.FaultPlan` on a live simulation.

The injector resolves each action's target -- the shared
:class:`~repro.simnet.network.Network` for link faults, registered
:class:`~repro.store.base.StoreServer` instances for store faults,
registered killable processes (reconcilers, Cast workers) for process
faults -- and schedules begin/revert callbacks at the action's virtual
times.  Every transition is appended to :attr:`FaultInjector.events`, a
plain list of ``(time, phase, kind, target)`` tuples: two runs with the
same seed/plan must produce byte-identical logs, which is how the chaos
benchmark asserts determinism.

Overlapping windows of the same fault on the same target are
reference-counted: the fault is reverted only when the *last* window
ends.  (Overlapping drop windows on one pair share the last-installed
rate until both end -- precise enough for chaos schedules.)
"""

from repro.errors import ConfigurationError
from repro.faults.plan import (
    CRASH,
    DROP,
    KILL,
    LATENCY_SPIKE,
    PARTITION,
    UNAVAILABLE,
)


class FaultInjector:
    """Schedules and reverts faults from a plan.

    Plan times are relative to the virtual time at which
    :meth:`schedule` is called.
    """

    def __init__(self, env, network, stores=(), processes=None, tracer=None):
        self.env = env
        self.network = network
        self.tracer = tracer
        self._stores = {}
        for store in stores:
            self.register_store(store)
        self._processes = {}
        for name, proc in (processes or {}).items():
            self.register_process(name, proc)
        self._active = {}  # (kind, normalized target) -> live window count
        self.events = []  # (time, "begin"|"end", kind, target-string)

    def register_store(self, server):
        """Make ``server`` (a StoreServer) targetable by its location."""
        self._stores[server.location] = server
        return server

    def register_process(self, name, process):
        """Make a killable/restartable component targetable as ``name``."""
        for method in ("kill", "restart"):
            if not callable(getattr(process, method, None)):
                raise ConfigurationError(
                    f"process {name!r} has no {method}() method"
                )
        self._processes[name] = process
        return process

    # -- scheduling --------------------------------------------------------

    def schedule(self, plan):
        """Install begin/revert timers for every action in ``plan``."""
        for action in plan.sorted_actions():
            begin = self.env.timeout(action.at)
            begin.callbacks.append(lambda _evt, a=action: self._begin(a))
            end = self.env.timeout(action.ends_at)
            end.callbacks.append(lambda _evt, a=action: self._end(a))
        return self

    # -- target resolution -------------------------------------------------

    def _store(self, location):
        try:
            return self._stores[location]
        except KeyError:
            raise ConfigurationError(
                f"no store registered at {location!r} "
                f"(have {sorted(self._stores)})"
            ) from None

    def _process(self, name):
        try:
            return self._processes[name]
        except KeyError:
            raise ConfigurationError(
                f"no process registered as {name!r} "
                f"(have {sorted(self._processes)})"
            ) from None

    @staticmethod
    def _key(action):
        target = action.target
        if action.kind in (PARTITION, DROP, LATENCY_SPIKE):
            target = tuple(sorted(target))  # symmetric link faults
        return (action.kind, target)

    def _log(self, phase, action):
        target = "->".join(action.target)
        self.events.append((self.env.now, phase, action.kind, target))
        if self.tracer is not None:
            self.tracer.record(
                "fault", f"{action.kind}-{phase}", target=target
            )

    # -- transitions -------------------------------------------------------

    def _begin(self, action):
        key = self._key(action)
        self._active[key] = self._active.get(key, 0) + 1
        kind = action.kind
        if kind == PARTITION:
            self.network.partition(*action.target)
        elif kind == DROP:
            src, dst = action.target
            self.network.set_drop_rate(
                src, dst, action.param("rate"), seed=action.param("seed", 0)
            )
        elif kind == LATENCY_SPIKE:
            src, dst = action.target
            self.network.set_extra_latency(src, dst, action.param("extra"))
        elif kind == CRASH:
            self._store(action.target[0]).crash()
        elif kind == UNAVAILABLE:
            self._store(action.target[0]).set_available(False)
        elif kind == KILL:
            process = self._process(action.target[0])
            phase = action.param("txn_phase")
            if phase is not None and callable(
                getattr(process, "arm_phase_kill", None)
            ):
                # Phase-targeted kill (FaultPlan.kill_during_txn): the
                # process dies at the protocol boundary, not at a time.
                # Restart still happens at the window's end, below.
                process.arm_phase_kill(phase, restart_after=None)
            else:
                process.kill()
        self._log("begin", action)

    def _end(self, action):
        key = self._key(action)
        self._active[key] = self._active.get(key, 1) - 1
        if self._active[key] > 0:
            # An overlapping window still holds this fault.
            self._log("end", action)
            return
        kind = action.kind
        if kind == PARTITION:
            self.network.heal(*action.target)
        elif kind == DROP:
            self.network.clear_drop_rate(*action.target)
        elif kind == LATENCY_SPIKE:
            self.network.clear_extra_latency(*action.target)
        elif kind == CRASH:
            self._store(action.target[0]).restart()
        elif kind == UNAVAILABLE:
            location = action.target[0]
            # Do not resurrect a store that a crash window still holds
            # down -- its restart path owes a WAL replay.
            if not self._active.get((CRASH, (location,)), 0):
                self._store(location).set_available(True)
        elif kind == KILL:
            process = self._process(action.target[0])
            if action.param("txn_phase") is not None:
                # Withdraw the arm if it never fired; restart (with
                # recovery) only if it did.
                if callable(getattr(process, "disarm_phase_kill", None)):
                    process.disarm_phase_kill()
                if not getattr(process, "alive", True):
                    process.restart()
            else:
                process.restart()
        self._log("end", action)

    # -- introspection -----------------------------------------------------

    def active_faults(self):
        """Currently-live ``(kind, target)`` keys (for assertions)."""
        return sorted(k for k, n in self._active.items() if n > 0)

    def trace(self):
        """The deterministic event log, formatted for comparison."""
        return [
            f"{t:.6f} {phase} {kind} {target}"
            for (t, phase, kind, target) in self.events
        ]
