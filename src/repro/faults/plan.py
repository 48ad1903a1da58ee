"""Declarative, seedable fault schedules.

A :class:`FaultPlan` is an ordered list of :class:`FaultAction` records --
*what* goes wrong, *where*, *when*, and for *how long*.  Plans are pure
data: building one has no side effects, the same plan can be replayed
against fresh environments, and :meth:`FaultPlan.random` derives an
entire chaos schedule deterministically from one integer seed.  The
:class:`~repro.faults.injector.FaultInjector` turns a plan into scheduled
events on a live simulation.
"""

import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Fault kinds understood by the injector.
PARTITION = "partition"
DROP = "drop"
LATENCY_SPIKE = "latency_spike"
CRASH = "crash"
UNAVAILABLE = "unavailable"
KILL = "kill"

_KINDS = (PARTITION, DROP, LATENCY_SPIKE, CRASH, UNAVAILABLE, KILL)


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: ``kind`` hits ``target`` during [at, at+duration).

    ``target`` is ``(src, dst)`` for link faults, a store location for
    store faults, and a registered process name for ``kill``.  ``params``
    carries kind-specific knobs (drop ``rate``/``seed``, spike ``extra``).
    """

    at: float
    duration: float
    kind: str
    target: tuple
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}")
        if self.at < 0 or self.duration < 0:
            raise ConfigurationError(
                f"fault times must be non-negative: at={self.at} "
                f"duration={self.duration}"
            )

    @property
    def ends_at(self):
        return self.at + self.duration

    def param(self, name, default=None):
        return dict(self.params).get(name, default)

    def describe(self):
        where = "->".join(self.target) if len(self.target) > 1 else self.target[0]
        extras = " ".join(f"{k}={v}" for k, v in self.params)
        tail = f" [{extras}]" if extras else ""
        return (f"t={self.at:.3f}s +{self.duration:.3f}s "
                f"{self.kind} {where}{tail}")


@dataclass
class FaultPlan:
    """A schedule of fault actions, built fluently::

        plan = (FaultPlan()
                .crash_store("object-backend", at=0.5, duration=0.4)
                .partition("object-backend", "checkout", at=1.2, duration=0.3)
                .drop_window("*", "shipping", rate=0.4, at=2.0, duration=0.5))
    """

    actions: list = field(init=False, default_factory=list)

    #: Bounds of a generated fault's duration (:meth:`random`, seconds).
    RANDOM_DURATION = (0.02, 0.3)

    def _add(self, action):
        self.actions.append(action)
        return self

    # -- link faults -------------------------------------------------------

    def partition(self, a, b, at, duration):
        """Sever all traffic between ``a`` and ``b`` (both directions)."""
        return self._add(FaultAction(at, duration, PARTITION, (a, b)))

    def drop_window(self, src, dst, rate, at, duration, seed=0):
        """Lose a seeded-random ``rate`` fraction of ``src <-> dst`` traffic."""
        return self._add(FaultAction(
            at, duration, DROP, (src, dst),
            params=(("rate", float(rate)), ("seed", int(seed))),
        ))

    def latency_spike(self, src, dst, extra, at, duration):
        """Add ``extra`` seconds to every ``src <-> dst`` delivery."""
        return self._add(FaultAction(
            at, duration, LATENCY_SPIKE, (src, dst),
            params=(("extra", float(extra)),),
        ))

    # -- store faults ------------------------------------------------------

    def crash_store(self, location, at, duration):
        """Hard-kill the store at ``location``; restart after ``duration``.

        What survives the crash is backend-specific: the apiserver-like
        store replays its WAL, the Redis-like store restarts empty.
        """
        return self._add(FaultAction(at, duration, CRASH, (location,)))

    def unavailable_window(self, location, at, duration):
        """Transient brown-out: ops fail retryably, state/watches survive."""
        return self._add(FaultAction(at, duration, UNAVAILABLE, (location,)))

    # -- process faults ----------------------------------------------------

    def kill_process(self, name, at, duration):
        """Kill a registered process (reconciler/integrator); restart after."""
        return self._add(FaultAction(at, duration, KILL, (name,)))

    def kill_during_txn(self, process, phase, at, duration):
        """Kill ``process`` the moment a transaction enters ``phase``.

        Deterministic commit-point chaos: instead of racing a timer
        against the protocol, the registered process (a
        :class:`~repro.txn.TxnCoordinator`) arms itself at ``at`` and
        dies exactly when the next coordination crosses the ``phase``
        boundary -- ``"prepare"`` (participants locked, nothing
        decided), ``"commit"`` (decision durable, participants not yet
        told: the classic in-doubt window), or ``"abort"``.  Restarted (with
        recovery) at the window's end, like any kill.  If no transaction
        reaches the phase inside the window, the arm is withdrawn and
        nothing dies.
        """
        from repro.txn.coordinator import PHASES

        if phase not in PHASES:
            raise ConfigurationError(
                f"unknown txn phase {phase!r} (use one of {PHASES})"
            )
        return self._add(FaultAction(
            at, duration, KILL, (process,),
            params=(("txn_phase", phase),),
        ))

    # -- introspection -----------------------------------------------------

    def sorted_actions(self):
        """Actions in schedule order (stable for equal start times)."""
        return sorted(self.actions, key=lambda a: a.at)

    @property
    def horizon(self):
        """Virtual time when the last fault has been reverted."""
        return max((a.ends_at for a in self.actions), default=0.0)

    def count(self, kind):
        return sum(1 for a in self.actions if a.kind == kind)

    def describe(self):
        return [a.describe() for a in self.sorted_actions()]

    def __len__(self):
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    # -- generated chaos ---------------------------------------------------

    @classmethod
    def random(cls, seed, horizon, endpoints=(), stores=(), processes=(),
               n_faults=6):
        """A deterministic random schedule covering every fault class.

        ``endpoints`` are link endpoints eligible for partitions / drop
        windows / spikes; ``stores`` are crashable store locations;
        ``processes`` are killable registered process names.  The same
        ``seed`` always yields the identical plan.
        """
        rng = random.Random(seed)
        plan = cls()
        kinds = []
        if len(endpoints) >= 2:
            kinds += [PARTITION, DROP, LATENCY_SPIKE]
        if stores:
            kinds += [CRASH, UNAVAILABLE]
        if processes:
            kinds += [KILL]
        if not kinds:
            raise ConfigurationError("no fault targets given")
        for i in range(n_faults):
            # Cycle through the kinds first so every class appears once
            # before randomness takes over.
            kind = kinds[i] if i < len(kinds) else rng.choice(kinds)
            at = rng.uniform(0.0, horizon)
            duration = rng.uniform(*cls.RANDOM_DURATION)
            if kind in (PARTITION, DROP, LATENCY_SPIKE):
                src, dst = rng.sample(list(endpoints), 2)
                if kind == PARTITION:
                    plan.partition(src, dst, at=at, duration=duration)
                elif kind == DROP:
                    plan.drop_window(src, dst, rate=rng.uniform(0.2, 0.7),
                                     at=at, duration=duration,
                                     seed=rng.randrange(2**31))
                else:
                    plan.latency_spike(src, dst,
                                       extra=rng.uniform(0.005, 0.05),
                                       at=at, duration=duration)
            elif kind in (CRASH, UNAVAILABLE):
                location = rng.choice(list(stores))
                if kind == CRASH:
                    plan.crash_store(location, at=at, duration=duration)
                else:
                    plan.unavailable_window(location, at=at, duration=duration)
            else:
                plan.kill_process(rng.choice(list(processes)),
                                  at=at, duration=duration)
        return plan
