"""What every workload answers, and the counting kernels they run on."""

import random
from dataclasses import dataclass, field

from repro.realtime import RealtimeEnvironment
from repro.simnet import Environment


class CountingEnvironment(Environment):
    """The sim kernel plus a public event counter.

    The kernel-event count is half of the determinism check (identical
    repetitions must pop identical numbers of events) and the base of
    ``simnet.events_per_op``; the kernel's own sequence counter is
    private, so the benchmark counts at the one public seam every event
    passes through.
    """

    def __init__(self):
        super().__init__()
        self.steps = 0

    def step(self):
        self.steps += 1
        Environment.step(self)


class CountingRealtimeEnvironment(RealtimeEnvironment):
    """The wall-clock kernel with the same counter."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.steps = 0

    def step(self):
        self.steps += 1
        RealtimeEnvironment.step(self)


@dataclass
class Outcome:
    """What one repetition did, after its outputs were checked.

    ``attempted`` ops were issued; ``correct`` completed with the right
    output; the rest (failed, rejected, wrong answer, or an output check
    that does not hold) count as failed.  ``errors`` keeps the first few
    violations as text.  ``sim_latencies_ms`` is the virtual-time
    latency of each request and ``sim_span_s`` the virtual seconds from
    the first submission to the last completion; ``wall_ms`` (realtime
    only) maps a request kind to client-observed latencies.  ``digest``
    hashes the final state; ``sim`` are sim-side layer numbers;
    ``counters`` (filled in by the runner) are the public counters'
    increase over the timed region.
    """

    attempted: int
    correct: int
    digest: str
    events: int
    sim_latencies_ms: list = None
    sim_span_s: float = None
    wall_ms: dict = None
    counters: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def failed(self):
        return self.attempted - self.correct


class Violations:
    """Failed output checks: the first few as text, and a failed-op count.

    A per-op check (:meth:`op`) fails its own op, which the caller then
    leaves out of ``correct``; a whole-run check (:meth:`whole`) has no
    op of its own, so each one that fails costs one op via ``extra``.
    """

    def __init__(self, keep=5):
        self.texts = []
        self.extra = 0
        self._keep = keep

    def op(self, condition, text):
        if not condition and len(self.texts) < self._keep:
            self.texts.append(text)
        return bool(condition)

    def whole(self, condition, text):
        if not self.op(condition, text):
            self.extra += 1

    def correct(self, good_ops):
        return max(0, good_ops - self.extra)


class Workload:
    """One seeded workload.

    Every repetition calls :meth:`generate` (untimed: the inputs, a
    function of ``seed`` only, so every repetition is identical work),
    :meth:`build` (timed as set-up: build plus preload until the first
    op can be issued), :meth:`run` (the timed region: first submission
    to quiescence), :meth:`finish` (untimed: read the outputs back,
    check them, return an :class:`Outcome`) and :meth:`close`.
    """

    name = None
    #: What one "op" is, for the README and the result file.
    op_unit = None
    #: "open" (arrivals on a virtual-time schedule) or "closed".
    loop = None
    #: Tail percentile with >= 10 samples beyond it at full size.
    tail_q = 0.99
    #: False when event interleaving depends on real threads.
    exact_events = True

    def __init__(self, seed, scale=1.0):
        self.seed = seed
        self.scale = scale

    def rng(self, stream):
        """The seeded stream ``stream`` of this workload."""
        return random.Random(f"{self.seed}/{self.name}/{stream}")

    def scaled(self, value, minimum=1):
        return max(minimum, int(round(value * self.scale)))

    def size(self):
        """The knobs that define how much work a repetition is."""
        raise NotImplementedError

    def generate(self):
        """Inputs the workload draws itself (the load-generator ones
        draw theirs from the same seed inside ``repro.load``)."""
        return None

    def build(self, inputs):
        raise NotImplementedError

    def counters(self, ctx):
        """Cumulative public counters (see :func:`server_counters`)."""
        return {}

    def run(self, ctx):
        raise NotImplementedError

    def finish(self, ctx):
        raise NotImplementedError

    def close(self, ctx):
        pass


def server_counters(servers, network, retry_policy=None):
    """Sum the public counters of store ``servers``, their network and
    the exchange-wide retry policy (if the app set one).

    Cumulative: the runner reads them just before and just after the
    timed region and keeps the difference.
    """
    out = {
        "network_bytes": network.bytes_sent,
        "retries": retry_policy.retries if retry_policy is not None else 0,
        "server_ops": 0, "watch_events": 0, "watch_messages": 0,
        "watch_wire_bytes": 0, "copied_bytes": 0, "wal_bytes": 0,
        "fence_rejections": 0, "admitted": 0, "rejected": 0,
    }
    for server in servers:
        out["server_ops"] += sum(server.op_counts.values())
        out["watch_events"] += server.watch_events_sent
        out["watch_messages"] += server.watch_messages_sent
        out["watch_wire_bytes"] += server.watch_wire_bytes
        out["copied_bytes"] += server.copy_stats["copied_bytes"]
        out["wal_bytes"] += getattr(server, "wal_bytes", 0)
        out["fence_rejections"] += server.fence_rejections
        admission = server.admission
        if admission is not None:
            stats = admission.stats()
            out["admitted"] += stats["admitted"]
            out["rejected"] += stats["rejected"]
    return out


def read_store(env, handle):
    """``{key: view}`` of everything ``handle`` can list."""
    return {view["key"]: view for view in env.run(until=handle.list())}
