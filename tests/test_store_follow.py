"""``store.follow.Follower``: the one open -> break -> reopen -> catch-up
protocol, and the pin that the Reconciler on it is draw for draw the
Reconciler that hand-wrote it."""

import hashlib
import random

import pytest

from repro.core import Knactor, KnactorRuntime, Reconciler, StoreBinding
from repro.errors import ReproError, UnavailableError
from repro.exchange import ObjectDE
from repro.store import ApiServer, ApiServerClient
from repro.store.follow import Follower


class Stream:
    def __init__(self, on_close):
        self.on_close = on_close
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class Consumer:
    """Counts what the follower asks of it; ``failing`` is what its
    catch-ups raise (None: they succeed), ``hold`` how long they take."""

    def __init__(self, env, **follower_args):
        self.env = env
        self.streams = []
        self.calls = 0
        self.completed = 0
        self.failing = None
        self.hold = 0.0
        self.follower = Follower(env, self.open_stream, self.catch_up,
                                 **follower_args)

    def open_stream(self, on_close):
        self.streams.append(Stream(on_close))
        return self.streams[-1]

    def catch_up(self):
        self.calls += 1
        if self.failing is not None:
            raise self.failing
        yield self.env.timeout(self.hold)
        self.completed += 1


class TestFollower:
    def test_break_reopens_then_catches_up(self, env):
        consumer = Consumer(env)
        consumer.follower.start()
        assert len(consumer.streams) == 1 and consumer.calls == 0
        consumer.streams[0].on_close()
        # Reopened at once -- before the catch-up has even begun.
        assert consumer.follower.stream is consumer.streams[1]
        assert consumer.calls == 0 and consumer.follower.catching_up
        env.run()
        assert consumer.completed == 1
        assert consumer.follower.breaks == 1
        assert not consumer.follower.catching_up

    def test_breaks_during_a_catch_up_cause_exactly_one_more(self, env):
        consumer = Consumer(env)
        consumer.hold = 1.0
        consumer.follower.start()
        consumer.streams[-1].on_close()
        env.run(until=0.5)  # mid catch-up
        consumer.streams[-1].on_close()
        consumer.streams[-1].on_close()
        env.run()
        assert consumer.follower.breaks == 3
        assert consumer.completed == 2
        assert env.now == 2.0  # one after the other, never side by side

    def test_stop_during_a_backoff_ends_the_loop(self, env):
        consumer = Consumer(env, backoff=lambda attempt: 1.0)
        consumer.failing = UnavailableError("down")
        consumer.follower.start()
        consumer.streams[-1].on_close()
        env.run(until=2.5)
        calls = consumer.calls
        assert calls == 3
        consumer.follower.stop()
        assert consumer.streams[-1].cancelled
        consumer.failing = None
        env.run()
        assert consumer.calls == calls and consumer.completed == 0
        assert not consumer.follower.catching_up

    def test_break_after_stop_is_ignored(self, env):
        consumer = Consumer(env)
        consumer.follower.start()
        consumer.follower.stop()
        consumer.streams[0].on_close()
        env.run()
        assert len(consumer.streams) == 1 and consumer.calls == 0

    def test_reopen_swaps_the_stream_without_a_catch_up(self, env):
        consumer = Consumer(env)
        consumer.follower.start()
        first = consumer.follower.stream
        consumer.follower.reopen()
        env.run()
        assert first.cancelled
        assert consumer.follower.stream is consumer.streams[1] is not first
        assert consumer.calls == 0 and consumer.follower.breaks == 0

    def test_gives_up_after_one_hundred_attempts(self, env):
        transients = []
        consumer = Consumer(env, backoff=lambda attempt: 0.001,
                            on_transient=lambda: transients.append(env.now))
        consumer.failing = UnavailableError("down")
        consumer.follower.start()
        consumer.follower.resync()
        env.run()
        assert consumer.calls == 100 and len(transients) == 100
        assert not consumer.follower.catching_up

    def test_other_failures_are_the_consumers(self, env):
        consumer = Consumer(env)
        consumer.failing = ReproError("not transient")
        consumer.follower.start()
        with pytest.raises(ReproError, match="not transient"):
            env.run(until=consumer.follower.resync())
        assert consumer.calls == 1 and not consumer.follower.catching_up

    def test_default_backoff_touches_no_rng(self, env):
        before = random.getstate()
        consumer = Consumer(env)
        consumer.failing = UnavailableError("down")
        consumer.follower.start()
        consumer.follower.resync()
        env.run()
        assert consumer.calls == 100
        assert random.getstate() == before
        # Capped exponential: 5 ms doubling to 1 s.
        assert env.now == sum(min(1.0, 0.005 * 2 ** min(n, 8))
                              for n in range(100))


#: Taken at the parent of the change that introduced ``Follower`` (PR 18,
#: 3db4fd0), with the Reconciler's hand-written ``_on_watch_lost`` /
#: ``_resync`` loop: (unavailable_count, reconcile_count, env.now at
#: quiescence, hash of the seeded RNG's final state).
RECONCILER_PIN = (13, 89, 1.0270948806084508, "4e174d5b53579309")


def test_reconciler_under_a_crash_is_draw_for_draw_the_hand_written_loop(
        env, net):
    """A seeded reconciler (default jitter) over an ApiServer crashed for
    0.3 s mid-burst: its re-list retries interleave with its reconcile
    retries on one RNG, so any change in who draws when moves all four."""
    runtime = KnactorRuntime(env, network=net)
    backend = ApiServer(env, net)
    runtime.add_exchange("object", ObjectDE(env, backend))

    class Stamp(Reconciler):
        def reconcile(self, ctx, key, obj):
            if obj is not None and not obj.get("seen"):
                yield ctx.store.patch(key, {"seen": True})

    rec = Stamp("pin")
    runtime.add_knactor(Knactor("svc", [StoreBinding(
        "default", "object", "schema: A/v1/S/T\nv: number\nseen: bool\n")],
        reconciler=rec))
    runtime.start()
    writer = ApiServerClient(backend, "writer")

    def burst():
        for i in range(40):
            while True:
                try:
                    yield writer.create(f"knactor-svc/k{i:02d}", {"v": i})
                    break
                except UnavailableError:
                    yield env.timeout(0.01)
            yield env.timeout(0.002)

    def fault():
        yield env.timeout(0.03)
        backend.crash()
        yield env.timeout(0.3)
        backend.restart()

    env.process(burst())
    env.process(fault())
    env.run()  # to quiescence: the event queue drains
    state = hashlib.sha256(repr(rec._rng.getstate()).encode()).hexdigest()[:16]
    assert (rec.unavailable_count, rec.reconcile_count, env.now,
            state) == RECONCILER_PIN
