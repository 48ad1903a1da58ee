"""Property: a level-triggered watcher converges under random seeded faults.

An informer-style watcher -- a :class:`~repro.store.follow.Follower`
that re-lists whenever its stream breaks -- must end holding **the
server's final state of every key**, no matter what the network and the
store do in between: partitions, drop windows, latency spikes,
crash/restart cycles, brown-outs.  On the way its per-key revision never
goes backwards, and no stream delivers one revision twice.  There is no
replay history to lean on: what a break hid, the re-list shows.

The store's own :class:`~repro.store.follow.Mirror` (the read cache's
and every materialized view's copy), attached through a plain client
beside the first watcher, must end holding the same state: the
Informer is its oracle.
"""

from functools import partial

import pytest

from repro.errors import AlreadyExistsError, ReproError
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.simnet import Environment, FixedLatency, Network
from repro.store import DELETED, ApiServer
from repro.store.client import ObjectClient
from repro.store.follow import Follower, Mirror

WRITES = 12
WATCHERS = 2


class Informer:
    """Reliable watcher: a Follower whose catch-up is a full re-list."""

    def __init__(self, env, client):
        self.client = client
        self.state = {}  # key -> (revision, data): what the consumer holds
        self.streamed = []  # (key, revision) as watch streams delivered
        self.backwards = []  # (key, held, offered): must stay empty
        self.follower = Follower(env, partial(client.watch, self._handle),
                                 self._relist)
        self.follower.start()

    def _handle(self, event):
        self.streamed.append((event.key, event.revision))
        if event.type == DELETED:
            self.state.pop(event.key, None)
        else:
            self._offer(event.key, event.revision, event.object)

    def _relist(self):
        views = yield self.client.list()
        for key in set(self.state) - {view["key"] for view in views}:
            del self.state[key]
        for view in views:
            self._offer(view["key"], view["revision"], view["data"])

    def _offer(self, key, revision, data):
        held = self.state.get(key, (0, None))[0]
        if revision < held:
            self.backwards.append((key, held, revision))
        elif revision > held:
            self.state[key] = (revision, data)


def _writer(env, client, done):
    """Write through the chaos; every write retries until acknowledged."""
    for i in range(WRITES):
        key = f"obj/{i % 5}"  # a few keys, mixing creates and updates
        while True:
            try:
                if key in done:
                    yield client.update(key, {"v": i})
                else:
                    yield client.create(key, {"v": i})
                break
            except AlreadyExistsError:
                break  # response to our create was lost; it committed
            except ReproError as exc:
                if not getattr(exc, "retryable", False):
                    raise
                yield env.timeout(0.03)
        done.add(key)
        yield env.timeout(0.12)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_every_committed_write_observed_exactly_once(seed):
    env = Environment()
    net = Network(env, default_latency=FixedLatency(0.0005))
    server = ApiServer(env, net, watch_overhead=0.0)
    policy = RetryPolicy(max_attempts=12, base_backoff=0.02,
                         max_backoff=0.2, seed=seed)
    writer_client = ObjectClient(server, "writer", retry_policy=policy)
    watchers = [
        Informer(env, ObjectClient(server, f"watcher-{i}"))
        for i in range(WATCHERS)
    ]
    # Co-located with watcher-0, so the plan's faults reach it too.
    mirror = Mirror(env, ObjectClient(server, "watcher-0"), "", None, None)
    mirror.follower.start()
    mirror.follower.resync()

    plan = FaultPlan.random(
        seed,
        horizon=1.2,
        endpoints=("writer", "watcher-0", "watcher-1", server.location),
        stores=(server.location,),
        n_faults=7,
    )
    injector = FaultInjector(env, net, stores=[server]).schedule(plan)

    done = set()
    env.run(until=env.process(_writer(env, writer_client, done)))
    env.run()  # drain: fault reverts, keepalive timers, re-lists

    assert len(done) == 5  # every write eventually acknowledged
    assert server.available
    assert injector.active_faults() == []
    assert len(server._wal) >= WRITES
    final = {key: (obj.revision, obj.data)
             for key, obj in server._objects.items()}
    assert len(final) == 5
    for watcher in watchers:
        assert watcher.state == final  # converged, key for key
        assert watcher.backwards == []  # per-key revision never rewinds
        # No stream delivers one revision twice.
        assert len(watcher.streamed) == len(set(watcher.streamed))
    assert not mirror.resyncing
    assert {key: (view["revision"], view["data"])
            for key, view in mirror.views.items()} == final == (
                watchers[0].state)
