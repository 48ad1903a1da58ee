"""Property test: the zero-copy/delta state plane is observably identical
to the classic deepcopy/full-snapshot plane.

Seeded random operation sequences (create/patch/update/delete/txn) are
applied to two stores -- one classic (``zero_copy=False``), one
``cow+delta`` (``zero_copy=True, delta_watch=True``).  A watcher mirrors
each store.  The properties:

- final store state is byte-identical (canonical JSON),
- the per-key sequence of (type, object, revision) a watcher observes is
  identical -- the delta encoding is invisible to handlers,
- after an injected dropped watch message, the delta stream breaks at
  the gap, and a follower-held watcher (the read cache) re-lists and
  converges to the same state anyway.
"""

import json
import random

import pytest

from repro.store import DELETED, LogLake, LogLakeClient, MemKV, MemKVClient
from repro.simnet import Environment, FixedLatency, Network

KEYS = ["orders/a", "orders/b", "orders/c", "ships/x", "ships/y"]
FIELDS = ["status", "cost", "eta", "meta"]


def random_value(rng, depth=0):
    roll = rng.random()
    if depth < 2 and roll < 0.25:
        return {
            f"f{i}": random_value(rng, depth + 1) for i in range(rng.randint(1, 3))
        }
    if depth < 2 and roll < 0.35:
        return [random_value(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    if roll < 0.6:
        return rng.randint(0, 1000)
    return "v" * rng.randint(1, 30) + str(rng.randint(0, 9))


def random_ops(seed, count=60):
    """One seeded op sequence, replayable against any store."""
    rng = random.Random(seed)
    ops = []
    live = set()
    for _ in range(count):
        roll = rng.random()
        key = rng.choice(KEYS)
        if key not in live or roll < 0.15:
            key = rng.choice([k for k in KEYS if k not in live] or KEYS)
            if key not in live:
                ops.append(("create", key, {
                    f: random_value(rng) for f in rng.sample(FIELDS, 2)
                }))
                live.add(key)
                continue
        if roll < 0.55:
            patch = {rng.choice(FIELDS): random_value(rng)}
            if rng.random() < 0.2:
                patch[rng.choice(FIELDS)] = None  # deletion marker
            ops.append(("patch", key, patch))
        elif roll < 0.7:
            ops.append(("update", key, {
                f: random_value(rng) for f in rng.sample(FIELDS, 3)
            }))
        elif roll < 0.8 and len(live) > 1:
            ops.append(("delete", key, None))
            live.discard(key)
        else:
            patch = {rng.choice(FIELDS): random_value(rng)}
            ops.append(("txn", key, patch))
    return ops


class Mirror:
    """Watch consumer recording per-key event streams and live state."""

    def __init__(self):
        self.state = {}
        self.per_key = {}

    def absorb(self, event):
        self.per_key.setdefault(event.key, []).append(
            (event.type, None if event.object is None else dict(event.object),
             event.revision)
        )
        if event.type == DELETED:
            self.state.pop(event.key, None)
        else:
            self.state[event.key] = event.object


def memkv(zero_copy, delta_watch):
    """A fresh zero-latency store and a client at it."""
    env = Environment()
    net = Network(env, default_latency=FixedLatency(0.0))
    server = MemKV(env, net, watch_overhead=0.0,
                   zero_copy=zero_copy, delta_watch=delta_watch)
    return env, server, MemKVClient(server, location="tester")


def apply_ops(env, server, client, ops, before_op=lambda index: None):
    """Apply ``ops`` through ``client`` (``before_op(index)`` ahead of
    each), quiesce; returns the final state as canonical JSON."""

    def call(proc):
        return env.run(until=proc)

    for index, (verb, key, payload) in enumerate(ops):
        before_op(index)
        try:
            if verb == "create":
                call(client.create(key, payload))
            elif verb == "patch":
                call(client.patch(key, payload))
            elif verb == "update":
                call(client.update(key, payload))
            elif verb == "delete":
                call(client.delete(key))
            else:  # txn
                call(client.txn([{"action": "patch", "key": key,
                                  "patch": payload}]))
        except Exception:
            pass  # op raced a delete; both stores see identical failures
    env.run()
    state = {
        key: view["data"]
        for key, view in (
            (k, call(client.get(k))) for k in sorted(server._objects)
        )
    }
    return json.dumps(state, sort_keys=True)


def run_sequence(ops, zero_copy, delta_watch):
    """Apply ``ops`` under a watcher; returns (final_state_json, mirror,
    server)."""
    env, server, client = memkv(zero_copy, delta_watch)
    mirror = Mirror()
    client.watch(mirror.absorb)
    return apply_ops(env, server, client, ops), mirror, server


def run_followed(ops, drop_at):
    """Apply ``ops`` to a cow+delta store read through a follower-held
    read cache, losing the watch message of op ``drop_at``.  Returns
    (final_state_json, the cache's :class:`~repro.store.follow.Mirror`,
    its per-key revisions before each op and at the end)."""
    env, server, client = memkv(zero_copy=True, delta_watch=True)
    reader = MemKVClient(server, location="reader")
    reader.enable_read_cache("")
    revisions = []

    def before_op(index):
        revisions.append(dict(reader.mirror.revisions))
        if index == drop_at:
            server.drop_next_watch_message()

    state = apply_ops(env, server, client, ops, before_op)
    revisions.append(dict(reader.mirror.revisions))
    return state, reader.mirror, revisions


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 13, 42])
def test_cow_delta_equivalent_to_deepcopy_snapshot(seed):
    ops = random_ops(seed)
    base_state, base_mirror, base_server = run_sequence(
        ops, zero_copy=False, delta_watch=False
    )
    cow_state, cow_mirror, cow_server = run_sequence(
        ops, zero_copy=True, delta_watch=True
    )
    assert cow_state == base_state
    assert set(cow_mirror.per_key) == set(base_mirror.per_key)
    for key in base_mirror.per_key:
        assert cow_mirror.per_key[key] == base_mirror.per_key[key], key
    # And the optimized plane actually copied less.
    assert (
        cow_server.copy_meter.copied_bytes
        < base_server.copy_meter.copied_bytes
    )


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_injected_drop_resyncs_and_converges(seed):
    ops = random_ops(seed)
    # Drop a mid-sequence watch message: the delta chain breaks for the
    # key it carried, the stream breaks at that key's next delta, and
    # the read cache's follower re-lists.  The cache must converge to
    # the same final state as the unbroken baseline's watcher.
    base_state, base_mirror, _ = run_sequence(
        ops, zero_copy=False, delta_watch=False
    )
    cow_state, cache, revisions = run_followed(ops, drop_at=len(ops) // 2)
    assert cow_state == base_state
    assert cache.follower.breaks == 1
    assert json.dumps(
        {key: view["data"] for key, view in cache.views.items()},
        sort_keys=True,
    ) == json.dumps(base_mirror.state, sort_keys=True)
    # Revisions per key never go back in the cache's view, the rebuild
    # included.
    for before, after in zip(revisions, revisions[1:]):
        for key, revision in before.items():
            assert after[key] >= revision, key


def log_scenario(zero_copy):
    """Three loads fanned out to two watchers, then two scans."""
    env = Environment()
    net = Network(env, default_latency=FixedLatency(0.0))
    server = LogLake(env, net, watch_overhead=0.0, zero_copy=zero_copy)
    client = LogLakeClient(server, location="tester")
    client.watch_pool("p", lambda event: None)
    client.watch_pool("p", lambda event: None)
    env.run(until=client.create_pool("p"))
    for batch in range(3):
        env.run(until=client.load("p", [
            {"device": f"d{batch}{i}", "reading": {"c": 20.5 + i, "ok": True},
             "tags": ["a", "b" * i]} for i in range(4)]))
    env.run(until=client.query("p", since_seq=2, until_seq=9))
    env.run(until=client.query("p", ops=[{"op": "cut", "fields": ["device"]}]))
    env.run()
    return server


#: Metered bytes of the two fixed scenarios, as the byte model counted
#: them before frozen nodes memoised their size.  The memo (and the
#: once-per-event wire size) may change what sizing costs the host,
#: never what it answers.
OBJECT_METERS = {
    (False, False): (13236, 135, {"ingest": 768, "snapshot": 12468},
                     0, 0, 7900),
    (True, False): (3536, 58, {"ingest": 768, "merge": 2768},
                    122, 12468, 7900),
    (True, True): (3536, 58, {"ingest": 768, "merge": 2768},
                   122, 12468, 4505),
}
LOG_METERS = {
    False: (2837, 31, {"ingest": 870, "scan": 1967}, 0, 0, 2874),
    True: (870, 12, {"ingest": 870}, 19, 1967, 2874),
}


def metered(server):
    snap = server.copy_meter.snapshot()
    return (snap["copied_bytes"], snap["copies"], snap["by_site"],
            snap["shared_views"], snap["shared_bytes_avoided"],
            server.watch_wire_bytes)


@pytest.mark.parametrize("mode", sorted(OBJECT_METERS))
def test_object_plane_metered_bytes_are_pinned(mode):
    zero_copy, delta_watch = mode
    server = run_sequence(random_ops(7), zero_copy, delta_watch)[2]
    assert metered(server) == OBJECT_METERS[mode]


@pytest.mark.parametrize("zero_copy", sorted(LOG_METERS))
def test_log_plane_metered_bytes_are_pinned(zero_copy):
    assert metered(log_scenario(zero_copy)) == LOG_METERS[zero_copy]
