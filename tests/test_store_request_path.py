"""The store request path: envelope, stage order, and who owns what.

``StoreServer.handle(op, args, principal, ctx)`` carries the two
out-of-band fields *beside* the args; ``_handle`` runs the stages
admit -> slot -> epoch/availability -> fence -> charge -> apply and the
first failing stage answers.  The last two classes pin where the names
live after the split of ``store/base.py`` into base / watch / client.
"""

import pytest

from repro.errors import (
    NotFoundError,
    OverloadedError,
    ShardMovedError,
    StoreError,
    UnavailableError,
)
from repro.obs.context import TraceContext, use
from repro.simnet import Environment, FixedLatency, Network
from repro.store import (
    ApiServer,
    LogLakeClient,
    MemKVClient,
    ShardedStore,
    ShardedStoreClient,
    StoreClient,
    StoreServer,
)
from repro.store.base import OpLatency
from repro.store.client import ObjectClient


class Door:
    """A stand-in admission controller: fixed answer, remembers who asked."""

    def __init__(self, answer=True):
        self.answer = answer
        self.asked = []

    def admit(self, principal, queue_depth):
        self.asked.append(principal)
        return self.answer


class TestEnvelope:
    def test_op_parameters_named_like_the_envelope_fields_are_the_callers(
            self, env, zero_net, call):
        class Echo(StoreServer):
            def op_echo(self, principal=None, ctx=None):
                return {"principal": principal, "ctx": ctx}

        server = Echo(env, zero_net, "echo")
        server.admission = Door()
        client = StoreClient(server, "echo")
        client.principal = "the-client"
        reply = call(client.request("echo", principal="an-argument", ctx="c"))
        assert reply == {"principal": "an-argument", "ctx": "c"}
        # Admission classed the request by who sent it, not by what it said.
        assert server.admission.asked == ["the-client"]

    def test_principal_and_trace_context_cost_no_virtual_time(
            self, monkeypatch):
        """The same patch -- bare, with a principal, under an active
        trace -- is sized the same and done at the same instant."""
        import repro.store.base as base

        measure, sizes = base.estimate_size, []

        def recording(args):
            sizes.append(measure(args))
            return sizes[-1]

        monkeypatch.setattr(base, "estimate_size", recording)

        def timed_patch(principal=None, ctx=None):
            env = Environment()
            net = Network(env, default_latency=FixedLatency(0.001))
            # A per-byte cost large enough that one stray key would show.
            server = ApiServer(env, net, watch_overhead=0.0,
                               ops={"patch": OpLatency(0.001, per_byte=1e-3)})
            client = ObjectClient(server, "caller")
            env.run(until=client.create("k", {"v": 0}))
            client.principal = principal
            del sizes[:]
            started = env.now
            with use(ctx):
                done = client.patch("k", {"v": 1})
            env.run(until=done)
            return env.now - started, list(sizes)

        bare = timed_patch()
        assert bare[1] and bare[0] > 0.003
        assert timed_patch(principal="checkout") == bare
        assert timed_patch(ctx=TraceContext("t1", "s1")) == bare
        assert timed_patch("checkout", TraceContext("t1", "s1")) == bare


@pytest.fixture
def ring(env, zero_net):
    """A two-shard ring: (store, shard 0, a key it owns, a key it does not)."""
    store = ShardedStore([
        ApiServer(env, zero_net, location=f"shard-{i}", watch_overhead=0.0)
        for i in range(2)
    ])
    server = store.shards[0]
    keys = [f"k{i}" for i in range(64)]
    mine = next(k for k in keys if store.shard_for(k) is server)
    theirs = next(k for k in keys if store.shard_for(k) is not server)
    return store, server, mine, theirs


#: Stage order, one row per stage: (stage, what is armed, key, op, error,
#: what the message says).  Each row arms its own stage AND every later
#: one, so what it asserts is the adjacent pair: this stage answers before
#: the next gets a say.  ``command`` is a fenced op the apiserver does not
#: implement; ``delete`` of a missing key is an op that raises.
STAGES = [
    ("admission", "rejecting down sealed", "theirs", "command",
     OverloadedError, "admission control"),
    ("availability", "down sealed", "theirs", "command",
     UnavailableError, "is unavailable"),
    ("sealed range", "sealed", "theirs", "command",
     ShardMovedError, "sealed for migration"),
    ("stray key", "", "theirs", "command",
     ShardMovedError, "moved to 'shard-1'"),
    ("unknown op", "", "mine", "command",
     StoreError, "has no operation"),
    ("op error", "", "mine", "delete",
     NotFoundError, "not found"),
]


class TestStagePrecedence:
    @pytest.mark.parametrize(
        "stage,armed,key,op,error,says", STAGES,
        ids=[row[0] for row in STAGES])
    def test_the_earliest_failing_stage_answers(
            self, env, call, ring, stage, armed, key, op, error, says):
        _store, server, mine, theirs = ring
        server.admission = Door(answer="rejecting" not in armed)
        server.set_available("down" not in armed)
        if "sealed" in armed:
            server.seal_ranges([(0, 0)], ring_version=7)  # the whole circle
        client = ObjectClient(server, server.location)
        with pytest.raises(error, match=says) as caught:
            call(client.request(op, key=mine if key == "mine" else theirs))
        assert type(caught.value) is error
        # Only the answering stage left a mark.
        assert server.aborted_ops == (stage == "availability")
        assert server.fence_rejections == (
            stage in ("sealed range", "stray key"))
        # Charging and counting come after every check and the op lookup.
        charged = stage == "op error"
        assert server.op_counts == ({"delete": 1} if charged else {})
        assert (env.now > 0) == charged

    def test_a_shed_request_never_waits_for_a_worker_slot(
            self, env, call, ring):
        _store, server, mine, _theirs = ring
        client = ObjectClient(server, server.location)
        client.create(mine, {"v": 1})  # holds the only worker for 6.5 ms
        env.run(until=0.001)
        server.admission = Door(answer=False)
        with pytest.raises(OverloadedError):
            call(client.get(mine))
        assert env.now == 0.001
        assert server.op_counts == {}


class TestClientSurface:
    OBJECT_METHODS = ("get", "patch", "create", "update", "delete", "list",
                      "txn", "txn_prepare", "txn_commit", "txn_abort",
                      "enable_read_cache")

    def test_object_methods_are_written_once(self):
        for name in self.OBJECT_METHODS:
            shared = vars(ObjectClient)[name]
            assert getattr(MemKVClient, name) is shared

    def test_backend_clients_add_only_what_is_theirs(self, ring):
        def own(cls):
            return {n for n in vars(cls) if not n.startswith("__")}

        assert own(MemKVClient) == {"command", "fcall", "fcall_txn"}
        # The apiserver adds nothing: its shards get the Object client.
        store = ring[0]
        clients = ShardedStoreClient(store, "caller").clients
        assert [type(c) for c in clients] == [ObjectClient] * 2

    def test_the_log_client_has_no_object_surface(self, env, zero_net):
        from repro.store import LogLake

        assert not issubclass(LogLakeClient, ObjectClient)
        client = LogLakeClient(LogLake(env, zero_net), "caller")
        for name in self.OBJECT_METHODS + (
                "coalesce_writes", "cache_hits", "patches_coalesced"):
            assert not hasattr(client, name), name


#: Taken at the parent of the base/watch/client split: every name that
#: ``repro.store.base`` defined itself, plus ``estimate_size``, which
#: other packages import from there.
BASE_NAMES = [
    "ADDED", "DELETED", "EVENT_OVERHEAD", "MODIFIED", "OpLatency",
    "StoreClient", "StoreServer", "StoredObject", "Watch", "WatchEvent",
    "_FENCED_OPS", "_Failure", "combine_patches", "estimate_size",
]
#: Taken at the same commit: ``dir(repro.store)`` less its submodules,
#: less ``ApiServerClient`` (deleted with the watch-replay ring).
STORE_NAMES = [
    "ADDED", "APPENDED", "ApiServer", "AutoscalePolicy",
    "CopyMeter", "CowList", "CowMap", "DELETED", "FrozenViewError",
    "LogLake", "LogLakeClient", "MODIFIED", "MemKV", "MemKVClient",
    "MergedWatch", "OpLatency", "RefCountRetention", "RetentionPolicy",
    "ShardRing", "ShardedStore", "ShardedStoreClient", "StoreClient",
    "StoreServer", "StoredObject", "TTLRetention", "Topology",
    "TxnUDFContext", "UDFContext", "UDFRegistry", "WatchEvent",
    "combine_patches", "diff_shared", "estimate_size", "freeze", "hash_key",
    "is_frozen", "key_in_ranges", "mask_shared", "merge_shared", "thaw",
]


class TestImportSurface:
    def test_every_name_importable_before_the_split_still_is(self):
        import repro.store
        import repro.store.base

        for name in BASE_NAMES:
            assert hasattr(repro.store.base, name), name
        for name in STORE_NAMES:
            assert hasattr(repro.store, name), name
            assert name in repro.store.__all__, name

    def test_the_old_paths_name_the_objects_the_new_modules_define(self):
        import repro.store as store
        import repro.store.base as base
        import repro.store.client as client
        import repro.store.cow as cow
        import repro.store.watch as watch

        for name in ("ADDED", "MODIFIED", "DELETED", "EVENT_OVERHEAD",
                     "Watch", "WatchEvent"):
            assert getattr(base, name) is getattr(watch, name), name
        for name in ("StoreClient", "ObjectClient", "combine_patches"):
            assert getattr(base, name) is getattr(client, name), name
        assert store.StoreClient is client.StoreClient
        assert store.combine_patches is client.combine_patches
        assert base.estimate_size is cow.estimate_size
        assert store.WatchEvent is watch.WatchEvent
        for defined_here in ("StoreServer", "OpLatency", "StoredObject",
                             "_Failure"):
            assert getattr(base, defined_here).__module__ == "repro.store.base"
