"""``kv_sharded``: a raw 4-shard MemKV store, no exchange, no integrator."""

from repro.errors import StoreError
from repro.load import ZipfKeys
from repro.simnet import Network
from repro.store import MemKV, ShardedStore, ShardedStoreClient, Topology

from benchmarks.perf.measure import digest
from benchmarks.perf.workloads.base import (
    CountingEnvironment,
    Outcome,
    Violations,
    Workload,
    server_counters,
)

_PAD = {"note": "x" * 32, "tags": [1, 2, 3]}


class KvSharded(Workload):
    name = "kv_sharded"
    op_unit = "one acked operation (create/get/patch or a 2-key 2PC txn)"
    loop = "closed"
    tail_q = 0.99

    SHARDS = 4
    CLIENTS = 8
    OPS = 16_000
    KEYS = 2_000
    ALPHA = 1.1
    TXN_SHARE = 0.05
    TXN_SLOTS = 16
    assert KEYS % CLIENTS == 0  # every residue class is a whole key range

    def size(self):
        return {"shards": self.SHARDS, "clients": self.CLIENTS,
                "ops": self.scaled(self.OPS, self.CLIENTS), "keys": self.KEYS,
                "zipf_alpha": self.ALPHA, "txn_share": self.TXN_SHARE}

    def generate(self):
        """Each client's turns, from its own seeded stream.

        A key belongs to one client (Zipf rank folded onto the client's
        residue class), so "the first touch creates" is decidable from
        the inputs and "the last acked write" is well defined; the hot
        ranks still dominate every client's traffic.
        """
        zipf = ZipfKeys(self.KEYS, alpha=self.ALPHA)
        per_client = self.scaled(self.OPS, self.CLIENTS) // self.CLIENTS
        plans = []
        for cid in range(self.CLIENTS):
            rng = self.rng(f"client-{cid}")
            created, plan, txns = set(), [], 0
            for turn in range(per_client):
                if rng.random() < self.TXN_SHARE:
                    slot = txns % self.TXN_SLOTS
                    txns += 1
                    ops = []
                    for side in "ab":
                        key = f"priv/{cid}/{side}{slot:02d}"
                        if key in created:
                            ops.append({"action": "patch", "key": key,
                                        "patch": {"n": turn}})
                        else:
                            created.add(key)
                            ops.append({"action": "create", "key": key,
                                        "data": {"n": turn, "owner": cid}})
                    plan.append(("txn", ops, f"txn-{cid}-{turn}", turn))
                    continue
                rank = zipf.sample_index(rng)
                key = f"kv/{rank - rank % self.CLIENTS + cid:05d}"
                if key not in created:
                    created.add(key)
                    plan.append(("create", key,
                                 {"v": turn, "by": cid, "pad": _PAD}))
                elif rng.random() < 0.5:
                    plan.append(("get", key))
                else:
                    plan.append(("patch", key, {"v": turn}))
            plans.append(plan)
        return plans

    def build(self, inputs):
        env = CountingEnvironment()
        network = Network(env)
        store = ShardedStore(
            topology=Topology(shards=self.SHARDS), name="kv",
            shard_factory=lambda i: MemKV(
                env, network, location=f"kv-{i}",
                zero_copy=True, delta_watch=True,
            ),
        )
        watched = []
        watcher = ShardedStoreClient(store, "kv-watcher")
        watcher.watch(
            lambda event: watched.append((event.key, event.revision)),
            key_prefix="kv/",
        )
        clients = [ShardedStoreClient(store, f"kv-client-{cid}")
                   for cid in range(self.CLIENTS)]
        # One client reads through the informer cache, so the read-cache
        # counters are live on this workload.
        clients[0].enable_read_cache("kv/")
        env.run()  # the cache's warm-up list
        return {"env": env, "network": network, "store": store,
                "clients": clients, "watcher": watcher, "watched": watched,
                "plans": inputs, "acks": [], "failures": [],
                "events_before": env.steps}

    def counters(self, ctx):
        store = ctx["store"]
        out = server_counters(store.shards, ctx["network"])
        txn = store.txn_stats()
        out["txn_committed"] = txn.get("committed", 0)
        out["txn_aborted"] = txn.get("aborted", 0)
        out["cache_hits"] = sum(c.cache_hits for c in ctx["clients"])
        out["cache_misses"] = sum(c.cache_misses for c in ctx["clients"])
        return out

    @staticmethod
    def _client(env, client, plan, acks, failures):
        for turn in plan:
            kind, started = turn[0], env.now
            try:
                if kind == "create":
                    view = yield client.create(turn[1], turn[2])
                elif kind == "get":
                    view = yield client.get(turn[1])
                elif kind == "patch":
                    view = yield client.patch(turn[1], turn[2])
                else:
                    view = yield client.txn(
                        turn[1], mode="2pc", idempotence_key=turn[2])
            except StoreError as exc:
                failures.append((turn, repr(exc)))
                continue
            acks.append((turn, view, started, env.now))

    def run(self, ctx):
        env = ctx["env"]
        procs = [
            env.process(self._client(
                env, client, plan, ctx["acks"], ctx["failures"]))
            for client, plan in zip(ctx["clients"], ctx["plans"])
        ]
        env.run(until=env.all_of(procs))
        env.run()  # drain watch deliveries

    def finish(self, ctx):
        env = ctx["env"]
        events = env.steps - ctx["events_before"]
        violations = Violations()
        attempted = sum(len(plan) for plan in ctx["plans"])
        for turn, error in ctx["failures"]:
            violations.op(False, f"{turn[0]} {turn[1]!r} failed: {error}")

        # Replay the acks: expected final value and ack-order revisions.
        expected, revisions, correct = {}, {}, 0
        for turn, view, _started, _acked in ctx["acks"]:
            kind = turn[0]
            if kind == "txn":
                ok = violations.op(
                    isinstance(view, list) and len(view) == 2 and all(
                        v is not None and v["data"]["n"] == turn[3]
                        for v in view),
                    f"txn {turn[2]} did not return both of its writes",
                )
                for op in turn[1]:
                    expected.setdefault(op["key"], {}).update(
                        op.get("data") or op.get("patch"))
            elif kind == "get":
                ok = violations.op(
                    view["key"] == turn[1], f"get {turn[1]!r} answered "
                    f"{view['key']!r}")
            else:
                expected.setdefault(turn[1], {}).update(turn[2])
                revisions.setdefault(turn[1], []).append(view["revision"])
                ok = violations.op(
                    view["data"]["v"] == turn[2]["v"],
                    f"{kind} {turn[1]!r} acked a different value")
            correct += ok

        final = {
            view["key"]: view for prefix in ("kv/", "priv/")
            for view in env.run(until=ctx["watcher"].list(prefix))
        }
        violations.whole(
            set(final) == set(expected),
            f"{len(set(final) ^ set(expected))} keys exist that should "
            "not, or are missing",
        )
        stale = [
            key for key, want in expected.items()
            if key in final and any(
                final[key]["data"].get(f) != v for f, v in want.items())
        ]
        violations.whole(
            not stale, f"{len(stale)} keys do not hold their last acked "
            f"write (e.g. {stale[:1]})")
        # Both-or-neither: the two sides of a txn slot agree at the end.
        torn = [
            key for key in final if key.startswith("priv/") and "/a" in key
            and final[key]["data"]["n"] != final.get(
                key.replace("/a", "/b"), {"data": {"n": None}})["data"]["n"]
        ]
        violations.whole(not torn, f"{len(torn)} torn transactions")
        seen = {}
        for key, revision in ctx["watched"]:
            seen.setdefault(key, []).append(revision)
        violations.whole(
            seen == revisions,
            "watch order per key differs from ack order on "
            f"{sum(1 for k in revisions if seen.get(k) != revisions[k])} keys",
        )
        return Outcome(
            attempted=attempted,
            correct=violations.correct(correct),
            digest=digest(sorted(
                (key, view["revision"], view["data"])
                for key, view in final.items())),
            events=events,
            sim_latencies_ms=[
                (acked - started) * 1e3
                for _t, _v, started, acked in ctx["acks"]],
            sim_span_s=(
                max(a[3] for a in ctx["acks"]) - min(a[2] for a in ctx["acks"])
                if ctx["acks"] else 0.0),
            errors=violations.texts,
        )
