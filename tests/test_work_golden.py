"""Same work, pinned: what one traced repetition of each sim workload of
the wall-clock harness (``benchmarks/perf``) does, leaf for leaf.

Every workload is bit-exact deterministic, so its counts are a
fingerprint of the work it does: a refactor that keeps them is proven
behaviour-preserving, and one that moves them says so here.
``tests/golden/work.json`` holds, per sim workload at seed 1 and scale
0.1 (the perf smoke size), the kernel events and by-value state digest
of one repetition and eleven per-op counts under the harness's own
metric names.  The repetition is the harness's ``Rep`` under its
``Tracer``, so it also fails when a rebind of the tracer stops binding
(the rebound callable is no longer where the tracer looks it up, or is
no longer looked up at call time: its count drops to 0).
``python tests/test_work_golden.py`` rewrites the golden from the tree
on disk.  A change that moves a leaf on purpose re-pins it and names
each moved leaf below, with the arithmetic.

How the pinned counts decompose (the spawn/event identity and the
per-site counts, kept here so a re-pin can be checked by hand):

- **A store request is one process.**  A plain remote request pops 5
  kernel events: start, hop there, latency charge, hop back, finish.
  Each process a layer spawns costs 2 events (start + finish), and a
  free worker slot taken through ``acquire`` 1 (its grant); one taken
  with ``try_acquire`` schedules nothing.  So removing a nested process
  saves ``Δevents = 2 × Δspawns + free-slot takes``.
- **kv_sharded.**  One process per layer cost 12.659375 events and 3.17
  spawns per op: 12.659375 - 8.07625 = 2 × (3.17 - 1.1775) + 0.598125
  free-slot takes per op.  A read-cache hit is no process, one timer
  event, through the router too: its 67 hits in 1,600 ops cost a
  process and 3 events each while the router held a client per shard,
  so 1.1775 - 67/1600 = 1.135625 spawns and 8.07625 - 2 × 67/1600 =
  7.9925 events per op; server ops stay 1.0825 (a hit never reaches a
  server).  The spawns are the requests' own plus the 2PC
  coordinator's on the txn share.
- **retail_orders.**  Cast exchanges on news and gathers once per
  exchange; an exchange per echo event or a re-read per fixpoint pass
  was 61.92 requests, 109.15 evaluations and 855.31 events per order.
  Each of the 34.615 requests per order is one process: one process per
  layer was 526.69 events and 162.31 spawns per order, 526.69 - 366.92
  = 2 × (162.31 - 93.08) + 21.31 free-slot takes.  An integrator pass
  is one process too: the exchange, its gather, each fixpoint pass and
  a reconciler's generator reconcile were each a process nested in the
  pass, and 366.92 - 288.85 = 2 × (93.08 - 54.00) - 1/13, the 1/13
  being the reconciler set-up hook, run once per 13 orders, whose
  nested process (start + finish) became one zero-delay tick.  An
  exchange evaluates from a worklist in field order, each assignment
  once and again only when a field it reads changed: 4 exchanges of the
  Fig. 6 DXG × 8 assignments + 4 of the notify DXG × 3 = 44.0
  evaluations per order (a confirming pass after every exchange that
  wrote made it 76.0).
- **storefront_pages.**  A keyed materialized page compiles only the
  view's and the query's pipelines, not one per source: 6 - 3 × 104
  materialized / 115 pages = 3.287 compiles per page, and the planner
  serves 104 / 115 = 0.904 of the pages materialized.  A store request
  is one process: one per layer was 64.18 events and 20.93 spawns per
  page, 64.18 - 46.75 = 2 × (20.93 - 12.79) + 1.16 free-slot takes; an
  integrator pass is one process, 46.75 - 42.68 = 2 × (12.79 - 10.76)
  + 0.  A federated keyed page reads each of its 3 Object sources with
  one ``get_many``: it was one GET per key per source, 24 per 8-key
  page, each a process of its own under the view's fetch plus the
  request's.  Server ops went 4.0696 -> 2.0609 per page = 11 federated
  pages x (24 - 3) / 115; spawns 10.7565 -> 6.4522 = 11 x 45 / 115
  (48 processes per page -> 3).  Kernel events 4,908 -> 2,953: the 495
  processes' start + finish (990), the 231 requests' hop there, latency
  charge and hop back (693), 238 fewer queued worker-slot grants (the
  24 GETs queued for the ApiServer's one slot), 11 x 3 ``all_of``
  joins over the GETs (33) and one ``WorkQueue`` wake-up (a maintenance
  write now lands in an already-woken queue).  The by-value state is
  unchanged (seeds 1, 2 and 4242); the revision-bearing digest moves
  because reads no longer hold the worker slot, so the maintenance
  writes commit in a different order and the same values carry other
  revisions.
- **The storefront join matches.**  Orders are keyed ``order/<cid>``
  and shipments and charges ``<cid>``, so the view joined nothing on
  ``_key``; every order now carries its ``cid`` and the view joins
  shipment and charge ``on="cid"``.  What moved, and nothing else:
  ``retail_orders`` and ``storefront_pages`` ``state_digest`` (every
  order's stored data gains ``cid``; no revision, count or event moves
  in ``retail_orders``); ``storefront_pages`` ``kernel_events`` 2,953
  -> 2,957 = +11 - 7: a federated page fetches in two rounds, the
  orders' ``get_many`` and then the shipments' and charges' by cid, so
  each of the 11 federated pages joins one more ``all_of``, while the
  orders' read now reaches the ApiServer's one worker slot alone, so 7
  fewer reads queue for it (97 -> 90 queued grants); and
  ``simnet.events_per_op`` 2,953 / 115 -> 2,957 / 115 = 25.713.  Server
  ops stay 3 per federated page, and spawns stay 3 ``_fetch_source``
  processes per page.
- **obs counts.**  ``fleet_ingest`` makes 6 tracer calls (spans opened,
  closed, points, annotations) and 10 registry calls (instrument
  lookups and inc/set/observe) per record, retail 93 and 52.6 per
  order.  The tracer rebinds ``CausalTracer.{start_span,end_span,point,
  annotate}``, ``Registry.{counter,gauge,histogram}`` and the handle's
  ``inc``/``set``/``observe`` as class attributes; a span is its own
  context and a handle is memoised per label set, so a span or handle
  method cached where the tracer cannot rebind it moves these counts.
- **kernel_pingpong** exercises the kernel alone: its counts move only
  when ``Environment``, ``Network.transfer``, ``Link.send`` or the
  ``Store``/``Resource`` queues change what they schedule.
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script: benchmarks/ is beside tests/
    sys.path.insert(0, str(ROOT))

from benchmarks.perf.runner import Rep  # noqa: E402
from benchmarks.perf.tracer import Tracer  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden" / "work.json"
SEED = 1
SCALE = 0.1
#: Every workload on the sim kernel (``http_realtime`` runs on real
#: sockets, so its event interleaving is not repeatable).
SIM_WORKLOADS = ("retail_orders", "fleet_ingest", "storefront_pages",
                 "kv_sharded", "kernel_pingpong")


def traced_leaves(name):
    """One traced repetition of ``name``: its pinned leaves."""
    tracer = Tracer()
    outcome = Rep(WORKLOADS[name](SEED, SCALE), tracer).outcome
    ops = max(1, outcome.correct)
    counters = outcome.counters
    reads = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    return {
        "kernel_events": outcome.events,
        "state_digest": outcome.digest,
        "simnet.events_per_op": tracer.count("simnet.step") / ops,
        "simnet.process.spawns_per_op": tracer.spawns / ops,
        "store.server_ops_per_op": counters.get("server_ops", 0) / ops,
        "core.dxg.evals_per_op": tracer.count("core.dxg.evaluate") / ops,
        "query.compiles_per_op": tracer.count("query.compile") / ops,
        "federation.materialized_share": outcome.sim.get(
            "materialized_share", 0.0),
        "store.readcache.hit_ratio": (
            counters.get("cache_hits", 0) / reads if reads else 0.0),
        "obs.causal.spans_per_op": tracer.count("obs.causal") / ops,
        "obs.registry.calls_per_op": tracer.count("obs.registry") / ops,
    }


def work():
    return {name: traced_leaves(name) for name in SIM_WORKLOADS}


def test_every_sim_workload_does_the_pinned_work():
    pinned = json.loads(GOLDEN.read_text())
    measured = json.loads(json.dumps(work()))
    moved = [
        f"{name} {leaf}: {measured[name].get(leaf)!r} (pinned {want!r})"
        for name, leaves in pinned.items()
        for leaf, want in leaves.items()
        if measured[name].get(leaf) != want
    ]
    if moved:
        pytest.fail("work moved:\n" + "\n".join(moved), pytrace=False)
    assert measured == pinned  # no leaf or workload added unpinned


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(work(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
