"""The paper's claims, each asserted once: Table 1, Table 2, §2's
scattering counts, the §3.3 ablations and §5's transactional exchange.

Each exhibit is one cached sweep; its claims are the tests under it.
Claims held elsewhere in tier-1 are not repeated: Table 1's
``knactor_wins()`` keys and Table 2's shape (apiserver ``Prop.`` > 4x
redis, ``I-S`` halved by push-down, ``S`` > 0.9 x ``Total``, RPC lowest)
in ``tests/test_apps_retail_tables.py``; §2's 15 retail methods in
``tests/test_apps_retail_rpc.py``, 36 handlers over 14 services in
``tests/test_apps_socialnetwork.py``.

``python tests/test_paper_claims.py`` prints every exhibit's table.
"""

import functools
from dataclasses import replace

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.measure import (
    PAPER_TABLE2,
    run_knactor_setup,
    run_rpc_setup,
)
from repro.apps.retail.rpc_app import RetailRpcApp
from repro.apps.retail.tasks import (
    all_tasks,
    generated_stub_sloc,
    rebuild_redeploy_seconds,
)
from repro.apps.retail.workload import OrderWorkload
from repro.apps.socialnetwork import SocialNetworkRpcApp
from repro.core.dxg import DXGExecutor, parse_dxg
from repro.core.dxg.executor import ExecutorOptions
from repro.core.optimizer import K_APISERVER, K_REDIS, K_REDIS_UDF
from repro.errors import AlreadyExistsError
from repro.exchange import ObjectDE
from repro.metrics.latency import STAGES, summarize
from repro.metrics.report import Table
from repro.rpc import RPCChannel, RPCServer, parse_idl
from repro.simnet import Environment, FixedLatency, Network
from repro.store import ApiServer

def render(title, headers, rows):
    table = Table(headers, title=title)
    for row in rows:
        table.add_row(*row)
    return table.render()


def ms(seconds):
    return round(seconds * 1000, 2)


def exchange_harness(stores, dxg, options, latency, watch_overhead=0.0):
    """Two stores on one ApiServer and the DXGExecutor (principal
    ``cast``) composing them; ``stores``: alias -> (store, schema, owner)."""
    env = Environment()
    network = Network(env, default_latency=FixedLatency(latency))
    de = ObjectDE(env, ApiServer(env, network, watch_overhead=watch_overhead))
    for store, schema, owner in stores.values():
        de.host_store(store, schema, owner=owner)
    for store, _schema, _owner in stores.values():
        de.grant("cast", store, role="integrator")
    handles = {alias: de.handle(store, principal="cast")
               for alias, (store, _schema, _owner) in stores.items()}
    return env, de, DXGExecutor(env, parse_dxg(dxg), handles=handles,
                                options=options)


def exchange_each(env, executor, write, objects):
    """``write`` each ``(key, data)`` and then exchange on its key, one at
    a time; returns the mean virtual seconds per object."""
    start = env.now
    for key, data in objects:
        env.run(until=write(key, data))
        env.run(until=executor.exchange(key))
    return (env.now - start) / len(objects)


# -- Table 1: composition cost ------------------------------------------------

#: The paper's Table 1 rows, for side-by-side printing.
PAPER_TABLE1 = [
    ("T1", "c / f / b / d", "f", 8, 1, 109, 7),
    ("T2", "c / f / b / d", "f", 2, 1, 14, 1),
    ("T3", "c / f / b / d", "f", 4, 1, 93, 7),
]
TABLE1_HEADERS = ["Task", "API ops", "KN ops", "API files", "KN files",
                  "API SLOC", "KN SLOC"]


@functools.cache
def rebuild_redeploy():
    """Virtual seconds one API-side composition change spends on b/d."""
    env = Environment()
    return env.run(until=rebuild_redeploy_seconds(env))


def test_rebuild_and_redeploy_are_what_knactor_avoids():
    build_seconds, rollout_seconds = rebuild_redeploy()
    assert build_seconds > 30.0
    assert rollout_seconds > 5.0


def table1_text():
    build_seconds, rollout_seconds = rebuild_redeploy()
    return "\n\n".join([
        render("Table 1 (paper)", TABLE1_HEADERS, PAPER_TABLE1),
        render("Table 1 (measured, this repro)", TABLE1_HEADERS,
               [c.row() for c in all_tasks()]),
        "generated stub SLOC additionally carried by the API approach: "
        f"{generated_stub_sloc()}\n"
        "API-centric b/d cost per composition change (virtual time):\n"
        f"  rebuild+push  : {build_seconds:8.1f} s\n"
        f"  rolling update: {rollout_seconds:8.1f} s\n"
        "Knactor equivalent: 0 s (integrator reconfiguration only)",
    ])


# -- Table 2: shipment-request latency breakdown ------------------------------

TABLE2_ORDERS = 15


@functools.cache
def table2():
    rows = {"RPC": run_rpc_setup(orders=TABLE2_ORDERS)}
    for setup in ("K-apiserver", "K-redis", "K-redis-udf"):
        rows[setup] = run_knactor_setup(setup, orders=TABLE2_ORDERS)
    return rows


def test_table2_measures_every_request():
    for name, breakdown in table2().items():
        assert breakdown.count() >= TABLE2_ORDERS - 1, name


def table2_text():
    def rows(rows_ms):
        return [[setup] + [None if row.get(stage) is None
                           else round(row[stage], 2) for stage in STAGES]
                for setup, row in rows_ms.items()]

    headers = ["Setup"] + list(STAGES)
    measured = {name: bd.row() for name, bd in table2().items()}
    return "\n\n".join([
        render("Table 2 (paper, ms)", headers, rows(PAPER_TABLE2)),
        render(f"Table 2 (measured, ms, {TABLE2_ORDERS} requests/setup)",
               headers, rows(measured)),
    ])


# -- §2: composition logic is scattered ---------------------------------------

CHAIN_SIZES = (4, 8, 16, 32)


def chain_app(n_services):
    """Composition sites of a synthetic N-service chain composed via RPC:
    each service calls the next, so the sites grow with N."""
    env = Environment()
    network = Network(env)
    idl = parse_idl(
        "message Req {\n  string v = 1;\n}\n"
        "message Resp {\n  string v = 1;\n}\n"
        "service Chain {\n  rpc Step(Req) returns (Resp);\n}\n"
    )
    servers = [RPCServer(env, network, f"svc-{i}") for i in range(n_services)]
    composition_sites = 0
    for i, server in enumerate(servers):
        if i + 1 < n_services:
            channel = RPCChannel(env, servers[i + 1], f"svc-{i}")

            def handler(request, _c=channel):
                result = yield _c.call("Chain", "Step", {"v": request["v"]})
                return {"v": result["v"]}

            composition_sites += 1  # the downstream call inside service i
        else:
            def handler(request):
                return {"v": request["v"] + "!"}

        server.register("Chain", "Step", handler, idl=idl)
        composition_sites += 1  # the API endpoint exposed by service i
    return composition_sites


@functools.cache
def knactor_retail():
    return RetailKnactorApp.build(profile=K_REDIS)


def test_knactor_retail_composes_in_at_most_two_integrators():
    assert len(knactor_retail().runtime.integrators) <= 2


def test_scattering_grows_linearly_with_services():
    sites = [chain_app(n) for n in CHAIN_SIZES]
    # Linear in N for API-centric; Knactor stays at one integrator.
    for n1, s1, n2, s2 in zip(CHAIN_SIZES, sites, CHAIN_SIZES[1:], sites[1:]):
        assert s2 - s1 == pytest.approx(2 * (n2 - n1), abs=1)


def scattering_text():
    retail, social = RetailRpcApp.build(), SocialNetworkRpcApp.build()
    knactor = knactor_retail()
    return "\n\n".join([
        render("Composition scattering (paper: 15/11 web, 36/14 social)",
               ["App", "composition style", "methods/handling sites",
                "locations"],
               [("online retail", "RPC (API-centric)",
                 retail.rpc_method_count(), 11),
                ("social network", "RPC (API-centric)",
                 social.handler_count(), social.service_count()),
                ("online retail", "Knactor (data-centric)",
                 len(knactor.cast.executor.spec.assignments),
                 len(knactor.runtime.integrators))]),
        render("Scattering growth with app size (O(N) vs O(1))",
               ["N services", "API-centric composition sites",
                "Knactor (integrators)"],
               [(n, chain_app(n), 1) for n in CHAIN_SIZES]),
    ])


# -- §3.3 ablation: choice of DE under load -----------------------------------

SPACINGS = (2.0, 0.1, 0.01)  # seconds between orders (rate = 1/spacing)


@functools.cache
def de_choice():
    return {(setup, spacing): run_knactor_setup(setup, orders=20,
                                                spacing=spacing)
            for setup in ("K-apiserver", "K-redis") for spacing in SPACINGS}


def test_de_choice_offers_the_rate_it_is_labelled_with():
    """The driver is open-loop: a slow backend does not slow arrivals."""
    for (setup, spacing), breakdown in de_choice().items():
        assert breakdown.offered_rate == pytest.approx(1 / spacing, rel=0.01), (
            setup, spacing)


def test_apiserver_degrades_under_load():
    light = de_choice()[("K-apiserver", 2.0)].mean("Prop.")
    heavy = de_choice()[("K-apiserver", 0.01)].mean("Prop.")
    assert heavy > light * 1.5


def test_memkv_stays_flat_and_beats_the_apiserver_at_every_load():
    sweep = de_choice()
    light = sweep[("K-redis", 2.0)].mean("Prop.")
    heavy = sweep[("K-redis", 0.01)].mean("Prop.")
    assert heavy < light * 3
    for spacing in SPACINGS:
        assert (sweep[("K-redis", spacing)].mean("Prop.")
                < sweep[("K-apiserver", spacing)].mean("Prop.")), spacing


def test_a_failed_order_raises_out_of_the_run():
    """No order waits on the one before it, and none fails unseen: the
    second create of one key fails in the store and ends the run."""
    order = OrderWorkload().next_order()
    with pytest.raises(AlreadyExistsError):
        run_knactor_setup("K-redis", orders=[order, order])


def de_choice_text():
    return render(
        "Ablation: DE backend x load (propagation latency)",
        ["Backend", "orders/s", "offered/s", "Prop. mean (ms)",
         "Prop. p99 (ms)"],
        [(setup, round(1.0 / spacing, 1), round(bd.offered_rate, 1),
          ms(bd.mean("Prop.")), ms(summarize(bd.stages["Prop."])["p99"]))
         for (setup, spacing), bd in sorted(de_choice().items())])


# -- §3.3 ablation: refresh reads vs the informer cache -----------------------


@functools.cache
def informer():
    return {(profile.name, refresh): run_knactor_setup(
                replace(profile, refresh_reads=refresh), orders=10)
            for profile in (K_APISERVER, K_REDIS) for refresh in (True, False)}


def test_cache_cuts_propagation_on_slow_backend():
    sweep = informer()
    assert (sweep[("K-apiserver", False)].mean("Prop.")
            < sweep[("K-apiserver", True)].mean("Prop."))


def test_either_read_strategy_completes_every_request():
    for key, breakdown in informer().items():
        assert breakdown.count() == 10, key


def informer_text():
    return render(
        "Ablation: refresh reads vs informer cache",
        ["Backend", "reads", "C-I (ms)", "I-S (ms)", "Prop. (ms)"],
        [(name, "refresh" if refresh else "informer-cache",
          ms(bd.mean("C-I")), ms(bd.mean("I-S")), ms(bd.mean("Prop.")))
         for (name, refresh), bd in sorted(informer().items())])


# -- §3.3 ablations over payload size: push-down and zero-copy ----------------

PUSHDOWN_ITEMS = (2, 40, 200)
ZERO_COPY = replace(K_REDIS, name="K-redis-zerocopy", zero_copy=True)
ZERO_COPY_ITEMS = (2, 100)


def payload_sweep(profiles, item_counts, price, address):
    """Each profile at each item count: 8 orders of that many line items."""
    def orders(items):
        return [(f"order/o{i:04d}", {
            "items": {f"sku-{j:04d}": {"name": f"sku-{j:04d}",
                                       "priceUSD": price}
                      for j in range(items)},
            "address": address, "cost": price * items,
            "totalCost": price * items, "currency": "USD", "status": "placed",
        }) for i in range(8)]

    return {(profile.name, items): run_knactor_setup(profile,
                                                     orders=orders(items))
            for profile in profiles for items in item_counts}


@functools.cache
def pushdown():
    return payload_sweep((K_REDIS, K_REDIS_UDF), PUSHDOWN_ITEMS, 9.99,
                         "12 Elm St")


@functools.cache
def zero_copy():
    return payload_sweep((K_REDIS, ZERO_COPY), ZERO_COPY_ITEMS, 5.0,
                         "9 Oak Ave")


def cut(sweep, slow, fast, stage, items):
    """How much lower ``fast``'s mean ``stage`` is than ``slow``'s."""
    return sweep[(slow, items)].mean(stage) - sweep[(fast, items)].mean(stage)


def test_pushdown_wins_at_every_size():
    for items in PUSHDOWN_ITEMS:
        assert cut(pushdown(), "K-redis", "K-redis-udf", "Prop.", items) > 0


def test_pushdown_advantage_grows_with_payload():
    smallest, largest = (cut(pushdown(), "K-redis", "K-redis-udf", "Prop.", n)
                         for n in (PUSHDOWN_ITEMS[0], PUSHDOWN_ITEMS[-1]))
    assert largest > smallest


def test_zerocopy_reduces_propagation():
    for items in ZERO_COPY_ITEMS:
        assert cut(zero_copy(), "K-redis", "K-redis-zerocopy", "Prop.",
                   items) > 0


def test_zerocopy_specifically_cuts_integrator_stages():
    # The reconciler-side stages (which stay remote) are unchanged; the
    # integrator data movement shrinks.
    for items in ZERO_COPY_ITEMS:
        assert cut(zero_copy(), "K-redis", "K-redis-zerocopy", "I-S",
                   items) > 0


def payload_text(title, sweep):
    return render(
        title, ["Setup", "items/order", "Prop. mean (ms)", "I-S mean (ms)"],
        [(name, items, ms(bd.mean("Prop.")), ms(bd.mean("I-S")))
         for (name, items), bd in sorted(sweep().items())])


# -- §3.3 ablation: operation consolidation vs DXG width ----------------------

WIDTHS = (2, 8, 24)


def consolidation_harness(width, consolidate, latency):
    source = "".join(f"f{i}: number\n" for i in range(width))
    target = "".join(f"g{i}: number # +kr: external\n" for i in range(width))
    assignments = "".join(f"    g{i}: A.f{i} * 2\n" for i in range(width))
    dxg = ("Input:\n"
           "  A: App/v1/Source/knactor-a\n"
           "  B: App/v1/Target/knactor-b\n"
           f"DXG:\n  B:\n{assignments}")
    env, de, executor = exchange_harness(
        {"A": ("knactor-a", f"schema: App/v1/Source/S\n{source}", "a"),
         "B": ("knactor-b", f"schema: App/v1/Target/T\n{target}", "b")},
        dxg, ExecutorOptions(consolidate=consolidate), latency)
    return env, de.handle("knactor-a", principal="a"), de, executor


@functools.cache
def consolidation():
    """Per (width, consolidated): mean virtual seconds per update exchange
    over 10 objects, and the updates' totals."""
    sweep = {}
    for width in WIDTHS:
        for consolidate in (True, False):
            env, owner, _de, executor = consolidation_harness(
                width, consolidate, 0.00035)
            exchange_each(env, executor, owner.create, [
                (f"x{i}", {f"f{j}": float(i + j) for j in range(width)})
                for i in range(10)])
            # The interesting path is the UPDATE: every source field
            # changes, so the target needs width field-writes -- one patch
            # consolidated, width patches unconsolidated.  (Creation is
            # one op either way.)
            executor.totals = type(executor.totals)()
            latency = exchange_each(env, executor, owner.update, [
                (f"x{i}", {f"f{j}": float(100 + i + j) for j in range(width)})
                for i in range(10)])
            sweep[(width, consolidate)] = latency, executor.totals
    return sweep


def test_consolidation_issues_one_write_per_object():
    sweep = consolidation()
    for width in WIDTHS:
        assert sweep[(width, True)][1].writes == 10  # one patch per update
        assert sweep[(width, False)][1].writes == 10 * width  # one per field


def test_consolidation_latency_advantage_grows_with_width():
    sweep = consolidation()
    saving = {w: sweep[(w, False)][0] - sweep[(w, True)][0] for w in WIDTHS}
    assert saving[WIDTHS[-1]] > saving[WIDTHS[0]] > 0


def test_consolidation_leaves_the_same_state():
    """Consolidation is a pure optimization: same final state."""
    states = {}
    for consolidate in (True, False):
        env, owner, de, executor = consolidation_harness(4, consolidate, 0.0)
        exchange_each(env, executor, owner.create,
                      [("x", {f"f{j}": float(j) for j in range(4)})])
        reader = de.handle("knactor-b", principal="b")
        states[consolidate] = env.run(until=reader.get("x"))["data"]
    assert states[True] == states[False]


def consolidation_text():
    return render(
        "Ablation: operation consolidation x DXG width",
        ["DXG width", "consolidated", "latency/exchange (ms)", "write ops"],
        [(width, "yes" if consolidate else "no", ms(latency), totals.writes)
         for (width, consolidate), (latency, totals)
         in sorted(consolidation().items())])


# -- §5: transactional exchange commits ---------------------------------------

TXN_DXG = """\
Input:
  C: App/v1/Checkout/knactor-checkout
  S: App/v1/Shipping/knactor-shipping
DXG:
  C:
    trackingID: concat('trk-', cid)
  S:
    addr: concat('addr-', C.cost)
    ref: concat('ref-', cid)
"""


def transactions_harness(transactional):
    return exchange_harness(
        {"C": ("knactor-checkout", "schema: App/v1/Checkout/Order\n"
               "cost: number\ntrackingID: string # +kr: external\n",
               "checkout"),
         "S": ("knactor-shipping", "schema: App/v1/Shipping/Shipment\n"
               "addr: string # +kr: external\nref: string # +kr: external\n",
               "shipping")},
        TXN_DXG, ExecutorOptions(transactional=transactional),
        latency=0.0005, watch_overhead=0.0005)


@functools.cache
def transactions():
    """Per mode: mean virtual seconds per exchange over 20 orders, and
    the totals."""
    results = {}
    for transactional in (False, True):
        env, de, executor = transactions_harness(transactional)
        owner = de.handle("knactor-checkout", principal="checkout")
        orders = [(f"o{i}", {"cost": float(i)}) for i in range(20)]
        latency = exchange_each(env, executor, owner.create, orders)
        results[transactional] = latency, executor.totals
    return results


def test_transactional_issues_single_commit():
    # One atomic commit per exchange (trackingID + shipment together),
    # against two per-object writes.
    assert transactions()[True][1].writes == 20
    assert transactions()[False][1].writes == 40


def test_transactional_overhead_is_modest():
    # Bounded overhead (often faster: fewer round trips).
    assert transactions()[True][0] < transactions()[False][0] * 1.5


def test_plain_mode_has_anomaly_window_txn_does_not():
    """An observer of Checkout sees the trackingID only atomically with
    the shipment existing -- under transactional mode."""
    for transactional in (False, True):
        env, de, executor = transactions_harness(transactional)
        seen = []
        de.handle("knactor-checkout", principal="checkout").watch(seen.append)
        owner = de.handle("knactor-checkout", principal="checkout")
        reader = de.handle("knactor-shipping", principal="shipping")
        exchange_each(env, executor, owner.create, [("o1", {"cost": 1.0})])
        env.run()
        # When the order gained its trackingID, did the shipment already
        # exist at that commit's revision?
        tracked = [e for e in seen if e.object.get("trackingID")]
        assert tracked, "order was never back-filled"
        shipment = env.run(until=reader.get("o1"))
        if transactional:
            # Same atomic block: the shipment's revision is adjacent.
            assert abs(shipment["revision"] - tracked[0].revision) == 1


def transactions_text():
    return render(
        "Ablation: transactional exchange commits",
        ["Mode", "latency/exchange (ms)", "commits", "creates"],
        [("transactional" if mode else "per-object writes", ms(latency),
          totals.writes, totals.creates)
         for mode, (latency, totals) in transactions().items()])


# -- every exhibit ------------------------------------------------------------

EXHIBITS = (
    table1_text, table2_text, scattering_text, de_choice_text, informer_text,
    functools.partial(payload_text, "Ablation: push-down x payload size",
                      pushdown),
    functools.partial(payload_text,
                      "Ablation: zero-copy co-location x object size",
                      zero_copy),
    consolidation_text, transactions_text)


def test_every_exhibit_renders():
    for exhibit in EXHIBITS:
        assert exhibit().count("\n") >= 3


if __name__ == "__main__":
    print("\n\n".join(exhibit() for exhibit in EXHIBITS))
