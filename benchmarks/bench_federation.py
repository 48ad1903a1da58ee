"""Cross-store query federation benchmark: the storefront read path.

The storefront "order details" page composes three stores (Checkout's
order, Shipping's shipment, Payment's charge) for a fanout of
``FANOUT`` orders per page -- 3 x FANOUT point reads.  Three arms
answer the same seeded page/order workload (PR-9 load substrate, same
arrival schedule and key draws per seed), written to
``BENCH_federation.json``:

- **rpc** -- RPC-composition baseline: 3 sequential GETs per order,
  the way a service-oriented storefront composes reads;
- **federated** -- the composed view forced fresh (``freshness=0``):
  one ``get_many`` per source store, in parallel, one local join;
- **materialized** -- the composed view under its declared freshness
  bound: the planner serves the incrementally maintained copy while
  its staleness estimate is within the bound, falling back to
  federated reads otherwise.

Gates (enforced by the pytest surface and CI):

- the materialized arm's page p99 beats the RPC baseline's;
- the federated arm's page p50 and p99 beat the RPC baseline's (one
  ``get_many`` per source store against 3 x FANOUT sequential GETs);
- every materialized serve happened within the freshness bound and
  ``view_freshness_violations_total`` stayed 0;
- at quiescence the federated, materialized, and RPC answers are
  *identical* for the same page keys -- on the sim backend and on a
  small realtime-backend case;
- same seed => same offered-load fingerprint across arms and repeats.

Run directly (``python benchmarks/bench_federation.py [--smoke]``) or
under pytest (``pytest benchmarks/bench_federation.py``).
"""

import argparse
import json
import zlib
from pathlib import Path

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.storefront import (
    STOREFRONT_VIEW_NAME,
    attach_storefront,
    grant_rpc_baseline,
    order_details,
    rpc_order_details,
)
from repro.load import LoadGenerator, PoissonArrivals, TrafficClass
from repro.load.scenarios import LoadScenario

SEED = 31
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_federation.json"

#: Orders composed per page read (the paper-motivating fanout).
FANOUT = 8

#: The page's declared staleness tolerance (seconds).
FRESHNESS = 0.25

WRITE_RPS = 10.0
PAGE_RPS = 20.0
DURATION = 4.0
SMOKE_DURATION = 2.0

_ITEMS = [
    ("mesh-chair", 429.0),
    ("usb-hub", 39.0),
    ("monitor-arm", 129.0),
    ("webcam", 89.0),
]


def _plain(value):
    """Canonical plain-python copy (CowMaps and tuples normalized)."""
    if hasattr(value, "items"):
        return {k: _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _digestable(records):
    return json.dumps(_plain(list(records)), sort_keys=True)


class StorefrontScenario(LoadScenario):
    """Order writes + storefront page reads, one arm at a time."""

    name = "storefront"
    latency_threshold_s = 0.25

    def __init__(self, arm, duration, seed=SEED):
        super().__init__()
        self.arm = arm
        self.app = RetailKnactorApp.build(seed=seed, obs=True,
                                          with_notify=False)
        self.view = attach_storefront(self.app, freshness=FRESHNESS)
        grant_rpc_baseline(self.app)
        self._orders = 0
        #: Deterministic page-key universe: the order keys this seed's
        #: write class will eventually create.
        self._universe = max(FANOUT, int(WRITE_RPS * duration))
        self.page_reads = []  # (strategy, staleness) per served page
        self._wire(self.app.env, self.app.runtime)

    # -- load protocol -----------------------------------------------------

    def submit(self, cls, key, rng):
        if cls.name == "orders":
            return self._place_order(rng)
        return self._read_page(rng)

    def quiesce(self):
        self.app.run_until_quiet(max_seconds=120.0)

    # -- the two request kinds ---------------------------------------------

    def _place_order(self, rng):
        self._orders += 1
        key = f"order/load{self._orders:06d}"
        item, price = _ITEMS[zlib.crc32(key.encode()) % len(_ITEMS)]
        data = {
            "items": {item: {"name": item, "priceUSD": price}},
            "address": f"{rng.randint(1, 99)} Main St",
            "cost": price,
            "totalCost": price,
            "currency": "USD",
            "status": "placed",
            "cardToken": f"tok-{rng.randint(10**6, 10**7 - 1)}",
        }
        return self.app.place_order(key, data), self.app.last_trace_id

    def _page_keys(self, rng):
        picks = rng.sample(range(1, self._universe + 1),
                           min(FANOUT, self._universe))
        return [f"order/load{n:06d}" for n in sorted(picks)]

    def _read_page(self, rng):
        keys = self._page_keys(rng)
        if self.arm == "rpc":
            return rpc_order_details(self.app, keys)

        freshness = 0.0 if self.arm == "federated" else None

        def page(env):
            result = yield order_details(self.app, keys, freshness=freshness)
            self.page_reads.append((result.strategy, result.staleness))
            return result

        return self.env.process(page(self.env))

    # -- post-run accounting -----------------------------------------------

    def strategy_mix(self):
        mix = {}
        for strategy, _ in self.page_reads:
            mix[strategy] = mix.get(strategy, 0) + 1
        return mix

    def max_served_staleness(self):
        served = [s for strategy, s in self.page_reads
                  if strategy == "materialized"]
        return max(served, default=0.0)

    def freshness_violations(self):
        return self.registry.counter(
            "view_freshness_violations_total", view=STOREFRONT_VIEW_NAME,
        ).value

    def check_identity(self):
        """Post-quiesce: all three answer paths agree on a fixed page."""
        keys = [f"order/load{n:06d}"
                for n in range(1, min(FANOUT, max(self._orders, 1)) + 1)]
        return answers_identical(self.app, keys)


def answers_identical(app, keys):
    """federated == materialized == rpc for one page of ``keys``."""
    env = app.env
    federated = env.run(until=order_details(app, keys, freshness=0))
    materialized = env.run(
        until=order_details(app, keys, consistency="any")
    )
    rpc = env.run(until=rpc_order_details(app, keys))
    return {
        "keys": len(keys),
        "records": len(federated),
        "materialized_strategy": materialized.strategy,
        "identical": (
            _digestable(federated.records)
            == _digestable(materialized.records)
            == _digestable(rpc)
        ),
    }


# -- one arm ----------------------------------------------------------------


def run_arm(arm, smoke=False, seed=SEED):
    duration = SMOKE_DURATION if smoke else DURATION
    scenario = StorefrontScenario(arm, duration, seed=seed)
    classes = [
        TrafficClass("orders", PoissonArrivals(WRITE_RPS)),
        TrafficClass("pages", PoissonArrivals(PAGE_RPS)),
    ]
    result = LoadGenerator(scenario, classes, duration, seed=seed).run()
    identity = scenario.check_identity()
    return {
        "load": result.summary(),
        "page_p50_s": result.percentile(0.50, "pages"),
        "page_p99_s": result.percentile(0.99, "pages"),
        "strategies": scenario.strategy_mix(),
        "max_served_staleness": scenario.max_served_staleness(),
        "freshness_violations": scenario.freshness_violations(),
        "identity": identity,
    }


# -- realtime parity --------------------------------------------------------


def run_realtime_identity(orders=4, seed=SEED):
    """A small wall-clock run: the identity property holds off-sim too."""
    from repro.realtime import RealtimeEnvironment

    env = RealtimeEnvironment(factor=0.0)
    app = RetailKnactorApp.build(env=env, seed=seed, with_notify=False,
                                 shape_latency=False)
    attach_storefront(app, freshness=FRESHNESS)
    grant_rpc_baseline(app)
    keys = []
    for index in range(1, orders + 1):
        key = f"order/rt{index:04d}"
        keys.append(key)
        env.run(until=app.place_order(key, {
            "items": {"usb-hub": {"name": "usb-hub", "priceUSD": 39.0}},
            "address": "1 Main St", "cost": 39.0, "totalCost": 39.0,
            "currency": "USD", "status": "placed", "cardToken": "tok-1",
        }))
    app.run_until_quiet(max_seconds=60.0)
    case = answers_identical(app, keys)
    case["orders"] = orders
    case["backend"] = "realtime"
    return case


# -- the sweep --------------------------------------------------------------


def run_sweep(smoke=False):
    arms = {arm: run_arm(arm, smoke) for arm in
            ("rpc", "federated", "materialized")}
    repeat = run_arm("materialized", smoke)
    fingerprints = {name: case["load"]["fingerprint"]
                    for name, case in arms.items()}
    deterministic = (
        repeat["load"]["fingerprint"] == fingerprints["materialized"]
        and repeat["page_p99_s"] == arms["materialized"]["page_p99_s"]
        and len(set(fingerprints.values())) == 1
    )
    realtime = run_realtime_identity(orders=2 if smoke else 4)
    rpc_p99 = arms["rpc"]["page_p99_s"]
    mat_p99 = arms["materialized"]["page_p99_s"]
    return {
        "schema": 1,
        "bench": "federation",
        "seed": SEED,
        "smoke": smoke,
        "fanout": FANOUT,
        "freshness_bound_s": FRESHNESS,
        "arms": arms,
        "rpc_over_materialized_p99": (
            rpc_p99 / mat_p99 if mat_p99 > 0 else 0.0
        ),
        "identity": all(case["identity"]["identical"]
                        for case in arms.values()),
        "realtime": realtime,
        "deterministic": deterministic,
    }


def write_results(results, path=OUTPUT):
    path = Path(path)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def describe(results):
    lines = [
        f"query federation: storefront page at fanout {results['fanout']} "
        f"(freshness bound {results['freshness_bound_s'] * 1000:.0f} ms)"
    ]
    lines.append(
        f"{'arm':>14} {'pages':>7} {'p50 ms':>9} {'p99 ms':>9} "
        f"{'strategies':>28}"
    )
    for name, case in sorted(results["arms"].items()):
        pages = case["load"]["classes"]["pages"]["offered"]
        mix = ", ".join(f"{k}:{v}" for k, v in
                        sorted(case["strategies"].items())) or "-"
        lines.append(
            f"{name:>14} {pages:>7} {case['page_p50_s'] * 1000:>9.3f} "
            f"{case['page_p99_s'] * 1000:>9.3f} {mix:>28}"
        )
    mat = results["arms"]["materialized"]
    lines.append(
        f"rpc/materialized p99 = {results['rpc_over_materialized_p99']:.1f}x; "
        f"max served staleness "
        f"{mat['max_served_staleness'] * 1000:.2f} ms; "
        f"violations {mat['freshness_violations']:.0f}"
    )
    lines.append(
        f"answer identity: sim={results['identity']} "
        f"realtime={results['realtime']['identical']}; "
        f"deterministic: {results['deterministic']}"
    )
    return "\n".join(lines)


# -- pytest surface ---------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    """Module-scoped smoke sweep; also refreshes the artifact."""
    results = run_sweep(smoke=True)
    write_results(results)
    return results


def test_materialized_page_beats_rpc_baseline(sweep):
    # The materialized view serves the page below the RPC-composition
    # baseline's p99, and below a fresh federated read's.
    arms = sweep["arms"]
    assert arms["materialized"]["page_p99_s"] < arms["rpc"]["page_p99_s"]
    assert (arms["materialized"]["page_p99_s"]
            < arms["federated"]["page_p99_s"])


def test_federated_page_beats_rpc_baseline(sweep):
    # A fresh federated page makes one get_many per source store (3
    # requests; the sources share the ApiServer's one worker slot, so it
    # costs three get charges), while the RPC baseline makes 3 x FANOUT
    # sequential GETs.
    arms = sweep["arms"]
    assert arms["federated"]["page_p50_s"] < arms["rpc"]["page_p50_s"]
    assert arms["federated"]["page_p99_s"] < arms["rpc"]["page_p99_s"]


def test_planner_serves_materialized_within_bound(sweep):
    mat = sweep["arms"]["materialized"]
    assert mat["strategies"].get("materialized", 0) > 0
    assert mat["max_served_staleness"] <= sweep["freshness_bound_s"]
    assert mat["freshness_violations"] == 0


def test_federated_arm_never_serves_stale(sweep):
    fed = sweep["arms"]["federated"]
    assert set(fed["strategies"]) == {"federated"}


def test_answer_identity(sweep):
    for name, case in sweep["arms"].items():
        assert case["identity"]["identical"], f"{name} answers diverge"
    assert sweep["realtime"]["identical"]


def test_deterministic(sweep):
    assert sweep["deterministic"] is True


# -- CLI --------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep for CI")
    parser.add_argument("--out", default=str(OUTPUT))
    args = parser.parse_args(argv)
    results = run_sweep(smoke=args.smoke)
    print(describe(results))
    out = write_results(results, args.out)
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
