"""Stage-latency measurement for Table 2.

Reconstructs the paper's per-stage breakdown of a shipment request from
the trace streams the framework components emit:

- ``t0``  Checkout initiates the order write (the write itself is
  Checkout->integrator data movement, so it belongs to C-I),
- ``t1``  the Cast integrator begins processing that correlation id,
- ``t2``  the Cast finishes local compute and starts the data exchange,
- ``t3``  the shipment object commits in Shipping's store,
- ``t4``  Shipping's reconciler observes the shipment,
- ``t5``  the carrier call completes (``fedex.done``).

Stages (paper columns):

- ``C-I``  = t1 - t0   (Checkout -> integrator data movement),
- ``I``    = t2 - t1   (integrator execution); for the push-down setup
  the integrator executes inside the store, so ``I`` = t3 - t2 and
  ``I-S`` = t4 - t3 (local write + notification),
- ``I-S``  = t4 - t2   (integrator -> Shipping data movement),
- ``S``    = t5 - t4   (shipment processing),
- ``Prop.``= t4 - t0, ``Total`` = t5 - t0.
"""

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.rpc_app import RetailRpcApp
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import K_APISERVER, K_REDIS, K_REDIS_UDF
from repro.errors import ConfigurationError
from repro.metrics.latency import StageBreakdown

#: Paper Table 2 rows (milliseconds), for side-by-side reporting.
PAPER_TABLE2 = {
    "RPC": {"C-I": None, "I": None, "I-S": None, "S": 446.0,
            "Prop.": 1.8, "Total": 447.8},
    "K-apiserver": {"C-I": 20.6, "I": 0.01, "I-S": 12.5, "S": 453.0,
                    "Prop.": 33.1, "Total": 486.1},
    "K-redis": {"C-I": 3.2, "I": 0.06, "I-S": 2.7, "S": 444.0,
                "Prop.": 5.8, "Total": 449.8},
    "K-redis-udf": {"C-I": 2.1, "I": 0.7, "I-S": 0.1, "S": 450.0,
                    "Prop.": 2.9, "Total": 452.9},
}

PROFILES = {
    "K-apiserver": K_APISERVER,
    "K-redis": K_REDIS,
    "K-redis-udf": K_REDIS_UDF,
}

#: The measured configuration: "we benchmark the Cast between the
#: Checkout and Shipping knactors" -- Payment is not on the bench path.
SHIPMENT_DXG = """\
Input:
  C: OnlineRetail/v1/Checkout/knactor-checkout
  S: OnlineRetail/v1/Shipping/knactor-shipping
DXG:
  C.order:
    shippingCost: >
      currency_convert(S.quote.price,
      S.quote.currency, this.currency)
    trackingID: S.id
  S:
    items: '[item.name for item in C.order.items]'
    addr: C.order.address
    method: >
      "air" if C.order.cost > 1000 else "ground"
"""


def run_knactor_setup(setup, orders=20, spacing=2.0, seed=7):
    """Run one Knactor setup and return its :class:`StageBreakdown`."""
    try:
        profile = PROFILES[setup]
    except KeyError:
        raise ConfigurationError(
            f"unknown setup {setup!r} (have {sorted(PROFILES)})"
        ) from None
    app = RetailKnactorApp.build(
        profile=profile, seed=seed, with_notify=False, dxg=SHIPMENT_DXG
    )
    workload = OrderWorkload(seed=seed)
    env = app.env

    def driver(env):
        for _ in range(orders):
            key, data = workload.next_order()
            yield app.place_order(key, data)
            yield env.timeout(spacing)

    env.process(driver(env))
    app.run_until_quiet(max_seconds=orders * spacing + 60.0)
    return extract_stages(app, setup, pushdown=profile.pushdown)


def extract_stages(app, setup, pushdown):
    tracer = app.tracer
    breakdown = StageBreakdown(setup)
    t0_by_key = tracer.timestamps("request", "start", key_attr="key")
    commit_by_key = tracer.timestamps("store", "commit", key_attr="key")
    cast_begin = _first_by_attr(tracer, "cast", "begin", "cid")
    writes_begin = _first_by_attr(tracer, "cast", "writes.begin", "cid")
    observed = _shipping_observed(tracer)
    fedex_done = _first_by_attr(tracer, "reconciler", "fedex.done", "key")
    order_read = _first_order_read(tracer)

    for order_key in app.orders_placed:
        cid = order_key.split("/", 1)[1]
        t0 = t0_by_key.get(order_key)  # checkout initiates the order write
        t1 = cast_begin.get(cid)
        t2 = writes_begin.get(cid)
        t3 = commit_by_key.get(f"knactor-shipping/{cid}")
        t4 = observed.get(cid)
        t5 = fedex_done.get(cid)
        if None in (t0, t1, t2, t3, t4, t5):
            continue  # request did not complete within the horizon
        if pushdown:
            stage_i = t3 - t2
            stage_is = t4 - t3
        else:
            # The integrator's read of the *order* is Checkout<->integrator
            # data movement; attribute it to C-I, not I-S.
            read_c = order_read.get(cid, 0.0)
            stage_i = t2 - t1
            stage_is = (t4 - t2) - read_c
            t1 = t1 + 0.0  # keep t1 for Prop.; C-I grows by read_c below
        stage_ci = (t1 - t0) + (0.0 if pushdown else order_read.get(cid, 0.0))
        breakdown.add_request(
            {
                "C-I": stage_ci,
                "I": stage_i,
                "I-S": stage_is,
                "S": t5 - t4,
                "Prop.": t4 - t0,
                "Total": t5 - t0,
            }
        )
    return breakdown


def _first_order_read(tracer):
    """Duration of the integrator's first read of alias C, per cid."""
    out = {}
    for event in tracer.events:
        if (
            event.category == "exchange"
            and event.name == "read.done"
            and event.attrs.get("alias") == "C"
        ):
            cid = event.attrs.get("cid")
            if cid is not None and cid not in out:
                out[cid] = event.attrs.get("duration", 0.0)
    return out


def run_rpc_setup(orders=20):
    """Run the RPC baseline; only S / Prop. / Total are defined for it.

    Orders go out 2 s apart from seed 7, :func:`run_knactor_setup`'s
    defaults."""
    app = RetailRpcApp.build(seed=7)
    workload = OrderWorkload(seed=7)
    env = app.env
    breakdown = StageBreakdown("RPC")

    def driver(env):
        for _ in range(orders):
            _key, data = workload.next_order()
            begin_events = len(_ship_events(app, "shiporder.begin"))
            yield app.place_order(data)
            begins = _ship_events(app, "shiporder.begin")
            ends = _ship_events(app, "shiporder.end")
            fedex_b = _ship_events(app, "fedex.begin")
            fedex_d = _ship_events(app, "fedex.done")
            t_begin = begins[begin_events]
            t_end = ends[begin_events]
            service = fedex_d[begin_events] - fedex_b[begin_events]
            breakdown.add_request(
                {
                    "S": service,
                    "Prop.": (t_end - t_begin) - service,
                    "Total": t_end - t_begin,
                }
            )
            yield env.timeout(2.0)

    env.run(until=env.process(driver(env)))
    return breakdown


def _ship_events(app, name):
    return app.tracer.timestamps("rpc", name)


def _first_by_attr(tracer, category, name, attr):
    return tracer.timestamps(category, name, key_attr=attr)


def _shipping_observed(tracer):
    """First 'observed' per shipment key, from the shipping reconciler."""
    out = {}
    for event in tracer.events:
        if (
            event.category == "reconciler"
            and event.name == "observed"
            and event.attrs.get("knactor") == "shipping"
        ):
            key = event.attrs.get("key")
            if key is not None and key not in out:
                out[key] = event.time
    return out

