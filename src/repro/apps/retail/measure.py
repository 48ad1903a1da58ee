"""Stage-latency measurement for Table 2.

Reconstructs the paper's per-stage breakdown of a shipment request from
the causal spans of a run built with ``obs=True``:

- ``t0``  Checkout initiates the order write: the ``place-order`` root
  span starts (the write itself is Checkout->integrator data movement,
  so it belongs to C-I),
- ``t1``  the Cast integrator's ``exchange`` span for that correlation
  id starts,
- ``t2``  the Cast finishes local compute and starts the data exchange
  (the exchange span's ``writes.begin`` annotation),
- ``t3``  the shipment object commits in Shipping's store (its ``write``
  span),
- ``t4``  Shipping's reconciler observes the shipment (the ``observed``
  annotation on that write span),
- ``t5``  the carrier call completes (the ``fedex.done`` annotation on
  Shipping's reconcile span).

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
        profile=profile, seed=seed, with_notify=False, dxg=SHIPMENT_DXG,
        obs=True,
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
    """Table 2's stages per placed order, from the app's causal spans."""
    tracer = app.tracer
    breakdown = StageBreakdown(setup)
    t0_by_key = _first_starts(tracer, "place-order", "key")
    cast_begin = _first_starts(tracer, "exchange", "cid")
    commit_by_key = _first_starts(tracer, "write", "key")
    writes_begin = _first_marks(tracer, "writes.begin", "cid")
    observed = _first_marks(tracer, "observed", "key", knactor="shipping")
    fedex_done = _first_marks(tracer, "fedex.done", "key")
    # The duration of the integrator's first read of the order, per cid.
    order_read = {
        cid: attrs["duration"] for cid, (_time, attrs)
        in _first_marks(tracer, "read.done", "cid", alias="C").items()
    }

    for order_key in app.orders_placed:
        cid = order_key.split("/", 1)[1]
        t0 = t0_by_key.get(order_key)  # checkout initiates the order write
        t1 = cast_begin.get(cid)
        t2 = writes_begin.get(cid, (None,))[0]
        t3 = commit_by_key.get(f"knactor-shipping/{cid}")
        t4 = observed.get(cid, (None,))[0]
        t5 = fedex_done.get(cid, (None,))[0]
        if None in (t0, t1, t2, t3, t4, t5):
            continue  # request did not complete within the horizon
        if pushdown:
            stage_i = t3 - t2
            stage_is = t4 - t3
        else:
            # The integrator's read of the *order* is Checkout<->integrator
            # data movement; attribute it to C-I, not I-S.
            stage_i = t2 - t1
            stage_is = (t4 - t2) - order_read.get(cid, 0.0)
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


def _first_starts(tracer, name, attr):
    """Start of the first ``name`` span per value of its ``attr``."""
    out = {}
    for span in tracer.spans.values():
        if span.name == name:
            out.setdefault(span.attrs.get(attr), span.start)
    return out


def _first_marks(tracer, name, attr, **match):
    """``(time, attrs)`` of the earliest ``name`` annotation per value of
    ``attr`` (the annotation's own, else its span's), among those whose
    attributes include every ``match`` item."""
    out = {}
    for span, time, attrs in tracer.annotations(name):
        if any(attrs.get(k) != v for k, v in match.items()):
            continue
        key = attrs.get(attr, span.attrs.get(attr))
        if key not in out or time < out[key][0]:
            out[key] = (time, attrs)
    return out


def run_rpc_setup(orders=20):
    """Run the RPC baseline; only S / Prop. / Total are defined for it.

    Orders go out 2 s apart from seed 7, :func:`run_knactor_setup`'s
    defaults.  Each order's ``ShipOrder`` rpc span is the measured
    sub-request, and its ``fedex.*`` annotations bound the carrier
    call."""
    app = RetailRpcApp.build(seed=7)
    workload = OrderWorkload(seed=7)
    env = app.env

    def driver(env):
        for _ in range(orders):
            _key, data = workload.next_order()
            yield app.place_order(data)
            yield env.timeout(2.0)

    env.run(until=env.process(driver(env)))
    breakdown = StageBreakdown("RPC")
    for span in app.tracer.spans.values():
        if span.name != "rpc:ShippingService/ShipOrder":
            continue
        fedex = {name: time for time, name, _attrs in span.events}
        service = fedex["fedex.done"] - fedex["fedex.begin"]
        breakdown.add_request(
            {
                "S": service,
                "Prop.": (span.end - span.start) - service,
                "Total": span.end - span.start,
            }
        )
    return breakdown
