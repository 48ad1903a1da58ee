"""Composition tasks T1-T3 (Table 1), with real artifacts.

Each task is realized twice:

- **API-centric**: the concrete files a developer touches in the RPC
  variant -- proto definitions, stub wiring, orchestration code, configs,
  build targets, deployment manifests.  Proto artifacts are the very
  texts :mod:`repro.apps.retail.protos` parses; the orchestration diffs
  mirror :mod:`repro.apps.retail.rpc_app`.
- **Knactor**: the integrator (re)configuration -- a DXG fragment.

The benchmark counts operations / files / SLOC from these artifacts; it
does not hard-code the paper's numbers.
"""


from repro.apps.retail import protos
from repro.cluster import Cluster, Image, ImageRegistry, rolling_update
from repro.metrics.costmodel import CompositionTask, TaskComparison
from repro.metrics.sloc import Artifact
from repro.rpc import generate_client_stub, parse_idl

# ---------------------------------------------------------------------------
# Shared API-centric artifacts
# ---------------------------------------------------------------------------

_CHECKOUT_CLIENTS_T1 = '''\
"""Client wiring for Checkout's downstream services (generated stubs)."""
from generated import payment_pb2_grpc, shipping_pb2_grpc
import grpc

def payment_stub(endpoint):
    channel = grpc.insecure_channel(endpoint)
    return payment_pb2_grpc.PaymentServiceStub(channel)

def shipping_stub(endpoint):
    channel = grpc.insecure_channel(endpoint)
    return shipping_pb2_grpc.ShippingServiceStub(channel)
'''

_CHECKOUT_SERVICE_T1 = '''\
"""Checkout orchestration: charge the card, then create the shipment."""
from clients import payment_stub, shipping_stub
from generated import payment_pb2, shipping_pb2
from config import PAYMENT_ENDPOINT, SHIPPING_ENDPOINT

payment = payment_stub(PAYMENT_ENDPOINT)
shipping = shipping_stub(SHIPPING_ENDPOINT)

def place_order(order):
    charge_request = payment_pb2.ChargeRequest(
        amount=order.total_cost,
        currency_code=order.currency,
        card_token=order.card_token,
    )
    try:
        charge = payment.Charge(charge_request, timeout=5.0)
    except grpc.RpcError as error:
        raise CheckoutError(f"payment failed: {error.code()}") from error
    ship_request = shipping_pb2.ShipOrderRequest(
        items=[shipping_pb2.Item(name=item.name) for item in order.items],
        address=order.address,
        method="ground",
    )
    try:
        shipment = shipping.ShipOrder(ship_request, timeout=10.0)
    except grpc.RpcError as error:
        payment.Refund(payment_pb2.RefundRequest(id=charge.transaction_id))
        raise CheckoutError(f"shipping failed: {error.code()}") from error
    order.payment_id = charge.transaction_id
    order.tracking_id = shipment.tracking_id
    order.shipping_cost = shipment.shipping_cost
    return order
'''

_CHECKOUT_CONFIG_T1 = """\
payment:
  endpoint: payment.retail.svc:7001
  timeout_seconds: 5
shipping:
  endpoint: shipping.retail.svc:7002
  timeout_seconds: 10
"""

_CHECKOUT_DEPLOY = """\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: checkout
spec:
  replicas: 3
  template:
    spec:
      containers:
        - name: checkout
          image: retail/checkout:v{version}
          env:
            - name: PAYMENT_ENDPOINT
              value: payment.retail.svc:7001
            - name: SHIPPING_ENDPOINT
              value: shipping.retail.svc:7002
"""

_MAKEFILE_T1 = """\
protos:
\tprotoc --python_out=generated payment.proto
\tprotoc --python_out=generated shipping.proto
build: protos
\tdocker build -t retail/checkout:v2 .
push: build
\tdocker push retail/checkout:v2
"""

_REQUIREMENTS_T1 = """\
grpcio==1.62.0
grpcio-tools==1.62.0
"""

# ---------------------------------------------------------------------------
# T1: compose Payment and Shipping with Checkout
# ---------------------------------------------------------------------------

#: The Knactor side of T1: one integrator configuration fragment.
T1_KNACTOR_DXG = """\
# Compose Payment and Shipping with Checkout (integrator config only).
C.order:
  paymentID: P.id
  trackingID: S.id
P:
  amount: C.order.totalCost
  currency: C.order.currency
S:
  items: '[item.name for item in C.order.items]'
  addr: C.order.address
"""


def task1():
    api = CompositionTask(
        task="T1",
        approach="API",
        description="compose Payment and Shipping with Checkout via gRPC",
        operations=("c", "f", "b", "d"),
        services_rebuilt=("checkout",),
        artifacts=[
            Artifact("protos/payment.proto", protos.PAYMENT_PROTO, "proto"),
            Artifact("protos/shipping.proto", protos.SHIPPING_PROTO, "proto"),
            Artifact("checkout/clients.py", _CHECKOUT_CLIENTS_T1),
            Artifact("checkout/service.py", _CHECKOUT_SERVICE_T1),
            Artifact("checkout/config.yaml", _CHECKOUT_CONFIG_T1, "yaml"),
            Artifact(
                "deploy/checkout.yaml",
                _CHECKOUT_DEPLOY.format(version=2),
                "yaml",
            ),
            Artifact("checkout/Makefile", _MAKEFILE_T1, "shell"),
            Artifact("checkout/requirements.txt", _REQUIREMENTS_T1, "text"),
        ],
    )
    knactor = CompositionTask(
        task="T1",
        approach="KN",
        description="configure the Cast integrator's DXG",
        operations=("f",),
        artifacts=[Artifact("integrator/retail-dxg.yaml", T1_KNACTOR_DXG, "dxg")],
    )
    return TaskComparison(api=api, knactor=knactor)


# ---------------------------------------------------------------------------
# T2: add a shipment policy based on the order price
# ---------------------------------------------------------------------------

_CHECKOUT_SERVICE_T2_DIFF = '''\
AIR_SHIPPING_THRESHOLD_USD = load_config("air_shipping_threshold", 1000.0)

def select_shipping_method(order):
    """Business rule: expensive orders ship by air."""
    try:
        total_usd = convert_to_usd(order.total_cost, order.currency)
    except CurrencyError:
        log.warning("currency conversion failed; defaulting to ground")
        return "ground"
    if total_usd > AIR_SHIPPING_THRESHOLD_USD:
        metrics.increment("checkout.air_shipments")
        return "air"
    return "ground"
'''

_CHECKOUT_CONFIG_T2_DIFF = """\
shipping_policy:
  air_shipping_threshold: 1000.0
  fallback_method: ground
"""

#: The Knactor side of T2: literally one DXG line (Fig. 6, line 22).
T2_KNACTOR_DXG = """\
method: '"air" if C.order.cost > 1000 else "ground"'
"""


def task2():
    api = CompositionTask(
        task="T2",
        approach="API",
        description="price-based shipment policy inside Checkout",
        operations=("c", "f", "b", "d"),
        services_rebuilt=("checkout",),
        artifacts=[
            Artifact("checkout/service.py", _CHECKOUT_SERVICE_T2_DIFF),
            Artifact("checkout/config.yaml", _CHECKOUT_CONFIG_T2_DIFF, "yaml"),
        ],
    )
    knactor = CompositionTask(
        task="T2",
        approach="KN",
        description="one new assignment in the running integrator",
        operations=("f",),
        artifacts=[Artifact("integrator/retail-dxg.yaml", T2_KNACTOR_DXG, "dxg")],
    )
    return TaskComparison(api=api, knactor=knactor)


# ---------------------------------------------------------------------------
# T3: update the Shipping schema (v1 -> v2)
# ---------------------------------------------------------------------------

_CHECKOUT_CLIENTS_T3_DIFF = '''\
"""Adapt Checkout to shipping.v2 (Destination message, renamed fields)."""
from generated import shipping_v2_pb2_grpc
import grpc

def shipping_stub(endpoint):
    channel = grpc.insecure_channel(endpoint)
    return shipping_v2_pb2_grpc.ShippingServiceStub(channel)
'''

_CHECKOUT_SERVICE_T3_DIFF = '''\
from generated import shipping_v2_pb2

def build_ship_request(order):
    """shipping.v2 restructured the request: nested Destination, items
    with quantities, 'method' renamed to 'service_level'."""
    street, zip_code = split_address(order.address)
    destination = shipping_v2_pb2.Destination(
        street_address=street,
        zip_code=zip_code,
    )
    items = [
        shipping_v2_pb2.Item(product_name=item.name, quantity=1)
        for item in order.items
    ]
    return shipping_v2_pb2.ShipOrderRequest(
        items=items,
        destination=destination,
        service_level=select_shipping_method(order),
    )

def split_address(address):
    parts = address.rsplit(" ", 1)
    if len(parts) == 2 and parts[1].isdigit():
        return parts[0], parts[1]
    return address, "00000"

def place_order(order):
    request = build_ship_request(order)
    try:
        shipment = shipping.ShipOrder(request, timeout=10.0)
    except grpc.RpcError as error:
        if error.code() == grpc.StatusCode.UNIMPLEMENTED:
            # Mixed-version rollout: a v1 replica answered. Retry once so
            # the LB can pick a v2 replica; fail the order otherwise.
            shipment = shipping.ShipOrder(request, timeout=10.0)
        else:
            raise CheckoutError(f"shipping failed: {error.code()}") from error
    order.tracking_id = shipment.tracking_id
    order.shipping_cost = shipment.shipping_cost
    order.shipping_api_version = "v2"
    return order
'''

#: The Knactor side of T3: re-map the S section to the new schema.
T3_KNACTOR_DXG = """\
# Shipping schema v2: nested destination, items with quantity.
S:
  items: '[{"product_name": item.name, "quantity": 1} for item in C.order.items]'
  destination:
    street_address: C.order.address
    zip_code: '"00000"'
  service_level: >
    "air" if C.order.cost > 1000 else "ground"
"""


def task3():
    api = CompositionTask(
        task="T3",
        approach="API",
        description="adapt Checkout to the Shipping v2 schema",
        operations=("c", "f", "b", "d"),
        services_rebuilt=("checkout",),
        artifacts=[
            Artifact("protos/shipping.proto", protos.SHIPPING_PROTO_V2, "proto"),
            Artifact("checkout/clients.py", _CHECKOUT_CLIENTS_T3_DIFF),
            Artifact("checkout/service.py", _CHECKOUT_SERVICE_T3_DIFF),
            Artifact(
                "deploy/checkout.yaml",
                _CHECKOUT_DEPLOY.format(version=3),
                "yaml",
            ),
        ],
    )
    knactor = CompositionTask(
        task="T3",
        approach="KN",
        description="re-map the integrator's S section",
        operations=("f",),
        artifacts=[Artifact("integrator/retail-dxg.yaml", T3_KNACTOR_DXG, "dxg")],
    )
    return TaskComparison(api=api, knactor=knactor)


def all_tasks():
    return [task1(), task2(), task3()]


# ---------------------------------------------------------------------------
# Supporting evidence
# ---------------------------------------------------------------------------


def generated_stub_sloc():
    """SLOC of the stubs the API approach *generates and carries*.

    Not counted in Table 1 (generated code is not hand-changed), but
    reported alongside: it is build/deploy weight the Knactor approach
    does not have.
    """
    total = 0
    for name in ("PaymentService", "ShippingService"):
        _file, text = protos.ALL_PROTOS[name]
        stub = generate_client_stub(parse_idl(text))
        total += len([l for l in stub.splitlines() if l.strip()])
    return total


#: Checkout's size as built by ``b`` (SLOC).
CHECKOUT_SLOC = 3200


def rebuild_redeploy_seconds(env):
    """Virtual-time cost of the ``b`` + ``d`` operations for Checkout.

    Returns a process event with ``(build_seconds, rollout_seconds)``.
    """
    registry = ImageRegistry(env)
    cluster = Cluster(env)

    def run(env):
        yield cluster.create_deployment("checkout", Image("checkout", "v1"),
                                        replicas=3)
        build = yield registry.build_and_push(
            Image("checkout", "v2"), service_sloc=CHECKOUT_SLOC
        )
        rollout = yield rolling_update(cluster, "checkout", Image("checkout", "v2"))
        return (build.total_seconds, rollout.duration)

    return env.process(run(env))
