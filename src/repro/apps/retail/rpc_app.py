"""The API-centric (RPC) variant of the online retail app.

This is Fig. 3a: Checkout holds *client stubs for four other services*
(Currency, Payment, Shipping, Email) and orchestrates an order as a
sequence of synchronous calls.  The coupling the paper criticizes is
visible in the constructor: Checkout imports every downstream IDL.
"""

from dataclasses import dataclass, field

from repro import config
from repro.apps.retail import protos
from repro.apps.retail.knactors import SHIPPING_RATES
from repro.errors import RPCStatusError
from repro.obs import CausalTracer, current_context, use
from repro.obs.context import end_span_on
from repro.rpc import RPCChannel, RPCServer, build_client_class, parse_idl
from repro.simnet import Environment, Network


class ShippingServiceImpl:
    """Server-side Shipping: quotes and carrier calls.  The carrier call
    is annotated on the ``ShipOrder`` rpc span it runs under (Table 2's
    S stage)."""

    def __init__(self, env, seed=None):
        self.env = env
        self._carrier = config.shipment_latency_model(seed=seed)
        self._counter = 0

    def get_quote(self, request):
        items = request.get("items", [])
        return {"cost_usd": SHIPPING_RATES["ground"] * max(1, len(items)) / 2}

    def ship_order(self, request):
        ctx = current_context()  # the ShipOrder rpc span, when traced
        if ctx is not None:
            ctx.sink.annotate(ctx, "fedex.begin")
        yield self.env.timeout(self._carrier.sample())
        if ctx is not None:
            ctx.sink.annotate(ctx, "fedex.done")
        self._counter += 1
        method = request.get("method", "ground")
        return {
            "tracking_id": f"trk-{self._counter:05d}",
            "shipping_cost": SHIPPING_RATES.get(method, SHIPPING_RATES["ground"]),
            "currency": "USD",
        }


class PaymentServiceImpl:
    processor_time = 0.032

    def __init__(self, env):
        self.env = env
        self._counter = 0

    def charge(self, request):
        yield self.env.timeout(self.processor_time)
        if not request.get("card_token"):
            raise RPCStatusError("INVALID_ARGUMENT", "missing card token")
        self._counter += 1
        return {"transaction_id": f"ch-{self._counter:05d}"}


class CurrencyServiceImpl:
    RATES = {"USD": 1.0, "EUR": 0.9259, "GBP": 0.7874, "CAD": 1.3699}

    def convert(self, request):
        source = request.get("from", {})
        amount = source.get("amount", 0.0)
        from_code = source.get("currency_code", "USD")
        to_code = request.get("to_code", "USD")
        usd = amount / self.RATES[from_code]
        return {
            "amount": round(usd * self.RATES[to_code], 4),
            "currency_code": to_code,
        }

    def get_supported_currencies(self, request):
        return {"currency_codes": sorted(self.RATES)}


class EmailServiceImpl:
    smtp_time = 0.012

    def __init__(self, env):
        self.env = env
        self.sent = []

    def send_order_confirmation(self, request):
        yield self.env.timeout(self.smtp_time)
        self.sent.append(request)
        return {}


class ProductCatalogServiceImpl:
    CATALOG = [
        {"id": "mug", "name": "mug", "price_usd": 8.5, "categories": ["kitchen"]},
        {"id": "pen", "name": "pen", "price_usd": 2.2, "categories": ["office"]},
        {"id": "monitor", "name": "monitor", "price_usd": 329.0,
         "categories": ["office", "electronics"]},
    ]

    def list_products(self, request):
        size = request.get("page_size") or len(self.CATALOG)
        return {"products": self.CATALOG[:size]}

    def get_product(self, request):
        for product in self.CATALOG:
            if product["id"] == request.get("id"):
                return product
        raise RPCStatusError("NOT_FOUND", f"no product {request.get('id')!r}")

    def search_products(self, request):
        query = request.get("query", "")
        return {"results": [p for p in self.CATALOG if query in p["name"]]}


class CartServiceImpl:
    def __init__(self):
        self._carts = {}

    def add_item(self, request):
        cart = self._carts.setdefault(request["user_id"], [])
        cart.append(request["item"])
        return {}

    def get_cart(self, request):
        return {
            "user_id": request["user_id"],
            "items": self._carts.get(request["user_id"], []),
        }

    def empty_cart(self, request):
        self._carts.pop(request["user_id"], None)
        return {}


class RecommendationServiceImpl:
    def list_recommendations(self, request):
        exclude = set(request.get("product_ids", []))
        picks = [p for p in ("mug", "notebook", "desk-lamp") if p not in exclude]
        return {"product_ids": picks}


class AdServiceImpl:
    def get_ads(self, request):
        keys = request.get("context_keys", ["default"])
        return {
            "ads": [
                {"redirect_url": f"/shop/{k}", "text": f"Deals on {k}!"}
                for k in keys
            ]
        }


class CheckoutServiceImpl:
    """THE coupling artifact: Checkout orchestrates four downstreams.

    Compare with :class:`repro.apps.retail.knactors.CheckoutReconciler`,
    which holds zero stubs.
    """

    def __init__(self, env, currency_stub, payment_stub, shipping_stub,
                 email_stub):
        self.env = env
        self.currency = currency_stub
        self.payment = payment_stub
        self.shipping = shipping_stub
        self.email = email_stub
        self._counter = 0

    def place_order(self, request):
        self._counter += 1
        order_id = f"o{self._counter:05d}"
        items = request.get("items", [])
        cost = sum(item.get("price_usd", 0.0) for item in items)
        currency_code = request.get("currency_code", "USD")

        # 1. Convert the cart total into the user's currency.
        money = yield self.currency.convert(
            {"from": {"amount": cost, "currency_code": "USD"},
             "to_code": currency_code}
        )
        # 2. Charge the card.
        charge = yield self.payment.charge(
            {"amount": money["amount"], "currency_code": currency_code,
             "card_token": request.get("card_token", "")}
        )
        # 3. Create the shipment (the measured sub-request of Table 2).
        method = "air" if cost > 1000 else "ground"
        shipment = yield self.shipping.ship_order(
            {"items": [{"name": item["name"]} for item in items],
             "address": request.get("address", ""),
             "method": method}
        )
        # 4. Send the confirmation email (fire-and-forget tolerated).
        try:
            yield self.email.send_order_confirmation(
                {"email": request.get("email", ""), "order_id": order_id,
                 "tracking_id": shipment["tracking_id"]}
            )
        except RPCStatusError:
            pass
        total = round(money["amount"] + shipment["shipping_cost"], 4)
        return {
            "order_id": order_id,
            "tracking_id": shipment["tracking_id"],
            "transaction_id": charge["transaction_id"],
            "total_cost": total,
        }


@dataclass
class RetailRpcApp:
    """A built instance of the RPC retail app."""

    env: Environment
    network: Network
    tracer: CausalTracer
    servers: dict
    idls: dict
    checkout_stub: object
    impls: dict = field(default_factory=dict)

    @classmethod
    def build(cls, env=None, seed=7):
        env = env if env is not None else Environment()
        network = Network(env, default_latency=config.NETWORK_HOP)
        tracer = CausalTracer(env)
        idls = {
            name: parse_idl(text)
            for name, (_file, text) in protos.ALL_PROTOS.items()
        }
        servers = {}

        def server_for(service, location):
            server = RPCServer(env, network, location)
            server.dispatch_overhead = config.RPC_DISPATCH_OVERHEAD
            servers[service] = server
            return server

        def stub_for(service, client_location):
            channel = RPCChannel(env, servers[service], client_location)
            return build_client_class(idls[service], service)(channel)

        shipping_impl = ShippingServiceImpl(env, seed=seed)
        shipping_server = server_for("ShippingService", "shipping")
        shipping_server.register(
            "ShippingService", "GetQuote", shipping_impl.get_quote,
            idl=idls["ShippingService"],
        )
        shipping_server.register(
            "ShippingService", "ShipOrder", shipping_impl.ship_order,
            idl=idls["ShippingService"],
        )

        payment_impl = PaymentServiceImpl(env)
        server_for("PaymentService", "payment").register(
            "PaymentService", "Charge", payment_impl.charge,
            idl=idls["PaymentService"],
        )

        currency_impl = CurrencyServiceImpl()
        currency_server = server_for("CurrencyService", "currency")
        currency_server.register(
            "CurrencyService", "Convert", currency_impl.convert,
            idl=idls["CurrencyService"],
        )
        currency_server.register(
            "CurrencyService", "GetSupportedCurrencies",
            currency_impl.get_supported_currencies,
            idl=idls["CurrencyService"],
        )

        email_impl = EmailServiceImpl(env)
        server_for("EmailService", "email").register(
            "EmailService", "SendOrderConfirmation",
            email_impl.send_order_confirmation,
            idl=idls["EmailService"],
        )

        catalog_impl = ProductCatalogServiceImpl()
        catalog_server = server_for("ProductCatalogService", "productcatalog")
        for method, handler in (
            ("ListProducts", catalog_impl.list_products),
            ("GetProduct", catalog_impl.get_product),
            ("SearchProducts", catalog_impl.search_products),
        ):
            catalog_server.register(
                "ProductCatalogService", method, handler,
                idl=idls["ProductCatalogService"],
            )

        cart_impl = CartServiceImpl()
        cart_server = server_for("CartService", "cart")
        for method, handler in (
            ("AddItem", cart_impl.add_item),
            ("GetCart", cart_impl.get_cart),
            ("EmptyCart", cart_impl.empty_cart),
        ):
            cart_server.register(
                "CartService", method, handler, idl=idls["CartService"]
            )

        recommendation_impl = RecommendationServiceImpl()
        server_for("RecommendationService", "recommendation").register(
            "RecommendationService", "ListRecommendations",
            recommendation_impl.list_recommendations,
            idl=idls["RecommendationService"],
        )

        ad_impl = AdServiceImpl()
        server_for("AdService", "ad").register(
            "AdService", "GetAds", ad_impl.get_ads, idl=idls["AdService"]
        )

        checkout_impl = CheckoutServiceImpl(
            env,
            currency_stub=stub_for("CurrencyService", "checkout"),
            payment_stub=stub_for("PaymentService", "checkout"),
            shipping_stub=stub_for("ShippingService", "checkout"),
            email_stub=stub_for("EmailService", "checkout"),
        )
        checkout_server = server_for("CheckoutService", "checkout")
        checkout_server.register(
            "CheckoutService", "PlaceOrder", checkout_impl.place_order,
            idl=idls["CheckoutService"],
        )

        frontend_checkout_stub = stub_for("CheckoutService", "frontend")
        return cls(
            env=env,
            network=network,
            tracer=tracer,
            servers=servers,
            idls=idls,
            checkout_stub=frontend_checkout_stub,
            impls={
                "shipping": shipping_impl,
                "payment": payment_impl,
                "currency": currency_impl,
                "email": email_impl,
                "checkout": checkout_impl,
                "productcatalog": catalog_impl,
                "cart": cart_impl,
                "recommendation": recommendation_impl,
                "ad": ad_impl,
            },
        )

    def place_order(self, order_data):
        """Frontend places an order through the Checkout API, as the root
        of a causal trace: every rpc it fans out to opens a span."""
        items = [
            {"name": item["name"], "price_usd": item["priceUSD"]}
            for item in order_data["items"].values()
        ]
        request = {
            "user_id": "u-1",
            "email": order_data.get("email", "user@example.com"),
            "address": order_data["address"],
            "currency_code": order_data["currency"],
            "card_token": order_data.get("cardToken", "tok"),
            "items": items,
        }
        root = self.tracer.new_trace("place-order", service="frontend")
        with use(root):
            proc = self.checkout_stub.place_order(request)
        return end_span_on(proc, root)

    def rpc_method_count(self):
        """Composition surface: registered rpc methods across services."""
        return sum(len(s._methods) for s in self.servers.values())
