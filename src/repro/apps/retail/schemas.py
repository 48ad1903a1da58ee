"""Data-store schemas for the 11 retail knactors.

``CHECKOUT`` reproduces the paper's Fig. 5 exactly (field names, types,
and ``+kr: external`` annotations), plus a ``secret`` card token (for
field-level access control) and the ``cid`` its shipment is keyed by.
"""

#: Fig. 5, extended: the Checkout knactor's order store.
CHECKOUT = """\
schema: OnlineRetail/v1/Checkout/Order
items: object
address: string
cost: number
shippingCost: number # +kr: external
totalCost: number
currency: string
paymentID: string # +kr: external
trackingID: string # +kr: external
status: string
email: string
cardToken: string # +kr: secret
cid: string
"""

#: Shipping holds shipments created by the integrator; its reconciler
#: produces the id (tracking number) and quote by calling the carrier.
SHIPPING = """\
schema: OnlineRetail/v1/Shipping/Shipment
items: array # +kr: external
addr: string # +kr: external
method: string # +kr: external
id: string
quote:
  price: number
  currency: string
status: string
"""

#: Payment charges the given amount; its reconciler produces the id.
PAYMENT = """\
schema: OnlineRetail/v1/Payment/Charge
amount: number # +kr: external
currency: string # +kr: external
id: string
status: string
"""

CART = """\
schema: OnlineRetail/v1/Cart/Cart
userID: string
items: object
checkedOut: boolean
"""

PRODUCT_CATALOG = """\
schema: OnlineRetail/v1/ProductCatalog/Product
name: string
priceUSD: number
categories: array<string>
inStock: boolean
"""

CURRENCY = """\
schema: OnlineRetail/v1/Currency/Rate
code: string
ratePerUSD: number
"""

EMAIL = """\
schema: OnlineRetail/v1/Email/Notification
to: string # +kr: external
template: string # +kr: external
orderRef: string # +kr: external
sent: boolean
"""

FRONTEND = """\
schema: OnlineRetail/v1/Frontend/Session
userID: string
page: string
cartRef: string
"""

RECOMMENDATION = """\
schema: OnlineRetail/v1/Recommendation/Suggestion
userID: string # +kr: external
productIDs: array<string>
"""

AD = """\
schema: OnlineRetail/v1/Ad/Placement
context: string # +kr: external
creative: string
"""

LOADGEN = """\
schema: OnlineRetail/v1/LoadGen/Run
rate: number
totalOrders: number
issued: number
"""

#: knactor name -> (hosted store name, schema text)
ALL_SCHEMAS = {
    "checkout": CHECKOUT,
    "shipping": SHIPPING,
    "payment": PAYMENT,
    "cart": CART,
    "productcatalog": PRODUCT_CATALOG,
    "currency": CURRENCY,
    "email": EMAIL,
    "frontend": FRONTEND,
    "recommendation": RECOMMENDATION,
    "ad": AD,
    "loadgen": LOADGEN,
}
