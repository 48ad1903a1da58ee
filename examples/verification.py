#!/usr/bin/env python
"""Framework support for robust composition (paper §5).

Shows the two verification layers a Cast developer gets:

1. **Static analysis** -- dependency cycles, unknown functions, schema
   violations, unused `+kr: external` fields -- rejected before the
   integrator ever runs.
2. **Bounded confluence checking** -- does the composition converge to
   the same state under every cross-store event interleaving?  Shows
   what an order-dependence bug does at run time: a first-writer-wins
   latch, which static analysis rejects as a self-cycle, settles on
   whichever event came first.

Run:  python examples/verification.py
"""

from repro.core.dxg import analyze, check_confluence, parse_dxg, standard_functions
from repro.schema import Schema

CHECKOUT = Schema.from_text(
    "schema: Retail/v1/Checkout/Order\n"
    "cost: number\n"
    "address: string\n"
    "trackingID: string # +kr: external\n"
    "giftNote: string # +kr: external\n"
)
SHIPPING = Schema.from_text(
    "schema: Retail/v1/Shipping/Shipment\n"
    "addr: string # +kr: external\n"
    "method: string # +kr: external\n"
    "id: string\n"
)


def show(title, text):
    print(f"--- {title} ---")
    print(text)
    print()


def main():
    print("1. static analysis rejects a cyclic composition outright:\n")
    cyclic = parse_dxg(
        "Input:\n"
        "  C: Retail/v1/Checkout/knactor-checkout\n"
        "  S: Retail/v1/Shipping/knactor-shipping\n"
        "DXG:\n"
        "  C.order:\n"
        "    trackingID: S.id\n"
        "  S:\n"
        "    id: C.order.trackingID\n"  # the cycle
    )
    report = analyze(cyclic, functions=standard_functions())
    show("analysis", report.summary())

    print("2. a healthy spec passes, but warns about declared intent the")
    print("   composition does not meet (unused external field):\n")
    healthy = parse_dxg(
        "Input:\n"
        "  C: Retail/v1/Checkout/knactor-checkout\n"
        "  S: Retail/v1/Shipping/knactor-shipping\n"
        "DXG:\n"
        "  C.order:\n"
        "    trackingID: S.id\n"
        "  S:\n"
        "    addr: C.order.address\n"
        "    method: '\"air\" if C.order.cost > 1000 else \"ground\"'\n"
    )
    report = analyze(
        healthy, functions=standard_functions(),
        schemas={"C": CHECKOUT, "S": SHIPPING},
    )
    show("analysis", report.summary())

    print("3. the bounded checker proves the healthy spec confluent under")
    print("   every cross-store event interleaving:\n")
    confluence = check_confluence(
        healthy,
        {"C": CHECKOUT, "S": SHIPPING},
        updates=[
            ("C", "order", {"cost": 2000.0, "address": "12 Elm"}),
            ("C", "order", {"cost": 10.0}),
            ("S", "", {"id": "trk-1"}),
        ],
    )
    show("confluence", confluence.describe())

    print("4. ...and shows why a latch that reads its whole target (here via")
    print("   lookup(this, ...)) is rejected: it is not confluent:\n")
    latch = parse_dxg(
        "Input:\n"
        "  C: Retail/v1/Checkout/knactor-checkout\n"
        "  S: Retail/v1/Shipping/knactor-shipping\n"
        "DXG:\n"
        "  C.order:\n"
        "    giftNote: >\n"
        "      coalesce(lookup(this, 'giftNote'),\n"
        "      concat('first seen: ', S.id, ' @ ', C.order.cost))\n"
    )
    show("analysis", analyze(latch, functions=standard_functions()).summary())
    confluence = check_confluence(
        latch,
        {"C": CHECKOUT, "S": SHIPPING},
        updates=[
            ("C", "order", {"cost": 100.0, "address": "x"}),
            ("C", "order", {"cost": 200.0}),
            ("S", "", {"id": "trk-9"}),
        ],
    )
    show("confluence", confluence.describe())


if __name__ == "__main__":
    main()
