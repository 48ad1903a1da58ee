#!/usr/bin/env python
"""The online retail app (paper §2 example 1, Figs. 3/5/6, Tables 1-2).

Runs the 11-knactor data-centric variant, places orders, and shows the
full exchange: the Cast integrator creates shipments and charges from
orders, the service reconcilers do their work against their own stores,
and the order is back-filled and fulfilled.

Options:
  --show-schemas   print the data-store schemas (Fig. 5) and exit
  --show-dxg       print the integrator's DXG (Fig. 6) and exit
  --profile NAME   K-apiserver (default) | K-redis | K-redis-udf
  --orders N       how many orders to place (default 3)
  --rpc            run the API-centric baseline instead

Run:  python examples/online_retail.py --profile K-redis --orders 3
"""

import argparse

from repro.apps.retail.knactor_app import RETAIL_DXG, RetailKnactorApp
from repro.apps.retail.rpc_app import RetailRpcApp
from repro.apps.retail.schemas import ALL_SCHEMAS
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import PROFILES
from repro.metrics.report import format_seconds


def run_knactor(profile_name, order_count):
    app = RetailKnactorApp.build(profile=PROFILES[profile_name])
    workload = OrderWorkload(seed=7)
    env = app.env
    print(f"profile: {profile_name}; placing {order_count} order(s)\n")

    keys = []
    for _ in range(order_count):
        key, data = workload.next_order()
        data["email"] = "shopper@example.com"
        env.run(until=app.place_order(key, data))
        items = ", ".join(sorted(data["items"]))
        print(f"  placed {key}: {items} "
              f"({data['cost']} {data['currency']}) at t={env.now:.3f}s")
        keys.append(key)
    app.run_until_quiet(max_seconds=60.0)

    print(f"\nafter {env.now:.3f}s of virtual time:")
    for key in keys:
        order = env.run(until=app.order(key))["data"]
        cid = key.split("/", 1)[1]
        shipment = env.run(until=app.shipment(cid))["data"]
        print(
            f"  {key}: status={order['status']} method={shipment['method']} "
            f"tracking={order.get('trackingID')} payment={order.get('paymentID')} "
            f"shippingCost={order.get('shippingCost')}"
        )

    print("\nwho touched whose state (the visibility RPC hides):")
    for (principal, store), count in sorted(app.de.acl.exchange_matrix().items()):
        print(f"  {principal:14} -> {store:22} {count:4} accesses")
    print(f"\nintegrator stats: {app.cast.stats()}")


def run_rpc(order_count):
    app = RetailRpcApp.build()
    workload = OrderWorkload(seed=7)
    print(f"API-centric baseline; placing {order_count} order(s)\n")
    for _ in range(order_count):
        _key, data = workload.next_order()
        start = app.env.now
        response = app.env.run(until=app.place_order(data))
        elapsed = app.env.now - start
        print(
            f"  {response['order_id']}: total={response['total_cost']} "
            f"tracking={response['tracking_id']} "
            f"latency={format_seconds(elapsed)} ms"
        )
    print(
        "\nnote: Checkout holds client stubs for Currency, Payment, "
        "Shipping, and Email -- the coupling Table 1 prices."
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--show-schemas", action="store_true")
    parser.add_argument("--show-dxg", action="store_true")
    parser.add_argument("--profile", default="K-apiserver", choices=sorted(PROFILES))
    parser.add_argument("--orders", type=int, default=3)
    parser.add_argument("--rpc", action="store_true")
    args = parser.parse_args()

    if args.show_schemas:
        for name, schema in ALL_SCHEMAS.items():
            print(f"# --- {name} ---\n{schema}")
        return
    if args.show_dxg:
        print(RETAIL_DXG)
        return
    if args.rpc:
        run_rpc(args.orders)
    else:
        run_knactor(args.profile, args.orders)


if __name__ == "__main__":
    main()
