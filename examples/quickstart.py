#!/usr/bin/env python
"""Quickstart: compose two services without touching their code.

This is Fig. 1 in miniature.  Service A (a thermostat) externalizes its
readings; service B (a display) externalizes what it shows.  Neither has
ever heard of the other.  A five-line DXG composes them -- and is then
reconfigured at run time to change the composition (Fahrenheit!), still
without touching either service.

Run:  python examples/quickstart.py
"""

from repro.core import Cast, Knactor, KnactorRuntime, Reconciler, StoreBinding
from repro.exchange import ObjectDE
from repro.simnet import Environment
from repro.store import MemKV

THERMOSTAT_SCHEMA = """\
schema: Quickstart/v1/Thermostat/Reading
celsius: number
room: string
"""

DISPLAY_SCHEMA = """\
schema: Quickstart/v1/Display/Panel
text: string # +kr: external
unit: string # +kr: external
"""

DXG = """\
Input:
  T: Quickstart/v1/Thermostat/knactor-thermostat
  D: Quickstart/v1/Display/knactor-display
DXG:
  D:
    text: concat(T.room, ": ", T.celsius)
    unit: "'C'"
"""


class DisplayReconciler(Reconciler):
    """The display service: renders whatever lands in its store."""

    def reconcile(self, ctx, key, obj):
        if obj and obj.get("text"):
            print(f"  [display] {obj['text']} degrees {obj.get('unit', '?')}")


def main():
    env = Environment()
    runtime = KnactorRuntime(env)
    de = ObjectDE(env, MemKV(env, runtime.network))
    runtime.add_exchange("object", de)

    runtime.add_knactor(
        Knactor("thermostat", [StoreBinding("default", "object", THERMOSTAT_SCHEMA)])
    )
    runtime.add_knactor(
        Knactor("display", [StoreBinding("default", "object", DISPLAY_SCHEMA)],
                reconciler=DisplayReconciler())
    )

    # Composition is a grant plus an integrator -- not service code.
    de.grant("quick-cast", "knactor-thermostat", role="reader")
    de.grant("quick-cast", "knactor-display", role="integrator")
    cast = Cast("quick-cast", DXG)
    runtime.add_integrator(cast)
    runtime.start()

    thermostat = runtime.handle_of("thermostat")

    print("1. thermostat reports 21.5 C in the den:")
    env.run(until=thermostat.create("den", {"celsius": 21.5, "room": "den"}))
    env.run(until=env.now + 1.0)

    print("2. reconfigure the integrator at run time (show Fahrenheit):")
    cast.reconfigure(body={
        "D": {
            "text": "concat(T.room, ': ', round(T.celsius * 9 / 5 + 32, 1))",
            "unit": "'F'",
        }
    })
    env.run(until=thermostat.patch("den", {"celsius": 22.0}))
    env.run(until=env.now + 1.0)

    print("3. the thermostat and display never exchanged a call:")
    for (principal, store), count in sorted(de.acl.exchange_matrix().items()):
        print(f"  {principal:12} -> {store:22} {count} accesses")


if __name__ == "__main__":
    main()
