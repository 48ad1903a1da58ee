#!/usr/bin/env python
"""The smart home app (paper §2 example 2, Fig. 4).

Runs BOTH variants over the same occupancy trace and the same simulated
devices, then shows three things the data-centric variant adds:

1. identical end behaviour with zero schema sharing between vendors,
2. app-level analytics over the House's own log store,
3. a data-centric access policy (no lamp control during sleep hours).

Run:  python examples/smart_home.py [--sleep-policy]
"""

import argparse

from repro.apps.smarthome import (
    MotionTrace,
    SmartHomeKnactorApp,
    SmartHomePubSubApp,
)
from repro.core.policy import deny_during

DURATION = 130.0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sleep-policy", action="store_true",
                        help="demonstrate the sleep-hours access policy")
    args = parser.parse_args()
    trace = MotionTrace(seed=11)

    print("=== API-centric variant (MQTT broker, shared codecs) ===")
    pubsub = SmartHomePubSubApp.build(trace=trace)
    pubsub.run(until=DURATION)
    print(f"  lamp brightness changes : {len(pubsub.lamp.device.changes)}")
    print(f"  house energy total (kWh): {pubsub.house.kwh_total:.6f}")
    print(f"  motion events observed  : {len(pubsub.house.motion_log)}")
    print("  coupling: House holds Motion's AND Lamp's message codecs\n")

    print("=== Data-centric variant (Knactor, Fig. 4) ===")
    knactor = SmartHomeKnactorApp.build(trace=trace)
    if args.sleep_policy:
        print("  installing policy: control-cast may not touch the lamp")
        deny_during(
            knactor.object_de, "control-cast", "knactor-lamp",
            start_hour=0, end_hour=23.9, seconds_per_hour=1e9,
        )
    knactor.run(until=DURATION)
    print(f"  lamp brightness changes : {len(knactor.lamp_device.changes)}")
    print(f"  house energy total (kWh): {knactor.house.kwh_total:.6f}")
    print(f"  motion events observed  : {len(knactor.house.motion_log)}")
    if args.sleep_policy:
        denials = knactor.object_de.acl.denials()
        print(f"  policy denials recorded : {sum(denials.values())}")

    [report] = knactor.env.run(until=knactor.energy_report())
    print(
        f"  analytics on House's log: total_kwh={report['total_kwh']:.6f} "
        f"events={report['motion_events']}"
    )
    print("  coupling: none -- House reads only its own stores;")
    print("  two Sync flows and one Cast carry all composition logic")


if __name__ == "__main__":
    main()
