"""Knactors for the smart home app (Fig. 4).

Each knactor has two data stores -- Object for configuration state, Log
for readings -- and its reconciler touches only its own stores.  The
House decides *intensity* from readings that integrators ingest into its
own Log store; it has no idea a Lamp or a Motion sensor exists.
"""

from repro.core import Reconciler
from repro.errors import NotFoundError

#: Schemas per Fig. 4's store contents.
HOUSE_OBJECT = """\
schema: SmartHome/v1/House/Config
intensity: number
mode: string
totalKwh: number # +kr: external
"""

HOUSE_LOG = """\
schema: SmartHome/v1/House/Readings
kwh: number # +kr: ingest
motion: boolean # +kr: ingest
"""

MOTION_OBJECT = """\
schema: SmartHome/v1/Motion/Config
sensitivity: number # +kr: external
"""

MOTION_LOG = """\
schema: SmartHome/v1/Motion/Readings
triggered: boolean
device: string
"""

LAMP_OBJECT = """\
schema: SmartHome/v1/Lamp/Config
brightness: number # +kr: external
"""

LAMP_LOG = """\
schema: SmartHome/v1/Lamp/Readings
energy: number
"""


class HouseReconciler(Reconciler):
    """Policy: occupied -> bright; empty -> off.  Reads ONLY its own log."""

    log_subscriptions = ("log",)
    on_brightness = 70
    off_brightness = 0

    def __init__(self):
        super().__init__("house")
        self.kwh_total = 0.0
        self.motion_log = []
        self._counted = 0  # first _seq not yet in the tallies

    def on_log_batch(self, ctx, local_name, records):
        # Records come again after a failed write: the tallies skip the
        # ones they hold, the intensity write is simply made again.
        intensity = None
        for record in records:
            fresh = record["_seq"] >= self._counted
            if "motion" in record:
                if fresh:
                    self.motion_log.append((record["_ts"], record["motion"]))
                intensity = (
                    self.on_brightness if record["motion"] else self.off_brightness
                )
            if fresh and record.get("kwh") is not None:
                self.kwh_total += record["kwh"]
        self._counted = max(self._counted, records[-1]["_seq"] + 1)
        if intensity is None:
            return
        try:
            yield ctx.store.patch("main", {"intensity": intensity})
        except NotFoundError:
            yield ctx.store.create("main", {"intensity": intensity, "mode": "auto"})


class LampReconciler(Reconciler):
    """Applies externally-set brightness to the physical lamp device."""

    def __init__(self):
        super().__init__("lamp")
        self.device = None  # attached by the app builder

    def reconcile(self, ctx, key, obj):
        if obj is None or self.device is None:
            return
        level = obj.get("brightness")
        if level is not None and level != self.device.brightness:
            self.device.set_brightness(level)
            ctx.trace("lamp-brightness", level=level)


class MotionReconciler(Reconciler):
    """Configuration endpoint for the sensor (sensitivity is external)."""

    def __init__(self):
        super().__init__("motion")
        self.sensitivity = 50

    def reconcile(self, ctx, key, obj):
        if obj is not None and obj.get("sensitivity") is not None:
            self.sensitivity = obj["sensitivity"]
