"""Load-scenario adapters: one uniform surface over every app.

A scenario owns a built app and answers the small protocol the
:class:`~repro.load.generator.LoadGenerator` drives:

- ``name`` / ``env`` / ``registry`` -- identity, clock, and the metric
  sink (the app's obs-plane registry when it has one, a standalone
  :class:`~repro.obs.registry.Registry` otherwise);
- ``submit(cls, key, rng)`` -- launch one request, returning the event
  to wait on plus the causal trace id (or ``None``);
- ``quiesce()`` -- drain in-flight work after the last arrival;
- ``slos()`` -- the scenario's default objectives, ready for
  :func:`repro.obs.slo.evaluate`.

Thresholds are per-scenario class attributes so a benchmark can
tighten or relax them without subclassing.
"""

import zlib

from repro.errors import ConfigurationError
from repro.obs.registry import Registry
from repro.obs.slo import AvailabilitySLO, FreshnessSLO, LatencySLO

_ITEM_CATALOG = [
    ("mesh-chair", 429.0),
    ("desk-mat", 19.0),
    ("usb-hub", 39.0),
    ("notebook", 9.5),
    ("monitor-arm", 129.0),
    ("keycap-set", 59.0),
    ("webcam", 89.0),
    ("floor-lamp", 74.0),
]

_CURRENCIES = ["USD", "EUR", "JPY"]


class LoadScenario:
    """Base adapter; subclasses build the app and implement ``submit``."""

    name = None
    #: Default objective knobs; subclasses override per app.
    latency_threshold_s = 0.25
    latency_percentile = 0.99
    availability_target = 0.995
    freshness_threshold_s = None

    def __init__(self):
        if not self.name:
            raise ConfigurationError("scenario needs a name")
        self.env = None
        self.registry = None

    def _wire(self, env, runtime=None):
        """Adopt the app's clock and registry (standalone if no obs)."""
        self.env = env
        obs = getattr(runtime, "obs", None) if runtime is not None else None
        self.obs = obs
        self.registry = obs.registry if obs is not None else Registry(env)

    def submit(self, cls, key, rng):
        raise NotImplementedError

    def quiesce(self):
        pass

    def _labels(self):
        return {"scenario": self.name}

    def slos(self):
        specs = [
            LatencySLO(
                f"{self.name}-latency-p{self.latency_percentile * 100:g}",
                labels=self._labels(),
                percentile=self.latency_percentile,
                threshold_seconds=self.latency_threshold_s,
            ),
            AvailabilitySLO(
                f"{self.name}-availability",
                target=self.availability_target,
                total=[("requests_total", self._labels())],
                bad=[
                    ("requests_total",
                     {**self._labels(), "outcome": "rejected"}),
                    ("requests_total",
                     {**self._labels(), "outcome": "failed"}),
                ],
                exemplar_metric="request_latency_seconds",
                exemplar_labels=self._labels(),
            ),
        ]
        if self.freshness_threshold_s is not None:
            specs.append(
                FreshnessSLO(
                    f"{self.name}-freshness",
                    threshold_seconds=self.freshness_threshold_s,
                )
            )
        return specs


class RetailLoadScenario(LoadScenario):
    """Concurrent order placement against the retail Knactor app.

    The Zipf ``key`` selects the *product* (hot items dominate carts);
    order keys are sequential, since Checkout creates must be unique.
    """

    name = "retail"
    latency_threshold_s = 0.25
    freshness_threshold_s = 0.5

    def __init__(self, flow=None, seed=7, **build_kwargs):
        super().__init__()
        from repro.apps.retail.knactor_app import RetailKnactorApp

        self.app = RetailKnactorApp.build(
            seed=seed, obs=True, flow=flow, **build_kwargs
        )
        self._orders = 0
        self._wire(self.app.env, self.app.runtime)

    def submit(self, cls, key, rng):
        self._orders += 1
        # Stable across processes (unlike hash()): determinism tests pin
        # the exact payload sequence per seed.
        index = (
            zlib.crc32(key.encode()) % len(_ITEM_CATALOG)
            if key is not None else 0
        )
        item, price = _ITEM_CATALOG[index]
        data = {
            "items": {item: {"name": item, "priceUSD": price}},
            "address": f"{rng.randint(1, 99)} Main St",
            "cost": price,
            "totalCost": price,
            "currency": rng.choice(_CURRENCIES),
            "status": "placed",
            "cardToken": f"tok-{rng.randint(10**6, 10**7 - 1)}",
        }
        event = self.app.place_order(f"order/load{self._orders:06d}", data)
        return event, self.app.last_trace_id

    def quiesce(self):
        self.app.run_until_quiet(max_seconds=120.0)


class SmartHomeLoadScenario(LoadScenario):
    """Motion readings pouring into the smart home's sensor pipeline.

    The Zipf ``key`` is the reporting device; each submission loads one
    reading into Motion's own Log store, which ``sensor-sync`` then
    ingests into the House.
    """

    name = "smarthome"
    latency_threshold_s = 0.1
    freshness_threshold_s = 0.5

    def __init__(self, **build_kwargs):
        super().__init__()
        from repro.apps.smarthome.knactor_app import SmartHomeKnactorApp

        self.app = SmartHomeKnactorApp.build(obs=True, **build_kwargs)
        self._wire(self.app.env, self.app.runtime)
        self._motion_log = self.app.runtime.handle_of("motion", "log")

    def submit(self, cls, key, rng):
        from repro.obs.context import use

        record = {"triggered": rng.random() < 0.5, "device": key or "dev-0"}
        if self.obs is None:
            return self._motion_log.load([record]), None
        root = self.obs.causal.new_trace(
            "motion-reading", service="motion-sensor",
            baggage={"device": record["device"]}, key=record["device"],
        )
        with use(root):
            proc = self._motion_log.load([record])
        proc.callbacks.append(
            lambda _evt: self.obs.causal.end_span(root, outcome="ok")
        )
        return proc, root.trace_id

    def quiesce(self):
        env = self.env
        deadline = env.now + 60.0
        while env.peek() <= deadline:
            env.run(until=min(env.peek() + 0.5, deadline))


class SocialNetworkLoadScenario(LoadScenario):
    """Compose-post fan-out across the 14-service RPC social network.

    The RPC app has no data plane to trace through, which is the point:
    it is the scattered baseline the data-centric apps are measured
    against.  Latency lands in the standalone registry; trace exemplars
    are absent by construction.
    """

    name = "socialnetwork"
    latency_threshold_s = 0.25

    def __init__(self, **build_kwargs):
        super().__init__()
        from repro.apps.socialnetwork.rpc_app import SocialNetworkRpcApp

        self.app = SocialNetworkRpcApp.build(**build_kwargs)
        self._posts = 0
        self._wire(self.app.env)

    def submit(self, cls, key, rng):
        self._posts += 1
        return self.app.compose_post(req_id=f"load-{self._posts:06d}"), None


class SensorFleetLoadScenario(LoadScenario):
    """The DataX-scale fleet: Zipf-hot devices reporting through Sync.

    ``key`` is the device id (draw from a
    :class:`~repro.load.sampling.ZipfKeys` sized to the fleet); the
    traffic class's ``principal`` rides on the load so admission control
    can tell device populations apart.
    """

    name = "sensorfleet"
    latency_threshold_s = 0.05
    freshness_threshold_s = 0.25

    def __init__(self, devices=None, flow=None, **build_kwargs):
        super().__init__()
        from repro.load.sensorfleet import FLEET_DEVICES, SensorFleetApp

        self.app = SensorFleetApp.build(
            devices=devices if devices is not None else FLEET_DEVICES,
            flow=flow, **build_kwargs,
        )
        self._wire(self.app.env, self.app.runtime)

    def submit(self, cls, key, rng):
        return self.app.ingest(
            key or "device-000000",
            temp_c=round(15.0 + 15.0 * rng.random(), 2),
            battery=round(rng.random(), 3),
            principal=cls.principal,
        )

    def quiesce(self):
        self.app.run_until_quiet(max_seconds=120.0)
