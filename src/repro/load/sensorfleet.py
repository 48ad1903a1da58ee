"""The DataX-style sensor fleet: 10^5 devices feeding a Log exchange.

A deliberately simple two-knactor pipeline, scaled wide instead of deep:

- **gateway** hosts a Log store that the simulated device fleet loads
  raw readings into (``device``, ``temp_c``, ``battery``);
- **analytics** hosts a Log store fed by the ``fleet-sync`` Sync
  integrator, which renames ``temp_c`` to ``temperature`` and cuts the
  battery field on the way through -- the paper's data-centric
  composition, at fleet cardinality.

The fleet itself is *virtual*: devices exist only as the Zipf-skewed id
space the load generator draws from (hot devices report often, the long
tail rarely), so the scenario supports 10^5 devices without 10^5
processes.  An analytics watcher subscribes to the derived store, which
populates the ``watch_lag_seconds`` histogram the freshness SLO reads.
"""

from dataclasses import dataclass, field, replace

from repro.core import (
    Flow,
    Knactor,
    KnactorRuntime,
    Pipeline,
    StoreBinding,
    Sync,
    create_environment,
)
from repro import config
from repro.exchange import LogDE
from repro.faults import RetryPolicy
from repro.flow import INTEGRATOR, FlowConfig
from repro.obs import CausalTracer, use
from repro.obs.context import end_span_on
from repro.simnet import FixedLatency, Network
from repro.store import LogLake

GATEWAY_LOG = """\
schema: SensorFleet/v1/Gateway/Readings
device: string
temp_c: number
battery: number
"""

ANALYTICS_LOG = """\
schema: SensorFleet/v1/Analytics/Readings
device: string # +kr: ingest
temperature: number # +kr: ingest
"""

#: Default fleet cardinality (the DataX scale point).
FLEET_DEVICES = 100_000


@dataclass
class SensorFleetApp:
    env: object
    runtime: KnactorRuntime
    log_de: LogDE
    fleet_sync: Sync
    devices: int
    tracer: CausalTracer = None
    flow: FlowConfig = None
    analytics_seen: list = field(init=False, default_factory=list)
    _watch: object = None
    _handles: dict = field(default_factory=dict)

    #: :meth:`run_until_quiet` stops after this long with no event.
    QUIET_SETTLE = 0.5

    @classmethod
    def build(cls, env=None, mode=None, devices=FLEET_DEVICES, obs=True,
              flow=None, shape_latency=None):
        """``mode``/``shape_latency`` as in the other app builders; the
        fleet defaults to an attached obs plane because the SLO layer is
        its reason to exist.  ``flow`` (True or a FlowConfig) arms
        admission control on the lake so flash crowds shed instead of
        queueing without bound."""
        if env is None:
            env = create_environment(mode if mode is not None else "sim")
        if shape_latency is None:
            shape_latency = env.backend == "sim"
        hop = config.NETWORK_HOP if shape_latency else FixedLatency(0.0)
        network = Network(env, default_latency=hop)
        tracer = CausalTracer(env)
        runtime = KnactorRuntime(
            env, network=network, tracer=tracer, obs=obs, mode=mode
        )
        lake = LogLake(
            env, network, location="fleet-lake", tracer=tracer,
            watch_overhead=0.0003 if shape_latency else 0.0,
        )
        flow_cfg = None
        if flow:
            flow_cfg = flow if isinstance(flow, FlowConfig) else FlowConfig()
            # The Sync's own loads outrank device traffic at the front
            # door -- shedding the integrator would stall the derived
            # store, not protect it.  Explicit overrides win.
            principals = {"fleet-sync": INTEGRATOR}
            principals.update(flow_cfg.principals)
            flow_cfg = replace(flow_cfg, principals=principals)
            lake.set_admission(lambda: flow_cfg.build_admission(env))
        # The DE-level policy backs the Sync and analytics handles: an
        # integrator shed during a flash crowd must back off and drain
        # the backlog, not crash the pipeline.  Device handles opt out
        # (max_attempts=1 below) so *their* rejections stay visible to
        # the availability SLO.
        log_de = LogDE(env, lake, retry_policy=RetryPolicy(
            max_attempts=12, base_backoff=0.02, max_backoff=1.0,
        ))
        runtime.add_exchange("log", log_de)

        runtime.add_knactor(
            Knactor("gateway", [StoreBinding("log", "log", GATEWAY_LOG)])
        )
        runtime.add_knactor(
            Knactor("analytics", [StoreBinding("log", "log", ANALYTICS_LOG)])
        )

        log_de.grant("fleet-sync", "knactor-gateway-log", role="reader")
        log_de.grant("fleet-sync", "knactor-analytics-log", role="integrator")
        fleet_sync = Sync(
            "fleet-sync",
            flows=[
                Flow(
                    source="knactor-gateway-log",
                    target="knactor-analytics-log",
                    pipeline=Pipeline()
                    .rename("temp_c", "temperature")
                    .cut("device", "temperature"),
                )
            ],
        )
        runtime.add_integrator(fleet_sync)
        runtime.start()

        app = cls(
            env=env, runtime=runtime, log_de=log_de, fleet_sync=fleet_sync,
            devices=devices, tracer=tracer, flow=flow_cfg,
        )
        # The analytics consumer: its watch stream is what gives the
        # freshness SLO a watch-lag histogram to read.
        log_de.grant("fleet-analytics", "knactor-analytics-log", role="reader")
        analytics = log_de.handle(
            "knactor-analytics-log", principal="fleet-analytics",
        )
        app._watch = analytics.watch(
            lambda event: app.analytics_seen.extend(
                record.get("device")
                for record in (event.object or {}).get("records", ())
            )
        )
        return app

    # -- driving ------------------------------------------------------------

    def gateway_handle(self, principal=None):
        """A load handle on the gateway store for ``principal``.

        Each distinct principal gets a one-time grant and a cached
        handle, so traffic classes are distinguishable to admission
        control.  ``None`` uses the store owner's handle.
        """
        if principal is None:
            return self.runtime.handle_of("gateway", "log")
        handle = self._handles.get(principal)
        if handle is None:
            self.log_de.grant(
                principal, "knactor-gateway-log",
                verbs={"load"}, note="fleet device gateway",
            )
            handle = self.log_de.handle(
                "knactor-gateway-log", principal=principal,
                retry_policy=RetryPolicy(max_attempts=1),
            )
            self._handles[principal] = handle
        return handle

    def ingest(self, device, temp_c, battery=1.0, principal=None):
        """One device reading; returns ``(event, trace_id)``.

        With the obs plane attached the reading opens a root causal
        trace (baggage: the device id), which the Sync exchange and the
        analytics watch extend -- the exemplar chain the SLO report
        links to.
        """
        handle = self.gateway_handle(principal)
        record = {"device": device, "temp_c": temp_c, "battery": battery}
        obs = self.runtime.obs
        if obs is None:
            return handle.load([record]), None
        root = obs.causal.new_trace(
            "ingest-reading", service="device-fleet",
            baggage={"device": device}, key=device,
        )
        with use(root):
            proc = handle.load([record])
        return end_span_on(proc, root), root.trace_id

    def analytics_report(self):
        """Fleet-wide aggregate over the derived analytics store."""
        handle = self.runtime.handle_of("analytics", "log")
        return handle.query(
            ops=[{"op": "agg", "aggs": {"readings": "count()",
                                        "mean_temp": "avg(temperature)"}}]
        )

    def run_until_quiet(self, max_seconds=120.0):
        deadline = self.env.now + max_seconds
        while self.env.peek() <= deadline:
            horizon = min(self.env.peek() + self.QUIET_SETTLE, deadline)
            self.env.run(until=horizon)
        return self.env.now
