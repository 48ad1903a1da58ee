"""The data-centric smart home (paper Fig. 4).

Three knactors, each with an Object store and a Log store, composed by:

- ``sensor-sync`` (Sync): Motion's readings -> House's log, with the
  paper's rename (``triggered`` -> ``motion``),
- ``energy-sync`` (Sync): Lamp's energy reports -> House's log
  (``energy`` -> ``kwh``),
- ``control-cast`` (Cast): House's desired ``intensity`` -> Lamp's
  ``brightness``.

House never sees a Lamp topic or a Motion schema; swapping the lamp
vendor is an integrator reconfiguration.
"""

from dataclasses import dataclass, field

from repro import config
from repro.apps.smarthome import knactors as home
from repro.apps.smarthome.devices import LampDevice, MotionSensorDevice
from repro.apps.smarthome.workload import MotionTrace
from repro.core import (
    Cast,
    Flow,
    Knactor,
    KnactorRuntime,
    Pipeline,
    Rollup,
    RollupRule,
    StoreBinding,
    Sync,
    create_environment,
)
from repro.exchange import LogDE, ObjectDE
from repro.obs import CausalTracer
from repro.simnet import Environment, FixedLatency, Network
from repro.store import ApiServer, LogLake

CONTROL_DXG = """\
Input:
  H: SmartHome/v1/House/knactor-house
  L: SmartHome/v1/Lamp/knactor-lamp
DXG:
  L:
    brightness: H.intensity
"""


@dataclass
class SmartHomeKnactorApp:
    env: Environment
    runtime: KnactorRuntime
    object_de: ObjectDE
    log_de: LogDE
    house: home.HouseReconciler
    lamp: home.LampReconciler
    motion: home.MotionReconciler
    lamp_device: LampDevice
    motion_sensor: MotionSensorDevice
    control_cast: Cast
    sensor_sync: Sync
    energy_sync: Sync
    tracer: CausalTracer = None
    processes: list = field(default_factory=list)

    @classmethod
    def build(cls, env=None, trace=None, mode=None, shape_latency=None,
              obs=None):
        """``mode`` / ``shape_latency`` as in ``RetailKnactorApp.build``:
        select the execution backend and keep/zero the simulated
        infrastructure latencies (defaults: shaped on sim, unshaped on
        realtime).  Device schedules (motion trace, lamp energy ticks)
        live on the schedule clock either way.  ``obs=True`` attaches an
        observability plane, as in the retail app."""
        if env is None:
            env = create_environment(mode if mode is not None else "sim")
        if shape_latency is None:
            shape_latency = getattr(env, "backend", "sim") == "sim"
        hop = config.NETWORK_HOP if shape_latency else FixedLatency(0.0)
        ops = config.MEMKV.ops if shape_latency else config.zero_calibration(
            config.MEMKV).ops
        network = Network(env, default_latency=hop)
        tracer = CausalTracer(env)
        runtime = KnactorRuntime(
            env, network=network, tracer=tracer, obs=obs, mode=mode
        )
        object_backend = ApiServer(
            env, network, location="object-backend",
            ops=ops, watch_overhead=0.0005 if shape_latency else 0.0,
            tracer=tracer,
        )
        object_de = ObjectDE(env, object_backend)
        log_de = LogDE(
            env, LogLake(env, network, location="log-backend", tracer=tracer)
        )
        runtime.add_exchange("object", object_de)
        runtime.add_exchange("log", log_de)

        house = home.HouseReconciler()
        lamp = home.LampReconciler()
        motion = home.MotionReconciler()
        runtime.add_knactor(
            Knactor("house", [
                StoreBinding("default", "object", home.HOUSE_OBJECT),
                StoreBinding("log", "log", home.HOUSE_LOG),
            ], reconciler=house)
        )
        runtime.add_knactor(
            Knactor("lamp", [
                StoreBinding("default", "object", home.LAMP_OBJECT),
                StoreBinding("log", "log", home.LAMP_LOG),
            ], reconciler=lamp)
        )
        runtime.add_knactor(
            Knactor("motion", [
                StoreBinding("default", "object", home.MOTION_OBJECT),
                StoreBinding("log", "log", home.MOTION_LOG),
            ], reconciler=motion)
        )

        # -- devices bridge hardware to the knactor's OWN stores ----------
        lamp_log = runtime.handle_of("lamp", "log")
        lamp_device = LampDevice(
            env, on_energy=lambda kwh: lamp_log.load([{"energy": kwh}])
        )
        lamp.device = lamp_device
        motion_log = runtime.handle_of("motion", "log")
        trace = trace if trace is not None else MotionTrace()
        motion_sensor = MotionSensorDevice(
            env,
            trace,
            on_reading=lambda event: motion_log.load(
                [{"triggered": event.triggered, "device": event.device}]
            ),
        )

        # -- integrators: ALL the composition logic ------------------------
        log_de.grant("sensor-sync", "knactor-motion-log", role="reader")
        log_de.grant("sensor-sync", "knactor-house-log", role="integrator")
        sensor_sync = Sync(
            "sensor-sync",
            flows=[
                Flow(
                    source="knactor-motion-log",
                    target="knactor-house-log",
                    pipeline=Pipeline().rename("triggered", "motion").cut("motion"),
                )
            ],
        )
        runtime.add_integrator(sensor_sync)

        log_de.grant("energy-sync", "knactor-lamp-log", role="reader")
        log_de.grant("energy-sync", "knactor-house-log", role="integrator")
        energy_sync = Sync(
            "energy-sync",
            flows=[
                Flow(
                    source="knactor-lamp-log",
                    target="knactor-house-log",
                    pipeline=Pipeline().rename("energy", "kwh").cut("kwh"),
                )
            ],
        )
        runtime.add_integrator(energy_sync)

        object_de.grant("control-cast", "knactor-house", role="reader")
        object_de.grant("control-cast", "knactor-lamp", role="integrator")
        control_cast = Cast("control-cast", CONTROL_DXG)
        runtime.add_integrator(control_cast)

        # A Rollup keeps a live energy gauge on the House's Object store,
        # aggregated from its own Log store.
        log_de.grant("energy-rollup", "knactor-house-log", role="reader")
        object_de.grant("energy-rollup", "knactor-house", role="integrator")
        energy_rollup = Rollup("energy-rollup", rules=[
            RollupRule(
                source="knactor-house-log",
                target="knactor-house",
                target_key="main",
                aggs={"totalKwh": "sum(kwh)"},
                where="kwh != None",
            )
        ])
        runtime.add_integrator(energy_rollup)

        runtime.start()
        app = cls(
            env=env, runtime=runtime, object_de=object_de, log_de=log_de,
            house=house, lamp=lamp, motion=motion,
            lamp_device=lamp_device, motion_sensor=motion_sensor,
            control_cast=control_cast, sensor_sync=sensor_sync,
            energy_sync=energy_sync, tracer=tracer,
        )
        app.processes.append(motion_sensor.start())
        app.processes.append(lamp_device.start())
        return app

    def run(self, until):
        self.env.run(until=until)
        return self

    def energy_report(self):
        """Analytics over the House's own log: total ingested kWh."""
        handle = self.runtime.handle_of("house", "log")
        return handle.query(
            ops=[{"op": "agg", "aggs": {"total_kwh": "sum(kwh)",
                                        "motion_events": "count()"}}]
        )
