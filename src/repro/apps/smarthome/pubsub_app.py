"""The API-centric smart home: composed through an MQTT-style broker.

The coupling the paper describes is explicit here: the House service
imports BOTH vendors' message codecs (it must deserialize Motion's
readings and serialize Lamp's commands), and the topic names are wired
into every service.
"""

from dataclasses import dataclass, field

from repro import config
from repro.apps.smarthome.devices import LampDevice, MotionSensorDevice
from repro.apps.smarthome.workload import MotionTrace
from repro.obs import CausalTracer
from repro.pubsub import Broker, MessageCodec, PubSubClient
from repro.simnet import Environment, Network

#: Vendor Z's (motion sensor) message schema -- House must hold a copy.
MOTION_CODEC = MessageCodec(
    "motion.Reading", 1, {"triggered": bool, "device": str}
)
#: Vendor Y's (lamp) command schema -- House must hold a copy.
LAMP_COMMAND_CODEC = MessageCodec(
    "lamp.SetBrightness", 1, {"brightness": int}
)
LAMP_ENERGY_CODEC = MessageCodec(
    "lamp.EnergyReport", 1, {"kwh": (int, float)}
)

MOTION_TOPIC = "home/motion"
LAMP_COMMAND_TOPIC = "home/lamp/set"
LAMP_ENERGY_TOPIC = "home/lamp/energy"


class HouseService:
    """Subscribes to Motion, commands the Lamp, tracks energy."""

    def __init__(self, client, on_brightness=70, off_brightness=0):
        self.client = client
        self.on_brightness = on_brightness
        self.off_brightness = off_brightness
        self.kwh_total = 0.0
        self.motion_log = []
        self.decode_errors = 0
        client.subscribe(MOTION_TOPIC, self._on_motion, codec=MOTION_CODEC)
        client.subscribe(LAMP_ENERGY_TOPIC, self._on_energy, codec=LAMP_ENERGY_CODEC)

    def _on_motion(self, topic, message):
        if isinstance(message, Exception):
            self.decode_errors += 1
            return
        self.motion_log.append((self.client.env.now, message["triggered"]))
        level = self.on_brightness if message["triggered"] else self.off_brightness
        self.client.publish(
            LAMP_COMMAND_TOPIC, {"brightness": level}, codec=LAMP_COMMAND_CODEC
        )

    def _on_energy(self, topic, message):
        if isinstance(message, Exception):
            self.decode_errors += 1
            return
        self.kwh_total += message["kwh"]


class LampService:
    """Bridges the lamp device onto the broker."""

    def __init__(self, env, client):
        self.client = client
        self.device = LampDevice(env, on_energy=self._report_energy)
        client.subscribe(LAMP_COMMAND_TOPIC, self._on_command,
                         codec=LAMP_COMMAND_CODEC)

    def _on_command(self, topic, message):
        if isinstance(message, Exception):
            return
        self.device.set_brightness(message["brightness"])

    def _report_energy(self, kwh):
        self.client.publish(LAMP_ENERGY_TOPIC, {"kwh": kwh},
                            codec=LAMP_ENERGY_CODEC)


class MotionService:
    """Bridges the occupancy sensor onto the broker."""

    def __init__(self, env, client, trace):
        self.client = client
        self.sensor = MotionSensorDevice(env, trace, on_reading=self._publish)

    def _publish(self, event):
        self.client.publish(
            MOTION_TOPIC,
            {"triggered": event.triggered, "device": event.device},
            codec=MOTION_CODEC,
        )


@dataclass
class SmartHomePubSubApp:
    env: Environment
    broker: Broker
    house: HouseService
    lamp: LampService
    motion: MotionService
    tracer: CausalTracer = None
    processes: list = field(default_factory=list)

    @classmethod
    def build(cls, env=None, trace=None):
        env = env if env is not None else Environment()
        network = Network(env, default_latency=config.NETWORK_HOP)
        tracer = CausalTracer(env)
        broker = Broker(env, network)
        trace = trace if trace is not None else MotionTrace()
        house = HouseService(PubSubClient(broker, "house"))
        lamp = LampService(env, PubSubClient(broker, "lamp"))
        motion = MotionService(env, PubSubClient(broker, "motion"), trace)
        app = cls(env=env, broker=broker, house=house, lamp=lamp,
                  motion=motion, tracer=tracer)
        app.processes.append(motion.sensor.start())
        app.processes.append(lamp.device.start())
        return app

    def run(self, until):
        self.env.run(until=until)
        return self
