"""Simulated devices: the occupancy sensor and the smart lamp.

The paper's prototype used an IoT app *simulator* (Digibox) rather than
physical hardware; these classes play the same role.  They are transport-
agnostic: both app variants (Pub/Sub and Knactor) drive the same device
models through different plumbing.
"""

from repro.errors import ConfigurationError


class MotionSensorDevice:
    """Replays a motion trace, invoking ``on_reading(triggered)``."""

    def __init__(self, env, trace, on_reading):
        self.env = env
        self.trace = trace
        self.on_reading = on_reading

    def start(self):
        return self.env.process(self._run(self.env))

    def _run(self, env):
        last = 0.0
        for event in self.trace.events():
            gap = event.time - last
            if gap > 0:
                yield env.timeout(gap)
            last = event.time
            result = self.on_reading(event)
            if hasattr(result, "send"):
                yield env.process(result)


class LampDevice:
    """Integrates brightness over time into energy (kWh).

    ``set_brightness`` changes the level (0-100); the device periodically
    reports the energy consumed since the last report via
    ``on_energy(kwh)``.
    """

    #: Power draw at full brightness, in watts.
    max_watts = 9.0
    #: Seconds of simulated time per modelled hour (time compression:
    #: a 120 s trace covers a "day" of lamp operation).
    seconds_per_hour = 5.0

    def __init__(self, env, on_energy, report_interval=10.0):
        if report_interval <= 0:
            raise ConfigurationError("report_interval must be positive")
        self.env = env
        self.on_energy = on_energy
        self.report_interval = report_interval
        self.brightness = 0
        self._last_change = 0.0
        self._accumulated_wh = 0.0
        self.changes = []

    def set_brightness(self, level):
        level = max(0, min(100, int(level)))
        self._accumulate()
        self.brightness = level
        self.changes.append((self.env.now, level))

    def _accumulate(self):
        elapsed_hours = (self.env.now - self._last_change) / self.seconds_per_hour
        self._accumulated_wh += self.max_watts * (self.brightness / 100.0) * elapsed_hours
        self._last_change = self.env.now

    def start(self):
        return self.env.process(self._report_loop(self.env))

    def _report_loop(self, env):
        while True:
            yield env.timeout(self.report_interval)
            self._accumulate()
            kwh = round(self._accumulated_wh / 1000.0, 9)
            self._accumulated_wh = 0.0
            result = self.on_energy(kwh)
            if hasattr(result, "send"):
                yield env.process(result)
