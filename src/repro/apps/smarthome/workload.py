"""Seeded motion-event traces (the simulated occupant)."""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class MotionEvent:
    time: float
    triggered: bool
    device: str = "motion-1"


class MotionTrace:
    """A day of occupancy: presence periods separated by idle gaps."""

    #: Mean idle gap and mean presence period (seconds, exponential).
    mean_gap = 12.0
    mean_presence = 6.0

    def __init__(self, seed=11, duration=120.0):
        self.seed = seed
        self.duration = duration

    def events(self):
        """Alternating triggered=True / triggered=False events."""
        rng = random.Random(self.seed)
        events = []
        now = rng.expovariate(1.0 / self.mean_gap)
        while now < self.duration:
            events.append(MotionEvent(round(now, 3), True))
            leave = now + rng.expovariate(1.0 / self.mean_presence)
            if leave >= self.duration:
                break
            events.append(MotionEvent(round(leave, 3), False))
            now = leave + rng.expovariate(1.0 / self.mean_gap)
        return events
