"""Key-popularity and service-time distributions for the load fleet.

Real access patterns are skewed: a handful of hot keys absorb most of
the traffic (Zipf), and a handful of slow requests dominate the latency
tail (bounded Pareto).  Both samplers here are driven purely by the
``random.Random`` the caller passes in, so a seeded run reproduces the
exact key sequence and service-time draw order.
"""

import bisect

from repro.errors import ConfigurationError


class ZipfKeys:
    """Zipf-distributed draws over a fixed key population.

    Key ``i`` (rank ``i + 1``) has weight ``1 / (i + 1) ** alpha``.
    Sampling inverts the cumulative weight table with ``bisect`` --
    O(log n) per draw, fine up to the 10^5-device fleets the sensor
    scenario uses.  ``alpha=0`` degenerates to uniform.
    """

    def __init__(self, population, alpha=1.1, key_format="key-{:06d}"):
        if population <= 0:
            raise ConfigurationError("population must be positive")
        if alpha < 0:
            raise ConfigurationError("alpha must be non-negative")
        self.alpha = alpha
        self.key_format = key_format
        self._cumulative = []
        total = 0.0
        for rank in range(1, population + 1):
            total += rank ** -alpha
            self._cumulative.append(total)

    def sample_index(self, rng):
        """Draw one key index (0-based rank order: 0 is the hottest)."""
        target = rng.random() * self._cumulative[-1]
        return bisect.bisect_left(self._cumulative, target)

    def sample(self, rng):
        """Draw one key name."""
        return self.key_format.format(self.sample_index(rng))


class HeavyTailedServiceTimes:
    """Bounded-Pareto service times: most fast, a heavy slow tail.

    Inverse-CDF sampling of a Pareto truncated to
    ``[minimum, maximum]`` with tail index ``alpha``.  ``alpha`` near 1
    gives a very heavy tail; larger values concentrate near the minimum.
    """

    def __init__(self, minimum, maximum, alpha=1.5):
        if not 0 < minimum < maximum:
            raise ConfigurationError("need 0 < minimum < maximum")
        if alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        self.minimum = minimum
        self.maximum = maximum
        self.alpha = alpha
        self._ratio = (minimum / maximum) ** alpha

    def sample(self, rng):
        u = rng.random()
        denom = 1.0 - u * (1.0 - self._ratio)
        return self.minimum / denom ** (1.0 / self.alpha)

    def mean(self):
        """Analytic mean of the bounded Pareto (for sizing runs)."""
        a, lo, hi = self.alpha, self.minimum, self.maximum
        if a == 1.0:
            import math

            return math.log(hi / lo) * lo / (1.0 - lo / hi)
        return (
            lo ** a / (1.0 - (lo / hi) ** a)
            * (a / (a - 1.0))
            * (lo ** (1.0 - a) - hi ** (1.0 - a))
        )


class ServiceTimeMix:
    """A weighted mixture of service-time components.

    ``components`` is a list of ``(weight, sampler)`` pairs where each
    sampler answers ``sample(rng)`` -- mix a fast bounded-Pareto bulk
    with a rare slow component to model cache miss / cold path splits.
    """

    def __init__(self, components):
        if not components:
            raise ConfigurationError("mix needs at least one component")
        self.components = list(components)
        self._cumulative = []
        total = 0.0
        for weight, _ in self.components:
            if weight <= 0:
                raise ConfigurationError("weights must be positive")
            total += weight
            self._cumulative.append(total)

    def sample(self, rng):
        target = rng.random() * self._cumulative[-1]
        index = bisect.bisect_left(self._cumulative, target)
        return self.components[index][1].sample(rng)
