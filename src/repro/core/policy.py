"""Data-centric policies (paper §2 Problem 3, §3.3).

Two policy families fall out of making data exchanges explicit:

1. **Composition policies** -- expressed *in the DXG itself* as ordinary
   assignments ("conditional composition": ``method = "air" if
   C.order.cost > 1000 else "ground"``).  These need no machinery beyond
   ``Cast.set_assignment`` at run time; this module provides a small
   catalog of reusable expression builders.

2. **Access policies** -- run-time conditions on state access (the
   paper's "H should not access the L during user-defined sleep hours"),
   installed on a DE's access controller.
"""

from dataclasses import dataclass

from repro.errors import ConfigurationError


def threshold_route(value_path, threshold, above, below):
    """The paper's shipment policy shape: route by a numeric threshold."""
    return f"{above!r} if {value_path} > {threshold} else {below!r}"


@dataclass(frozen=True)
class TimeWindowCondition:
    """Deny a principal's access to a store during a daily time window.

    Times are hours in ``[0, 24)`` on the virtual clock's day (the clock
    counts seconds; ``seconds_per_hour`` adapts the scale -- simulations
    often compress time).  The window may wrap midnight.
    """

    principal: str
    store: str
    start_hour: float
    end_hour: float
    seconds_per_hour: float = 3600.0
    verbs: frozenset = None  # None = all verbs

    def __post_init__(self):
        if not (0 <= self.start_hour < 24 and 0 <= self.end_hour < 24):
            raise ConfigurationError("hours must be in [0, 24)")
        if self.seconds_per_hour <= 0:
            raise ConfigurationError("seconds_per_hour must be positive")

    def _in_window(self, now):
        hour = (now / self.seconds_per_hour) % 24.0
        if self.start_hour <= self.end_hour:
            return self.start_hour <= hour < self.end_hour
        return hour >= self.start_hour or hour < self.end_hour

    def __call__(self, principal, store, verb, now):
        """AccessController condition: False denies the access."""
        if principal != self.principal or store != self.store:
            return True
        if self.verbs is not None and verb not in self.verbs:
            return True
        return not self._in_window(now)


def deny_during(de, principal, store, start_hour, end_hour,
                seconds_per_hour=3600.0, verbs=None):
    """Install a sleep-hours-style policy on a Data Exchange.

    Returns the condition object (keep it to describe/remove the policy).
    """
    condition = TimeWindowCondition(
        principal=principal,
        store=store,
        start_hour=start_hour,
        end_hour=end_hour,
        seconds_per_hour=seconds_per_hour,
        verbs=frozenset(verbs) if verbs is not None else None,
    )
    de.acl.add_condition(condition)
    return condition
