"""Deterministic order workload generation."""

import random
from dataclasses import dataclass, field

_CATALOG = [
    ("espresso-machine", 679.0),
    ("mug", 8.5),
    ("pen", 2.2),
    ("notebook", 12.0),
    ("desk-lamp", 39.9),
    ("monitor", 329.0),
    ("keyboard", 89.0),
    ("standing-desk", 899.0),
    ("headphones", 199.0),
    ("webcam", 59.0),
]

_STREETS = ["Elm St", "Oak Ave", "Birch Rd", "Cedar Ln", "Maple Dr"]
_CURRENCIES = ["USD", "EUR", "GBP", "CAD"]


@dataclass
class OrderWorkload:
    """Seeded generator of order payloads for the Checkout store."""

    seed: int = 7
    big_order_fraction: float = 0.2  # orders priced above the air threshold
    _rng: random.Random = field(init=False, repr=False)
    _count: int = field(init=False, default=0)

    def __post_init__(self):
        self._rng = random.Random(self.seed)

    def next_order(self):
        """One order payload (key, data) for the Checkout schema."""
        self._count += 1
        key = f"order/o{self._count:05d}"
        rng = self._rng
        if rng.random() < self.big_order_fraction:
            names = ["standing-desk", "espresso-machine"]
        else:
            names = rng.sample([n for n, _p in _CATALOG], k=rng.randint(1, 3))
        prices = dict(_CATALOG)
        items = {name: {"name": name, "priceUSD": prices[name]} for name in names}
        cost = round(sum(prices[n] for n in names), 2)
        data = {
            "items": items,
            "address": f"{rng.randint(1, 99)} {rng.choice(_STREETS)}",
            "cost": cost,
            "totalCost": cost,  # shipping added later by the integrator
            "currency": rng.choice(_CURRENCIES),
            "status": "placed",
            "cardToken": f"tok-{rng.randint(10**6, 10**7 - 1)}",
        }
        return key, data

    def orders(self, count):
        return [self.next_order() for _ in range(count)]
