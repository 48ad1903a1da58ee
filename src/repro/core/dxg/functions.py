"""Transformation functions available inside DXG expressions.

The paper's Fig. 6 uses ``currency_convert``; integrator authors can
register their own pure functions.  Functions must be deterministic and
side-effect-free: the executor re-evaluates assignments freely and may
push them down into a store (where re-execution is also possible).  They
receive the stores' data itself, plain (or frozen) dicts and lists, and
must not mutate their arguments.
"""

from repro.errors import ConfigurationError, ExpressionError

#: Fixed demo conversion table (rates to USD).  A real deployment would
#: plug in a live table; determinism matters more here.
_RATES_TO_USD = {
    "USD": 1.0,
    "EUR": 1.08,
    "GBP": 1.27,
    "JPY": 0.0067,
    "CAD": 0.73,
}


def currency_convert(amount, from_currency, to_currency):
    """Convert ``amount`` between currencies using a fixed rate table."""
    if amount is None:
        return None
    try:
        usd = amount * _RATES_TO_USD[from_currency]
        return round(usd / _RATES_TO_USD[to_currency], 4)
    except KeyError as exc:
        raise ExpressionError(f"unknown currency {exc.args[0]!r}") from exc


def coalesce(*values):
    """First non-None value (or None)."""
    for value in values:
        if value is not None:
            return value
    return None


def concat(*parts):
    """Join parts as strings, skipping None."""
    return "".join(str(p) for p in parts if p is not None)


def lookup(mapping, key, default=None):
    """Safe dict lookup usable from expressions."""
    if not isinstance(mapping, dict):
        return default
    return mapping.get(key, default)


def clamp(value, low, high):
    """Clamp a number into ``[low, high]``."""
    if value is None:
        return None
    return max(low, min(high, value))


class FunctionRegistry:
    """Named pure functions exposed to DXG expressions."""

    def __init__(self, functions=None):
        self._functions = {}
        self.version = 0  # bumped per (un)register: executors rebind on it
        for name, fn in (functions or {}).items():
            self.register(name, fn)

    def register(self, name, fn):
        if not callable(fn):
            raise ConfigurationError(f"function {name!r} must be callable")
        if not name.isidentifier():
            raise ConfigurationError(f"function name {name!r} must be an identifier")
        self._functions[name] = fn
        self.version += 1

    def unregister(self, name):
        self._functions.pop(name, None)
        self.version += 1

    def table(self):
        """The name -> callable mapping handed to the evaluator."""
        return dict(self._functions)

    def names(self):
        return sorted(self._functions)

    def __contains__(self, name):
        return name in self._functions


def standard_functions():
    """The registry every Cast integrator starts with."""
    return FunctionRegistry(
        {
            "currency_convert": currency_convert,
            "coalesce": coalesce,
            "concat": concat,
            "lookup": lookup,
            "clamp": clamp,
        }
    )
