"""The knactor abstraction: a service as reconciler + data stores.

"In Knactor, each microservice is represented as a knactor that contains
a reconciler component and one or multiple data stores." (paper §3.2)

A :class:`Knactor` declares its data stores as :class:`StoreBinding`
entries (which DE, which schema, which store name); the runtime hosts them
("Externalize"), the schema's ``+kr`` annotations declare what can be
filled externally ("Express"), and integrators are configured separately
("Exchange").
"""

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.schema import Schema


@dataclass
class StoreBinding:
    """One data store a knactor externalizes.

    - ``local_name``: how the reconciler refers to it (``"default"`` is
      the primary Object store; Log stores conventionally ``"log"``),
    - ``de``: the runtime's DE name to host on (``"object"`` / ``"log"``),
    - ``schema``: a :class:`~repro.schema.Schema` or its text form,
    - ``store_name``: hosted store name; defaults to
      ``knactor-<knactor name>`` (plus ``-<local_name>`` for extras).
    """

    local_name: str
    de: str
    schema: object
    store_name: str = None

    def resolved_schema(self):
        if isinstance(self.schema, Schema):
            return self.schema
        return Schema.from_text(self.schema)


@dataclass
class Knactor:
    """A service in the Knactor pattern."""

    name: str
    stores: list = field(default_factory=list)
    reconciler: object = None
    location: str = None  # network location; defaults to the name

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("knactor name must be non-empty")
        if self.location is None:
            self.location = self.name
        seen = set()
        for binding in self.stores:
            if binding.local_name in seen:
                raise ConfigurationError(
                    f"knactor {self.name!r}: duplicate store "
                    f"local name {binding.local_name!r}"
                )
            seen.add(binding.local_name)
            if binding.store_name is None:
                suffix = (
                    "" if binding.local_name == "default" else f"-{binding.local_name}"
                )
                binding.store_name = f"knactor-{self.name}{suffix}"

    def binding(self, local_name):
        for b in self.stores:
            if b.local_name == local_name:
                return b
        raise ConfigurationError(
            f"knactor {self.name!r} has no store {local_name!r}"
        )

    def describe(self):
        lines = [f"knactor {self.name}"]
        for b in self.stores:
            lines.append(
                f"  store {b.local_name} -> {b.store_name} on {b.de} "
                f"(schema {b.resolved_schema().name})"
            )
        if self.reconciler is not None:
            lines.append(f"  reconciler {self.reconciler.name}")
        return "\n".join(lines)
