"""Schema and field definitions for knactor data stores.

A schema is declared in the YAML-subset syntax of the paper's Fig. 5::

    schema: OnlineRetail/v1/Checkout/Order
    items: object
    address: string
    cost: number
    shippingCost: number   # +kr: external
    totalCost: number
    currency: string
    paymentID: string      # +kr: external
    trackingID: string     # +kr: external

Nested fields are supported with indentation; a nested block is typed
``object`` with declared sub-fields::

    schema: OnlineRetail/v1/Shipping/Shipment
    quote:
      price: number
      currency: string
"""

from dataclasses import dataclass, field as dc_field

from repro.errors import SchemaError
from repro.schema.annotations import Annotations, parse_annotation
from repro.schema.types import AnyType, FieldType, ObjectType, parse_type
from repro.util import yamlish


@dataclass(frozen=True)
class SchemaName:
    """Structured schema name: ``App/version/Service/Resource``.

    The last component is optional (a knactor-level reference like
    ``OnlineRetail/v1/Checkout`` names the service's default store).
    """

    app: str
    version: str
    service: str
    resource: str = ""

    @classmethod
    def parse(cls, text):
        if isinstance(text, SchemaName):
            return text
        parts = [p for p in str(text).split("/") if p]
        if len(parts) == 3:
            return cls(parts[0], parts[1], parts[2])
        if len(parts) == 4:
            return cls(parts[0], parts[1], parts[2], parts[3])
        raise SchemaError(
            f"schema name {text!r} must be App/version/Service[/Resource]"
        )

    def __str__(self):
        base = f"{self.app}/{self.version}/{self.service}"
        return f"{base}/{self.resource}" if self.resource else base

    def with_version(self, version):
        return SchemaName(self.app, version, self.service, self.resource)


@dataclass(frozen=True)
class Field:
    """One schema field: dotted path, type, annotations, requiredness."""

    path: str
    type: FieldType = dc_field(default_factory=AnyType)
    annotations: Annotations = dc_field(default_factory=Annotations)
    required: bool = False

    @property
    def name(self):
        """Leaf name of the field."""
        return self.path.rsplit(".", 1)[-1]

    @property
    def external(self):
        return self.annotations.external

    def describe(self):
        note = self.annotations.describe()
        suffix = f"  # {note}" if note else ""
        return f"{self.path}: {self.type.describe()}{suffix}"


class Schema:
    """The schema of one data store: an ordered set of typed fields."""

    def __init__(self, name, fields=()):
        self.name = SchemaName.parse(name)
        self._fields = {}
        self._secret = None  # secret_fields() memo; add_field drops it
        for f in fields:
            self.add_field(f)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_text(cls, text):
        """Parse the Fig. 5 schema syntax (see module docstring)."""
        data, annotations = yamlish.parse(text, with_annotations=True)
        if not isinstance(data, dict) or "schema" not in data:
            raise SchemaError("schema text must start with a 'schema: <name>' line")
        name = data.pop("schema")
        schema = cls(name)
        schema._load_fields(data, annotations, prefix=())
        return schema

    @classmethod
    def from_dict(cls, payload):
        """Build from ``{"schema": name, "fields": [{...}, ...]}``."""
        if "schema" not in payload:
            raise SchemaError("payload is missing the 'schema' key")
        schema = cls(payload["schema"])
        for entry in payload.get("fields", []):
            schema.add_field(
                Field(
                    path=entry["path"],
                    type=parse_type(entry.get("type", "any")),
                    annotations=parse_annotation(entry.get("annotation")),
                    required=entry.get("required", False),
                )
            )
        return schema

    def _load_fields(self, mapping, annotations, prefix):
        for key, value in mapping.items():
            path = prefix + (key,)
            dotted = ".".join(path)
            ann = parse_annotation(annotations.get(path))
            if isinstance(value, dict):
                self.add_field(Field(dotted, ObjectType(), ann))
                self._load_fields(value, annotations, path)
            else:
                self.add_field(Field(dotted, parse_type(value), ann))

    def add_field(self, field):
        if field.path in self._fields:
            raise SchemaError(f"duplicate field {field.path!r} in {self.name}")
        parent = field.path.rsplit(".", 1)[0] if "." in field.path else None
        if parent is not None and parent not in self._fields:
            raise SchemaError(
                f"field {field.path!r} declared before its parent {parent!r}"
            )
        self._fields[field.path] = field
        self._secret = None

    # -- queries ----------------------------------------------------------

    @property
    def fields(self):
        """All fields, in declaration order."""
        return list(self._fields.values())

    def field(self, path):
        """Look up a field by dotted path; raises SchemaError if absent."""
        try:
            return self._fields[path]
        except KeyError:
            raise SchemaError(f"{self.name} has no field {path!r}") from None

    def has_field(self, path):
        return path in self._fields

    def paths(self):
        return list(self._fields)

    def external_fields(self):
        """Fields an integrator is allowed to fill (``+kr: external``)."""
        return [f for f in self.fields if f.annotations.external]

    def ingest_fields(self):
        """Fields the store accepts as ingested data (``+kr: ingest``)."""
        return [f for f in self.fields if f.annotations.ingest]

    def secret_fields(self):
        """``+kr: secret`` fields; asked on every masked read, so the
        walk is done once per schema state (callers get a fresh list)."""
        if self._secret is None:
            self._secret = [
                f for f in self._fields.values() if f.annotations.secret
            ]
        return list(self._secret)

    def top_level(self):
        """Fields without a parent."""
        return [f for f in self.fields if "." not in f.path]

    def children(self, path):
        prefix = path + "."
        depth = path.count(".") + 1
        return [
            f
            for f in self.fields
            if f.path.startswith(prefix) and f.path.count(".") == depth
        ]

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return {
            "schema": str(self.name),
            "fields": [
                {
                    "path": f.path,
                    "type": f.type.describe(),
                    "annotation": f.annotations.describe() or None,
                    "required": f.required,
                }
                for f in self.fields
            ],
        }

    def to_text(self):
        """Render back into the Fig. 5 syntax."""
        lines = [f"schema: {str(self.name)}"]
        for f in self.fields:
            indent = "  " * f.path.count(".")
            note = self.field(f.path).annotations.describe()
            comment = f"  # {note}" if note else ""
            if isinstance(f.type, ObjectType) and self.children(f.path):
                lines.append(f"{indent}{f.name}:{comment}")
            else:
                lines.append(f"{indent}{f.name}: {f.type.describe()}{comment}")
        return "\n".join(lines)

    def __eq__(self, other):
        return (
            isinstance(other, Schema)
            and self.name == other.name
            and self._fields == other._fields
        )

    def __repr__(self):
        return f"<Schema {self.name} fields={len(self._fields)}>"
