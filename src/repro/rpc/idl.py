"""A Protobuf-like interface definition language.

Supports the proto3 subset the example applications need::

    syntax = "proto3";
    package onlineretail.shipping.v1;

    message Item {
      string name = 1;
    }

    message ShipOrderRequest {
      repeated Item items = 1;
      string address = 2;
      string method = 3;
    }

    message ShipOrderResponse {
      string tracking_id = 1;
      double shipping_cost = 2;
    }

    service ShippingService {
      rpc ShipOrder(ShipOrderRequest) returns (ShipOrderResponse);
    }

Scalar types: string, double, float, int32, int64, uint32, uint64, bool,
bytes.  Labels: ``repeated`` and ``optional``.  Messages may reference
other messages (including forward references).  Comments: ``//``.
"""

import re
from dataclasses import dataclass, field

from repro.errors import IDLError

SCALAR_TYPES = {
    "string": str,
    "bytes": str,
    "double": (int, float),
    "float": (int, float),
    "int32": int,
    "int64": int,
    "uint32": int,
    "uint64": int,
    "bool": bool,
}


@dataclass(frozen=True)
class MessageField:
    """One field in a message: ``[label] type name = tag;``"""

    name: str
    type: str
    tag: int
    label: str = ""  # "", "repeated", "optional"

    @property
    def repeated(self):
        return self.label == "repeated"


@dataclass
class Message:
    """A message definition."""

    name: str
    fields: list = field(init=False, default_factory=list)

    def field_by_name(self, name):
        for f in self.fields:
            if f.name == name:
                return f
        raise IDLError(f"message {self.name} has no field {name!r}")

    def field_names(self):
        return [f.name for f in self.fields]


@dataclass(frozen=True)
class RPCMethod:
    """``rpc Name(Request) returns (Response);``"""

    name: str
    request: str
    response: str


@dataclass
class Service:
    """A service definition with its rpc methods."""

    name: str
    methods: list = field(init=False, default_factory=list)

    def method(self, name):
        for m in self.methods:
            if m.name == name:
                return m
        raise IDLError(f"service {self.name} has no method {name!r}")


@dataclass
class IDLFile:
    """A parsed .proto-style file."""

    package: str = ""
    syntax: str = "proto3"
    messages: dict = field(init=False, default_factory=dict)
    services: dict = field(init=False, default_factory=dict)
    source_text: str = ""

    def message(self, name):
        try:
            return self.messages[name]
        except KeyError:
            raise IDLError(f"unknown message {name!r}") from None

    def service(self, name):
        try:
            return self.services[name]
        except KeyError:
            raise IDLError(f"unknown service {name!r}") from None

    def validate_payload(self, message_name, payload, _depth=0):
        """Check a dict payload against a message definition.

        Unknown fields are rejected (proto3 clients cannot set fields the
        schema does not define); missing fields default (proto3 default
        semantics), so they are allowed.
        """
        message = self.message(message_name)
        if not isinstance(payload, dict):
            raise IDLError(
                f"{message_name} payload must be a dict, "
                f"got {type(payload).__name__}"
            )
        known = {f.name: f for f in message.fields}
        for key, value in payload.items():
            if key not in known:
                raise IDLError(f"{message_name} has no field {key!r}")
            self._check_field(known[key], value, message_name)

    def _check_field(self, fld, value, message_name):
        if value is None:
            return
        if fld.repeated:
            if not isinstance(value, list):
                raise IDLError(
                    f"{message_name}.{fld.name} is repeated; expected a list"
                )
            for item in value:
                self._check_scalar_or_message(fld, item, message_name)
        else:
            self._check_scalar_or_message(fld, value, message_name)

    def _check_scalar_or_message(self, fld, value, message_name):
        if fld.type in SCALAR_TYPES:
            expected = SCALAR_TYPES[fld.type]
            if fld.type != "bool" and isinstance(value, bool):
                raise IDLError(
                    f"{message_name}.{fld.name}: bool is not a {fld.type}"
                )
            if not isinstance(value, expected):
                raise IDLError(
                    f"{message_name}.{fld.name}: expected {fld.type}, "
                    f"got {type(value).__name__}"
                )
        else:
            self.validate_payload(fld.type, value)


_FIELD_RE = re.compile(
    r"^(?:(repeated|optional)\s+)?(\w+)\s+(\w+)\s*=\s*(\d+)\s*;$"
)
_RPC_RE = re.compile(r"^rpc\s+(\w+)\s*\(\s*(\w+)\s*\)\s+returns\s*\(\s*(\w+)\s*\)\s*;$")


def parse_idl(text):
    """Parse IDL text into an :class:`IDLFile`."""
    idl = IDLFile(source_text=text)
    current = None  # ("message", Message) | ("service", Service)
    for raw_line in text.splitlines():
        line = raw_line.split("//", 1)[0].strip()
        if not line:
            continue
        if line.startswith("syntax"):
            match = re.match(r'syntax\s*=\s*"(\w+)"\s*;', line)
            if not match:
                raise IDLError(f"bad syntax line: {raw_line!r}")
            idl.syntax = match.group(1)
        elif line.startswith("package"):
            match = re.match(r"package\s+([\w.]+)\s*;", line)
            if not match:
                raise IDLError(f"bad package line: {raw_line!r}")
            idl.package = match.group(1)
        elif line.startswith("message"):
            match = re.match(r"message\s+(\w+)\s*\{", line)
            if not match:
                raise IDLError(f"bad message line: {raw_line!r}")
            name = match.group(1)
            if name in idl.messages:
                raise IDLError(f"duplicate message {name!r}")
            current = ("message", Message(name))
            idl.messages[name] = current[1]
        elif line.startswith("service"):
            match = re.match(r"service\s+(\w+)\s*\{", line)
            if not match:
                raise IDLError(f"bad service line: {raw_line!r}")
            name = match.group(1)
            if name in idl.services:
                raise IDLError(f"duplicate service {name!r}")
            current = ("service", Service(name))
            idl.services[name] = current[1]
        elif line == "}":
            current = None
        elif current is not None and current[0] == "message":
            match = _FIELD_RE.match(line)
            if not match:
                raise IDLError(f"bad field line: {raw_line!r}")
            label, type_name, field_name, tag = match.groups()
            message = current[1]
            if any(f.tag == int(tag) for f in message.fields):
                raise IDLError(
                    f"message {message.name}: duplicate tag {tag}"
                )
            message.fields.append(
                MessageField(field_name, type_name, int(tag), label or "")
            )
        elif current is not None and current[0] == "service":
            match = _RPC_RE.match(line)
            if not match:
                raise IDLError(f"bad rpc line: {raw_line!r}")
            current[1].methods.append(RPCMethod(*match.groups()))
        else:
            raise IDLError(f"unexpected line outside a block: {raw_line!r}")
    if current is not None:
        raise IDLError("unterminated block (missing '}')")
    _check_references(idl)
    return idl


def _check_references(idl):
    for message in idl.messages.values():
        for fld in message.fields:
            if fld.type not in SCALAR_TYPES and fld.type not in idl.messages:
                raise IDLError(
                    f"message {message.name}.{fld.name}: "
                    f"unknown type {fld.type!r}"
                )
    for service in idl.services.values():
        for method in service.methods:
            for ref in (method.request, method.response):
                if ref not in idl.messages:
                    raise IDLError(
                        f"service {service.name}.{method.name}: "
                        f"unknown message {ref!r}"
                    )
