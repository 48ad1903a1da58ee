"""Client stub code generation from IDL files.

Real RPC stacks generate client code from the service's IDL; the client
imports and compiles against it.  This module does both jobs:

- :func:`generate_client_stub` emits the stub as **source text** -- the
  concrete artifact the composition-cost benchmark (Table 1) counts,
- :func:`build_client_class` builds the equivalent class at run time for
  the baseline applications to actually call.

The generated source mirrors what ``protoc`` + ``grpcio`` emit in shape:
one ``<Service>Stub`` class per service, one method per rpc, plus message
constructor helpers with per-field keyword arguments.
"""

from repro.errors import IDLError


def generate_client_stub(idl):
    """Emit Python stub source for every service ``idl`` defines."""
    services = list(idl.services.values())
    if not services:
        raise IDLError("IDL defines no services")
    lines = [
        '"""Generated client stubs. DO NOT EDIT.',
        "",
        f"source package: {idl.package or '(default)'}",
        '"""',
        "",
        "",
    ]
    for message in idl.messages.values():
        params = ", ".join(f"{f.name}=None" for f in message.fields)
        lines.append(f"def make_{_snake(message.name)}({params}):")
        lines.append(f'    """Constructor for message {message.name}."""')
        lines.append("    payload = {}")
        for f in message.fields:
            lines.append(f"    if {f.name} is not None:")
            lines.append(f"        payload[{f.name!r}] = {f.name}")
        lines.append("    return payload")
        lines.append("")
        lines.append("")
    for service in services:
        lines.append(f"class {service.name}Stub:")
        lines.append(f'    """Client stub for {service.name}."""')
        lines.append("")
        lines.append("    def __init__(self, channel):")
        lines.append("        self._channel = channel")
        lines.append("")
        for method in service.methods:
            lines.append(f"    def {_snake(method.name)}(self, request, deadline=None):")
            lines.append(
                f'        """Call {service.name}.{method.name} '
                f"({method.request} -> {method.response})." + '"""'
            )
            lines.append(
                f"        return self._channel.call({service.name!r}, "
                f"{method.name!r}, request, deadline=deadline)"
            )
            lines.append("")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def build_client_class(idl, service_name):
    """Build a callable stub class bound to ``idl``'s message schemas.

    Methods validate the request against the IDL before sending --
    exactly what compiled stubs enforce via their typed constructors.
    """
    service = idl.service(service_name)

    def make_method(method):
        def rpc_method(self, request, deadline=None):
            idl.validate_payload(method.request, request)
            return self._channel.call(
                service.name, method.name, request, deadline=deadline
            )

        rpc_method.__name__ = _snake(method.name)
        rpc_method.__doc__ = (
            f"Call {service.name}.{method.name} "
            f"({method.request} -> {method.response})."
        )
        return rpc_method

    namespace = {
        "__doc__": f"Runtime client stub for {service.name}.",
        "__init__": lambda self, channel: setattr(self, "_channel", channel),
    }
    for method in service.methods:
        namespace[_snake(method.name)] = make_method(method)
    return type(f"{service.name}Stub", (), namespace)


def _snake(name):
    import keyword

    out = []
    for i, ch in enumerate(name):
        if ch.isupper() and i > 0 and (not name[i - 1].isupper()):
            out.append("_")
        out.append(ch.lower())
    result = "".join(out)
    # 'Pass' -> 'pass_' etc.: generated methods must stay valid Python.
    if keyword.iskeyword(result):
        result += "_"
    return result
