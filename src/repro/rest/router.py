"""Path-template routing (``/orders/{id}/shipments``)."""

import re

from repro.errors import ConfigurationError

_SEGMENT_RE = re.compile(r"^\{(\w+)\}$")


class Route:
    """One (method, path template) -> handler binding."""

    METHODS = frozenset({"GET", "POST", "PUT", "PATCH", "DELETE"})

    def __init__(self, method, template, handler):
        method = method.upper()
        if method not in self.METHODS:
            raise ConfigurationError(f"unsupported method {method!r}")
        if not template.startswith("/"):
            raise ConfigurationError(f"path template {template!r} must start with /")
        self.method = method
        self.template = template
        self.handler = handler
        self._segments = [s for s in template.split("/") if s != ""]

    def match(self, method, path):
        """Returns the extracted path params dict, or None."""
        if method.upper() != self.method:
            return None
        parts = [s for s in path.split("/") if s != ""]
        if len(parts) != len(self._segments):
            return None
        params = {}
        for segment, part in zip(self._segments, parts):
            param = _SEGMENT_RE.match(segment)
            if param:
                params[param.group(1)] = part
            elif segment != part:
                return None
        return params

    def __repr__(self):
        return f"<Route {self.method} {self.template}>"


class Router:
    """Ordered route table with first-match dispatch."""

    def __init__(self):
        self._routes = []

    def add(self, method, template, handler):
        self._routes.append(Route(method, template, handler))
        return self

    def get(self, template, handler):
        return self.add("GET", template, handler)

    def post(self, template, handler):
        return self.add("POST", template, handler)

    def put(self, template, handler):
        return self.add("PUT", template, handler)

    def patch(self, template, handler):
        return self.add("PATCH", template, handler)

    def delete(self, template, handler):
        return self.add("DELETE", template, handler)

    def resolve(self, method, path):
        """Returns ``(handler, params)`` or ``(None, None)``."""
        for route in self._routes:
            params = route.match(method, path)
            if params is not None:
                return route.handler, params
        return None, None

    def __len__(self):
        return len(self._routes)
