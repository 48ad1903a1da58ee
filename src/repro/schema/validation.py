"""State validation against a data-store schema.

Stores call :func:`validate_state` on every write (the Data Exchange's
admission step).  Validation reports *all* violations, not just the first:
composition debugging is much easier with the complete list.
"""

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.util.paths import get_path, walk_leaves


@dataclass
class ValidationResult:
    """Outcome of validating one state object."""

    errors: list = field(init=False, default_factory=list)

    @property
    def ok(self):
        return not self.errors

    def raise_if_invalid(self):
        if self.errors:
            raise SchemaError("; ".join(self.errors))

    def __bool__(self):
        return self.ok


def validate_state(state, schema, partial=False, allow_unknown=False):
    """Validate ``state`` (a nested dict) against ``schema``.

    - ``partial=True`` skips required-field checks (used for patches).
    - ``allow_unknown=True`` permits fields not declared in the schema
      (Object DEs are strict by default; Log DEs are semi-structured).
    """
    result = ValidationResult()
    if not isinstance(state, dict):
        result.errors.append(f"state must be an object, got {type(state).__name__}")
        return result

    for f in schema.fields:
        value = get_path(state, f.path, default=None)
        present = _path_present(state, f.path)
        if f.required and not partial and not present:
            result.errors.append(f"missing required field {f.path!r}")
        if present and not f.type.check(value):
            result.errors.append(
                f"field {f.path!r} expects {f.type.describe()}, "
                f"got {type(value).__name__}"
            )

    if not allow_unknown:
        declared = set(schema.paths())
        for path_tuple, _value in walk_leaves(state):
            dotted = ".".join(str(p) for p in path_tuple)
            if dotted in declared:
                continue
            # A leaf under a declared open object (no declared children)
            # is fine: 'items: object' accepts arbitrary contents.
            if _covered_by_open_object(dotted, schema):
                continue
            result.errors.append(f"unknown field {dotted!r}")
    return result


def _path_present(state, dotted):
    current = state
    for part in dotted.split("."):
        if not isinstance(current, dict) or part not in current:
            return False
        current = current[part]
    return True


def _covered_by_open_object(dotted, schema):
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        ancestor = ".".join(parts[:cut])
        if schema.has_field(ancestor):
            # Open if the declared ancestor has no declared children.
            return not schema.children(ancestor)
    return False
