"""Schema diffing and compatibility checks.

Task T3 in the paper ("updating the Shipping schema") is a schema evolution:
the API-centric approach forces client-side code changes, while Knactor only
needs the DXG updated.  The diff machinery here powers both: the registry
uses it to gate re-registration, and the composition-cost benchmark uses it
to enumerate what changed.
"""

from dataclasses import dataclass, field

from repro.errors import SchemaError


@dataclass
class SchemaDiff:
    """Field-level difference between two schema versions."""

    added: list = field(default_factory=list)
    removed: list = field(default_factory=list)
    #: (path, old_type, new_type)
    retyped: list = field(init=False, default_factory=list)
    #: (path, old, new)
    reannotated: list = field(init=False, default_factory=list)

    @property
    def empty(self):
        return not (self.added or self.removed or self.retyped or self.reannotated)

    def is_backward_compatible(self):
        """Existing readers keep working: nothing removed or retyped.

        Annotation changes are compatible (they gate *writers*, and the
        registry re-checks grants), and additions are always compatible.
        """
        return not self.removed and not self.retyped

    def summary(self):
        parts = []
        if self.added:
            parts.append(f"added: {', '.join(self.added)}")
        if self.removed:
            parts.append(f"removed: {', '.join(self.removed)}")
        if self.retyped:
            parts.append(
                "retyped: "
                + ", ".join(f"{p} ({o}->{n})" for p, o, n in self.retyped)
            )
        if self.reannotated:
            parts.append(
                "reannotated: " + ", ".join(p for p, _o, _n in self.reannotated)
            )
        return "; ".join(parts) if parts else "no changes"


def diff_schemas(old, new):
    """Compute the :class:`SchemaDiff` from ``old`` to ``new``."""
    if str(old.name.app) != str(new.name.app) or old.name.service != new.name.service:
        raise SchemaError(
            f"cannot diff unrelated schemas {old.name} and {new.name}"
        )
    result = SchemaDiff()
    old_paths = set(old.paths())
    new_paths = set(new.paths())
    result.added = sorted(new_paths - old_paths)
    result.removed = sorted(old_paths - new_paths)
    for path in sorted(old_paths & new_paths):
        old_field = old.field(path)
        new_field = new.field(path)
        if old_field.type != new_field.type:
            result.retyped.append(
                (path, old_field.type.describe(), new_field.type.describe())
            )
        if old_field.annotations != new_field.annotations:
            result.reannotated.append(
                (
                    path,
                    old_field.annotations.describe(),
                    new_field.annotations.describe(),
                )
            )
    return result
