"""Static analysis of DXG specifications.

Run before a Cast integrator is (re)configured, so bad compositions are
rejected at configuration time rather than discovered as runtime churn:

- **cycle detection**: a dependency cycle among assigned fields can make
  propagation oscillate forever; rejected outright.
- **duplicate assignment**: two assignments to the same target field are
  ambiguous; rejected.
- **unknown function**: expressions may only call registered functions.
- **schema conformance** (when schemas are supplied): referenced source
  fields must exist; assigned fields must exist and, for non-owner
  integrators, be annotated ``+kr: external``.
- **unused-state detection** (warning): ``+kr: external`` fields that no
  assignment fills -- declared intent that the composition does not meet.
"""

from dataclasses import dataclass, field

from repro.errors import DXGAnalysisError
from repro.core.dxg.graph import DependencyGraph
from repro.util.safeexpr import SAFE_BUILTINS


@dataclass
class AnalysisReport:
    """Outcome of static analysis: hard errors and soft warnings."""

    errors: list = field(init=False, default_factory=list)
    warnings: list = field(init=False, default_factory=list)
    cycles: list = field(default_factory=list)
    unused_external: list = field(init=False, default_factory=list)

    @property
    def ok(self):
        return not self.errors

    def raise_if_invalid(self):
        if self.errors:
            raise DXGAnalysisError("; ".join(self.errors))

    def summary(self):
        parts = []
        if self.errors:
            parts.append(f"{len(self.errors)} error(s): " + "; ".join(self.errors))
        if self.warnings:
            parts.append(
                f"{len(self.warnings)} warning(s): " + "; ".join(self.warnings)
            )
        return " | ".join(parts) if parts else "ok"


def analyze(spec, functions=None, schemas=None):
    """Statically analyze ``spec``.

    - ``functions``: a :class:`~repro.core.dxg.functions.FunctionRegistry`
      (or None to skip call checking).
    - ``schemas``: optional ``{alias: Schema}`` for conformance checks.
    """
    report = AnalysisReport()
    graph = DependencyGraph.from_spec(spec)

    _check_duplicates(spec, report)
    _check_cycles(graph, report)
    if functions is not None:
        _check_functions(spec, functions, report)
    if schemas:
        _check_schemas(spec, schemas, report)
        _check_unused_external(spec, schemas, report)
    return report


def _check_duplicates(spec, report):
    seen = set()
    for a in spec.assignments:
        node = a.target_node
        if node in seen:
            report.errors.append(f"duplicate assignment to {'.'.join(filter(None, node))}")
        seen.add(node)


def _check_cycles(graph, report):
    cycles = graph.find_cycles()
    for cycle in cycles:
        spelling = " -> ".join(
            ".".join(p for p in node if p) for node in cycle
        )
        report.errors.append(f"dependency cycle: {spelling}")
    report.cycles = cycles


def _check_functions(spec, functions, report):
    import ast

    for a in spec.assignments:
        tree = ast.parse(a.expression.source, mode="eval")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                name = node.func.id
                if name not in functions and name not in SAFE_BUILTINS:
                    report.errors.append(
                        f"{a.describe()}: unknown function {name!r}"
                    )


def _check_schemas(spec, schemas, report):
    for a in spec.assignments:
        schema = schemas.get(a.target_alias)
        if schema is not None:
            if not schema.has_field(a.field):
                report.errors.append(
                    f"{a.describe()}: target schema {schema.name} "
                    f"has no field {a.field!r}"
                )
        for ref in a.sources:
            src_schema = schemas.get(ref.alias)
            if src_schema is None or not ref.path:
                continue
            if not _schema_covers(src_schema, ref.path):
                report.errors.append(
                    f"{a.describe()}: source schema {src_schema.name} "
                    f"has no field {ref.path!r}"
                )


def _schema_covers(schema, path):
    """True if ``path`` is declared, or falls under an open object field."""
    if schema.has_field(path):
        return True
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        ancestor = ".".join(parts[:cut])
        if schema.has_field(ancestor):
            return not schema.children(ancestor)
    return False


def _check_unused_external(spec, schemas, report):
    assigned = {(a.target_alias, a.field) for a in spec.assignments}
    for alias, schema in schemas.items():
        for f in schema.external_fields():
            if (alias, f.path) not in assigned:
                message = (
                    f"{alias}.{f.path} is annotated '+kr: external' "
                    "but no assignment fills it"
                )
                report.warnings.append(message)
                report.unused_external.append((alias, f.path))
