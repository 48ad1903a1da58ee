"""A marketplace catalog for reusable integrators (paper §5).

"a marketplace for knactors and integrators could emerge, akin to current
API marketplaces.  In such a marketplace, knactors and integrators,
developed by various individuals or organizations, could be shared and
reused."

What makes this *possible* in the Knactor model is that an integrator's
requirements are pure data: the schema names (and fields) its DXG reads
and writes.  An :class:`IntegratorPackage` publishes a DXG plus the
schema requirements; a :class:`Catalog` answers "which published
integrators can run against THIS Data Exchange?" by checking hosted
schemas — no code inspection, no service coordination.  ``install``
creates the grants and the Cast in one step.
"""

from dataclasses import dataclass, field

from repro.core.cast import Cast
from repro.core.dxg import analyze, parse_dxg, standard_functions
from repro.errors import ConfigurationError, NotFoundError
from repro.schema import SchemaName


@dataclass(frozen=True)
class Requirement:
    """One store an integrator package needs: alias -> schema identity."""

    alias: str
    schema_name: str  # e.g. "OnlineRetail/v1/Shipping/Shipment"

    def matches(self, schema):
        """Same app/service/resource; the version must be compatible.

        Version compatibility is prefix-equality here (v1 == v1); richer
        semver ranges would slot in at this point.
        """
        wanted = SchemaName.parse(self.schema_name)
        have = schema.name
        return (
            wanted.app == have.app
            and wanted.service == have.service
            and wanted.resource == have.resource
            and wanted.version == have.version
        )


@dataclass
class CompatibilityReport:
    """Why a package does or does not fit a Data Exchange."""

    package: str
    compatible: bool
    #: alias -> hosted store
    store_map: dict = field(init=False, default_factory=dict)
    problems: list = field(init=False, default_factory=list)

    def describe(self):
        status = "compatible" if self.compatible else "NOT compatible"
        lines = [f"{self.package}: {status}"]
        for alias, store in sorted(self.store_map.items()):
            lines.append(f"  {alias} -> {store}")
        lines.extend(f"  problem: {p}" for p in self.problems)
        return "\n".join(lines)


@dataclass(frozen=True)
class IntegratorPackage:
    """A published, reusable Cast configuration."""

    name: str
    version: str
    description: str
    dxg: str
    author: str = ""

    def spec(self):
        return parse_dxg(self.dxg)

    def requirements(self):
        """Schema requirements derived from the DXG's Input section."""
        spec = self.spec()
        out = []
        for alias, ref in sorted(spec.inputs.items()):
            # Input refs name App/version/Service/store; the schema
            # identity drops the store component and re-adds the resource
            # from whatever is hosted -- so requirements match on
            # app/version/service.
            out.append(Requirement(alias=alias, schema_name=ref))
        return out


class Catalog:
    """The marketplace: publish, search, check, install."""

    def __init__(self):
        self._packages = {}

    def publish(self, package):
        key = (package.name, package.version)
        if key in self._packages:
            raise ConfigurationError(
                f"{package.name}@{package.version} is already published"
            )
        # Validate the DXG parses and is internally sound at publish time.
        report = analyze(package.spec(), functions=standard_functions())
        report.raise_if_invalid()
        self._packages[key] = package
        return package

    def get(self, name, version=None):
        if version is not None:
            try:
                return self._packages[(name, version)]
            except KeyError:
                raise NotFoundError(f"no package {name}@{version}") from None
        versions = sorted(v for (n, v) in self._packages if n == name)
        if not versions:
            raise NotFoundError(f"no package named {name!r}")
        return self._packages[(name, versions[-1])]

    def packages(self):
        return [self._packages[key] for key in sorted(self._packages)]

    # -- compatibility -----------------------------------------------------------

    def check(self, package, de):
        """Can ``package`` run against the stores hosted on ``de``?"""
        report = CompatibilityReport(
            package=f"{package.name}@{package.version}", compatible=True
        )
        spec = package.spec()
        for requirement in package.requirements():
            hosted = self._find_store(de, requirement)
            if hosted is None:
                report.compatible = False
                report.problems.append(
                    f"no hosted store with schema "
                    f"{self._identity(requirement.schema_name)}"
                )
                continue
            report.store_map[requirement.alias] = hosted.name
        if report.compatible:
            schemas = {
                alias: de.schema_for(store)
                for alias, store in report.store_map.items()
            }
            analysis = analyze(
                spec, functions=standard_functions(), schemas=schemas
            )
            if not analysis.ok:
                report.compatible = False
                report.problems.extend(analysis.errors)
        return report

    def compatible_packages(self, de):
        """Every published package that can run against this DE."""
        return [
            (package, report)
            for package in self.packages()
            for report in [self.check(package, de)]
            if report.compatible
        ]

    # -- installation -------------------------------------------------------------

    def install(self, name, runtime):
        """Grant + create + register a Cast for the latest published
        version of a package, on the runtime's ``object`` exchange."""
        package = self.get(name)
        de = runtime.exchange("object")
        report = self.check(package, de)
        if not report.compatible:
            raise ConfigurationError(
                f"cannot install {report.package}: "
                + "; ".join(report.problems)
            )
        integrator_name = f"{package.name}-{package.version}"
        for store in report.store_map.values():
            de.grant(integrator_name, store, role="integrator")
        cast = Cast(integrator_name, package.dxg, store_map=report.store_map)
        runtime.add_integrator(cast)
        return cast

    # -- internals --------------------------------------------------------------------

    @staticmethod
    def _identity(schema_ref):
        name = SchemaName.parse(schema_ref)
        return f"{name.app}/{name.version}/{name.service}"

    def _find_store(self, de, requirement):
        wanted = SchemaName.parse(requirement.schema_name)
        for store_name in de.stores():
            hosted = de.store(store_name)
            have = hosted.schema.name
            if (
                have.app == wanted.app
                and have.service == wanted.service
                and have.version == wanted.version
            ):
                return hosted
        return None
