"""The Knactor runtime: hosts knactors and integrators on DEs.

The runtime owns the simulation environment, the network, the tracer, and
one or more named Data Exchanges.  Registering a knactor *externalizes*
its stores (hosts them + registers schemas); registering an integrator
binds it (static analysis against live schemas) so it can be started and
reconfigured at run time.
"""

from repro.errors import ConfigurationError, NotFoundError
from repro.core.knactor import Knactor
from repro.core.reconciler import ReconcilerContext
from repro.obs import CausalTracer, ObsPlane

#: Execution backends the runtime can create environments for.
MODES = ("sim", "realtime")


def create_environment(mode="sim", **kwargs):
    """Build an execution environment for ``mode``.

    ``"sim"`` returns the deterministic discrete-event
    :class:`repro.simnet.Environment`; ``"realtime"`` returns a
    wall-clock-paced :class:`repro.realtime.RealtimeEnvironment`.
    Extra keyword arguments go to the environment constructor
    (e.g. ``factor=`` for realtime).
    """
    if mode == "sim":
        from repro.simnet import Environment

        return Environment(**kwargs)
    if mode == "realtime":
        from repro.realtime import RealtimeEnvironment

        return RealtimeEnvironment(**kwargs)
    raise ConfigurationError(
        f"unknown execution mode {mode!r}: expected one of {MODES}"
    )


class KnactorRuntime:
    """Hosts knactors + integrators over a set of Data Exchanges.

    The runtime is backend-agnostic: pass an environment built by
    :func:`create_environment` (or any object with the simnet kernel
    surface), or pass ``mode="sim"`` / ``mode="realtime"`` and let the
    runtime build one.  Passing both checks they agree.  Under the
    realtime backend the default network carries zero simulated latency
    -- real scheduling provides the time.

    The runtime has one tracer (``tracer``, a
    :class:`repro.obs.CausalTracer`; built here when not given), already
    threaded into every store server.  With ``obs=True`` (or a pre-built
    :class:`repro.obs.ObsPlane`) the observability plane is built around
    that tracer (``runtime.obs.causal is runtime.tracer``) -- deep
    components reach the plane through ``tracer.plane`` -- and binds the
    runtime's component registries for metric scraping.  ``obs=None``
    (default) mints no trace and no metric: nothing is recorded.
    """

    def __init__(self, env=None, network=None, tracer=None, obs=None,
                 mode=None):
        if env is None:
            env = create_environment(mode if mode is not None else "sim")
        elif mode is not None:
            if mode not in MODES:
                raise ConfigurationError(
                    f"unknown execution mode {mode!r}: "
                    f"expected one of {MODES}"
                )
            backend = env.backend
            if backend != mode:
                raise ConfigurationError(
                    f"mode={mode!r} does not match the given "
                    f"environment's backend {backend!r}"
                )
        self.env = env
        self.mode = env.backend
        self.network = (
            network if network is not None else self._default_network(env)
        )
        self.tracer = tracer if tracer is not None else self._default_tracer(env)
        self.obs = None
        if obs is not None and obs is not False:
            plane = obs if isinstance(obs, ObsPlane) else ObsPlane(env)
            self.obs = plane.bind_runtime(self)
        self.exchanges = {}  # name -> DataExchange
        self.knactors = {}
        self.integrators = {}
        self._started = False

    @staticmethod
    def _default_network(env):
        """A network matched to the backend: simulated hop latencies in
        the sim, zero added latency in real time (the wall clock is the
        latency)."""
        from repro.simnet import FixedLatency, Network

        if env.backend == "realtime":
            return Network(env, default_latency=FixedLatency(0.0))
        return Network(env)

    @staticmethod
    def _default_tracer(env):
        return CausalTracer(env)

    # -- registration -------------------------------------------------------------

    def add_exchange(self, name, de):
        if name in self.exchanges:
            raise ConfigurationError(f"exchange {name!r} already registered")
        self.exchanges[name] = de
        return de

    def exchange(self, name):
        try:
            return self.exchanges[name]
        except KeyError:
            raise NotFoundError(f"no exchange named {name!r}") from None

    def add_knactor(self, knactor):
        """Register and externalize a knactor's data stores."""
        if not isinstance(knactor, Knactor):
            raise ConfigurationError(f"expected a Knactor, got {knactor!r}")
        if knactor.name in self.knactors:
            raise ConfigurationError(f"knactor {knactor.name!r} already registered")
        self.knactors[knactor.name] = knactor
        handles = {}
        for binding in knactor.stores:
            de = self.exchange(binding.de)
            de.host_store(
                binding.store_name, binding.resolved_schema(), owner=knactor.name
            )
            handles[binding.local_name] = de.handle(
                binding.store_name, principal=knactor.name,
                location=knactor.location,
            )
        if knactor.reconciler is not None:
            knactor.reconciler.attach(
                ReconcilerContext(self.env, knactor.name, handles))
        knactor._handles = handles
        if self._started and knactor.reconciler is not None:
            knactor.reconciler.start()
        return knactor

    def add_integrator(self, integrator):
        if integrator.name in self.integrators:
            raise ConfigurationError(
                f"integrator {integrator.name!r} already registered"
            )
        integrator.bind(self)  # registered only once it is bound
        self.integrators[integrator.name] = integrator
        if self._started:
            integrator.start()
        return integrator

    # -- lookups ---------------------------------------------------------------------

    def knactor(self, name):
        try:
            return self.knactors[name]
        except KeyError:
            raise NotFoundError(f"no knactor named {name!r}") from None

    def integrator(self, name):
        try:
            return self.integrators[name]
        except KeyError:
            raise NotFoundError(f"no integrator named {name!r}") from None

    def handle_of(self, knactor_name, local_name="default"):
        """A knactor's own handle to one of its stores."""
        return self.knactor(knactor_name)._handles[local_name]

    def store_owner(self, store_name):
        """Which knactor owns a hosted store name (any DE)."""
        for knactor in self.knactors.values():
            for binding in knactor.stores:
                if binding.store_name == store_name:
                    return knactor.name
        raise NotFoundError(f"no knactor hosts store {store_name!r}")

    # -- lifecycle ---------------------------------------------------------------------

    def start(self):
        """Start every reconciler and integrator."""
        if self._started:
            return
        self._started = True
        for knactor in self.knactors.values():
            if knactor.reconciler is not None:
                knactor.reconciler.start()
        for integrator in self.integrators.values():
            integrator.start()

    def stop(self):
        if not self._started:
            return
        self._started = False
        for integrator in self.integrators.values():
            integrator.stop()
        for knactor in self.knactors.values():
            if knactor.reconciler is not None:
                knactor.reconciler.stop()

    def stats(self):
        """Every component's ``stats()`` as one plain-data tree (the
        ``stats()`` contract of ``docs/observability.md``).

        The obs plane scrapes this, so it never includes
        ``obs.snapshot()``: that would recurse.
        """
        exchanges = {}
        for name, de in self.exchanges.items():
            entry = exchanges[name] = {
                "stores": de.stores(),
                "backend": de.backend.stats(),
                "audited_accesses": sum(de.acl.audit.values()),
                "denials": sum(de.acl.denials().values()),
            }
            if de.retry_policy is not None:
                entry["retry"] = de.retry_policy.stats()
        return {
            "time": self.env.now,
            "knactors": {name: {
                **(k.reconciler.stats() if k.reconciler is not None else {}),
                "stores": [binding.store_name for binding in k.stores],
            } for name, k in self.knactors.items()},
            "integrators": {name: integrator.stats()
                            for name, integrator in self.integrators.items()},
            "exchanges": exchanges,
        }

    def describe(self):
        lines = [f"runtime: {len(self.knactors)} knactor(s), "
                 f"{len(self.integrators)} integrator(s)"]
        for knactor in self.knactors.values():
            lines.append(knactor.describe())
        for integrator in self.integrators.values():
            lines.append(repr(integrator))
        for name, de in self.exchanges.items():
            lines.append(de.describe())
        return "\n".join(lines)
