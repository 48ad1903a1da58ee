"""The traced run: spans around this repo's layers, from outside.

Installed only in the traced subprocess, at the start of the timed
region (the generator proxies alone go in before the app is built, as
pass-throughs, so that long-lived processes started during set-up --
reconciler and integrator work loops -- are attributable too).  The
program is single-threaded inside the kernel, so there is one span
stack; a span's *self time* is its duration minus the part its child
spans cover.  Spans are kept as in-memory aggregates (count, self
nanoseconds) per name and written with the results.

Three kinds of span, all made by wrapping public attributes:

1. ``Environment.step`` -- one span per kernel event;
2. ``Environment.process`` -- the generator is replaced by a timing
   proxy, so every *resumption* of every process is a span named after
   the package whose code defines the generator (``proc:store``,
   ``proc:core.reconciler``, ... ``proc:bench`` for the driver).  The
   two generator adaptors of ``repro.obs.context`` (``bind_generator``,
   ``span_process``) get their inner generator proxied the same way, so
   the wrapped work is attributed to its own package and only the
   adaptor's overhead lands on ``proc:obs.context``;
3. a fixed table of public callables (``CALLABLES``), resolved through
   their public import paths and rebound in every ``repro.*`` module
   that imported them by name.

A span nested directly inside a span of the same name is folded into
it, so a recursive ``estimate_size`` counts its roots.
"""

import importlib
import sys
import time

_clock = time.perf_counter_ns

#: How many argument tuples each probed primitive keeps for replay.
PROBE_ARGS = 2000

#: (module, attribute path, span name).  A class attribute path is
#: ``Class.method``; ``op_*`` expands to every public op of the class.
CALLABLES = [
    ("repro.simnet.events", "Environment.schedule", "simnet.schedule"),
    ("repro.simnet.network", "Network.transfer", "simnet.network"),
    ("repro.simnet.network", "Link.send", "simnet.network"),
    ("repro.simnet.queue", "Store.put", "simnet.queue"),
    ("repro.simnet.queue", "Store.get", "simnet.queue"),
    ("repro.simnet.queue", "Resource.acquire", "simnet.queue"),
    ("repro.simnet.queue", "Resource.release", "simnet.queue"),
    ("repro.store.apiserver", "ApiServer.op_*", "store.objectops"),
    ("repro.store.memkv", "MemKV.op_*", "store.objectops"),
    ("repro.store.loglake", "LogLake.op_*", "store.loglake"),
    ("repro.store.base", "StoreServer.notify", "store.watch"),
    ("repro.store.base", "Watch.deliver", "store.watch"),
    ("repro.store.base", "StoreClient.request", "store.request"),
    ("repro.store.cow", "estimate_size", "store.cow.estimate_size"),
    ("repro.store.cow", "freeze", "store.cow.copy"),
    ("repro.store.cow", "thaw", "store.cow.copy"),
    ("repro.store.cow", "merge_shared", "store.cow.copy"),
    ("repro.store.cow", "diff_shared", "store.cow.copy"),
    ("repro.store.cow", "mask_shared", "store.cow.copy"),
    ("repro.store.cow", "copy_value", "store.cow.copy"),
    ("repro.store.ring", "hash_key", "store.ring"),
    ("repro.store.ring", "key_in_ranges", "store.ring"),
    ("repro.store.ring", "ShardRing.owner_of", "store.ring"),
    ("repro.flow.admission", "AdmissionController.admit", "flow.admit"),
    ("repro.exchange.access", "AccessController.check", "exchange.access"),
    ("repro.util.safeexpr", "SafeExpression.evaluate", "core.dxg.evaluate"),
    ("repro.core.dxg.executor", "DXGExecutor.update_cache",
     "core.dxg.update_cache"),
    ("repro.schema.validation", "validate_state", "schema.validate"),
    ("repro.query.core", "compile_ops", "query.compile"),
    ("repro.obs.registry", "Registry.counter", "obs.registry"),
    ("repro.obs.registry", "Registry.gauge", "obs.registry"),
    ("repro.obs.registry", "Registry.histogram", "obs.registry"),
    ("repro.obs.causal", "CausalTracer.start_span", "obs.causal"),
    ("repro.obs.causal", "CausalTracer.end_span", "obs.causal"),
    ("repro.obs.causal", "CausalTracer.point", "obs.causal"),
    ("repro.obs.causal", "CausalTracer.annotate", "obs.causal"),
    ("repro.federation.materialize", "MaterializedView.tables",
     "federation.materialize"),
    ("repro.federation.materialize", "MaterializedView.staleness",
     "federation.materialize"),
]

#: Primitives whose first ``PROBE_ARGS`` argument tuples are kept so
#: the probes can replay them untraced: span-table entry -> probe key.
PROBED = {
    ("repro.simnet.events", "Environment.schedule"): "schedule",
    ("repro.store.cow", "estimate_size"): "estimate_size",
    ("repro.store.cow", "merge_shared"): "merge_shared",
    ("repro.store.cow", "diff_shared"): "diff_shared",
    ("repro.store.ring", "hash_key"): "hash_key",
    ("repro.store.ring", "ShardRing.owner_of"): "owner_of",
    ("repro.query.core", "compile_ops"): "compile_ops",
    ("repro.obs.registry", "Registry.counter"): "registry.counter",
    ("repro.obs.registry", "Registry.gauge"): "registry.gauge",
    ("repro.obs.registry", "Registry.histogram"): "registry.histogram",
    ("repro.exchange.access", "AccessController.check"): "access_check",
    ("repro.util.safeexpr", "SafeExpression.evaluate"): "evaluate",
}


def package_of(code):
    """Span name for a generator, from the file that defines its code.

    Aggregation is per *package* (with the few sub-names the metric
    table needs), so splitting or renaming a module inside a package
    does not rename a metric.
    """
    parts = code.co_filename.replace("\\", "/").split("/")
    if "repro" not in parts[:-1]:
        return "proc:bench"
    below = parts[len(parts) - parts[::-1].index("repro"):]
    package, module = below[0], below[-1]
    if package.endswith(".py"):
        return "proc:repro"
    if package == "core":
        if len(below) > 2:
            return f"proc:core.{below[1]}"  # core/dxg/*
        sub = {"reconciler.py": "reconciler", "cast.py": "cast",
               "sync.py": "sync", "dataflow.py": "sync"}.get(module, "other")
        return f"proc:core.{sub}"
    if package == "store":
        if module in ("sharded.py", "reshard.py"):
            return "proc:store.sharded"
        return "proc:store"
    if package == "federation":
        sub = {"engine.py": "engine",
               "materialize.py": "materialize"}.get(module, "other")
        return f"proc:federation.{sub}"
    if package == "obs":
        return "proc:obs.context" if module == "context.py" else "proc:obs"
    return f"proc:{package}"


def rebind(original, replacement):
    """Point every ``repro.*`` module global that *is* ``original`` (its
    definition and each ``from x import y`` binding) at ``replacement``.

    Returns a function that puts ``original`` back.
    """
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or not (
                name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))

    def undo():
        for module, attr in changed:
            setattr(module, attr, original)

    return undo


class Tracer:
    """Span aggregates plus the install/uninstall of every wrapper."""

    def __init__(self):
        #: name -> [spans, self_ns]
        self.spans = {}
        #: probe key -> list of captured argument tuples
        self.captured = {}
        self.spawns = 0
        #: True only inside the timed region: proxies made during
        #: set-up pass straight through until then.
        self.active = False
        self._stack = [[None, 0]]  # sentinel root absorbs top-level time
        self._undo = []
        self._names = {}  # code object -> span record

    # -- span records ------------------------------------------------------

    def _record(self, name):
        record = self.spans.get(name)
        if record is None:
            record = self.spans[name] = [0, 0]
        return record

    def count(self, *names):
        return sum(self.spans.get(n, (0, 0))[0] for n in names)

    def self_us(self, *names):
        return sum(self.spans.get(n, (0, 0))[1] for n in names) / 1e3

    def total_self_us(self, exclude=()):
        return sum(
            rec[1] for name, rec in self.spans.items() if name not in exclude
        ) / 1e3

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, record, capture=None):
        stack = self._stack
        clock = _clock

        def traced(*args, **kwargs):
            if stack[-1][0] is record:  # nested in its own kind: fold
                return fn(*args, **kwargs)
            if capture is not None and len(capture) < PROBE_ARGS:
                capture.append((args, kwargs))
            frame = [record, 0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                record[0] += 1
                record[1] += elapsed - frame[1]
                stack[-1][1] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _wrap_compile(self, fn, record, capture):
        """``compile_ops``: a span around compiling, and another around
        every run of the pipeline it returns."""
        compile_traced = self._wrap(fn, record, capture)
        run_record = self._record("query.run")

        def traced(ops):
            return self._wrap(compile_traced(ops), run_record)

        traced.__wrapped__ = fn
        return traced

    def proxy(self, generator):
        """``generator`` behind a proxy that times every resumption."""
        if isinstance(generator, _Proxy) or not hasattr(generator, "send"):
            return generator
        code = getattr(generator, "gi_code", None)
        record = self._names.get(code)
        if record is None:
            name = package_of(code) if code is not None else "proc:bench"
            record = self._names[code] = self._record(name)
        return _Proxy(generator, record, self)

    def _wrap_process(self, fn):
        record = self._record("simnet.process")
        traced_fn = self._wrap(fn, record)

        def process(env, generator):
            if not self.active:
                return fn(env, self.proxy(generator))
            self.spawns += 1
            return traced_fn(env, self.proxy(generator))

        process.__wrapped__ = fn
        return process

    def _wrap_adaptor(self, fn):
        def adaptor(gen, *args, **kwargs):
            return fn(self.proxy(gen), *args, **kwargs)

        adaptor.__wrapped__ = fn
        return adaptor

    # -- install / uninstall -----------------------------------------------

    def _set(self, owner, attr, value):
        """Replace a class attribute, remembering how to put it back."""
        if attr in vars(owner):
            previous = vars(owner)[attr]
            self._undo.append(lambda: setattr(owner, attr, previous))
        else:  # inherited: the override is simply removed again
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    def _install_one(self, module_name, path, make):
        module = importlib.import_module(module_name)
        if "." not in path:
            original = getattr(module, path)
            self._undo.append(rebind(original, make(original)))
            return
        class_name, attr = path.split(".")
        cls = getattr(module, class_name)
        attrs = ([a for a in dir(cls) if a.startswith("op_")]
                 if attr == "op_*" else [attr])
        for name in attrs:
            self._set(cls, name, make(getattr(cls, name)))

    def prepare(self):
        """Before set-up: every new process gets a (dormant) proxy."""
        self._install_one("repro.simnet.events", "Environment.process",
                          self._wrap_process)
        for adaptor in ("bind_generator", "span_process"):
            self._install_one("repro.obs.context", adaptor,
                              self._wrap_adaptor)

    def install(self):
        """At the start of the timed region: every span goes live."""
        # The metric handles the registry hands out: inc / set / observe
        # (the class is reached through the public constructor path).
        from repro.obs.registry import Registry
        from repro.simnet import Environment

        handle_cls = type(Registry(Environment()).counter("bench_probe"))
        record = self._record("obs.registry")
        for attr in ("inc", "set", "observe"):
            self._set(handle_cls, attr,
                      self._wrap(getattr(handle_cls, attr), record))

        for module_name, path, span in CALLABLES:
            record = self._record(span)
            probe = PROBED.get((module_name, path))
            capture = (self.captured.setdefault(probe, [])
                       if probe is not None else None)
            if span == "query.compile":
                def make(fn, record=record, capture=capture):
                    return self._wrap_compile(fn, record, capture)
            else:
                def make(fn, record=record, capture=capture):
                    return self._wrap(fn, record, capture)
            self._install_one(module_name, path, make)

        self._install_one("repro.simnet.events", "Environment.step",
                          lambda fn: self._wrap(
                              fn, self._record("simnet.step")))
        self.active = True

    def uninstall(self):
        self.active = False
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        self.prepare()
        self.install()
        return self

    def __exit__(self, *_exc):
        self.uninstall()
        return False


class _Proxy:
    """A generator stand-in that times each resumption as one span.

    Values, exceptions (``throw``) and ``StopIteration`` pass through
    untouched, so ``Process`` and ``yield from`` cannot tell the proxy
    from the generator it wraps.
    """

    __slots__ = ("_generator", "_record", "_tracer", "__name__")

    def __init__(self, generator, record, tracer):
        self._generator = generator
        self._record = record
        self._tracer = tracer
        self.__name__ = getattr(generator, "__name__", "process")

    def _resume(self, method, *args):
        tracer, record = self._tracer, self._record
        stack = tracer._stack
        # Dormant outside the timed region; folded when an adaptor
        # wraps a generator of its own package.
        if not tracer.active or stack[-1][0] is record:
            return method(*args)
        frame = [record, 0]
        stack.append(frame)
        started = _clock()
        try:
            return method(*args)
        finally:
            elapsed = _clock() - started
            stack.pop()
            record[0] += 1
            record[1] += elapsed - frame[1]
            stack[-1][1] += elapsed

    def send(self, value):
        return self._resume(self._generator.send, value)

    def throw(self, *args):
        return self._resume(self._generator.throw, *args)

    def close(self):
        return self._generator.close()

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)
