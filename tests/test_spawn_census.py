"""No process spawned inside a pass: its layers run in the pass's process.

What a store delivery starts -- a reconcile, an exchange, a Sync move, a
rollup, an in-store function call -- is a pass of the consumer's
:class:`~repro.store.workqueue.WorkQueue`, which bounds it, retries it
and dead-letters it.  Everything the pass does below that runs in the
pass's own process, with ``yield from``: a reconcile's generator, an
exchange's gather and writes, a flow's delivery.  A
``*.process(...)`` call thrown away starts a process nobody waits for
(its failure ends the run, its work has no retry and no dead letter);
one that is yielded starts a process per layer, two kernel events each,
and drops the causal context unless it is re-armed.  In
``src/repro/core``, ``src/repro/txn``, ``src/repro/federation`` and
``src/repro/store/follow.py`` every ``.process(`` call left -- thrown
away, yielded, returned -- is listed here with its reason; the test
fails on a new one and on a listed one that is gone.  So a
:class:`~repro.store.follow.Mirror` never starts a process of its own:
its rebuild is its follower's catch-up.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src/repro/core", "src/repro/txn", "src/repro/federation",
         "src/repro/store/follow.py")

#: (path, enclosing function) -> why it may spawn a process.
ALLOWED = {
    ("src/repro/core/dxg/executor.py", "DXGExecutor.exchange"):
        "the entry point for callers outside a pass (verification, "
        "tests): it returns the process for them to wait on; Cast runs "
        "the same generator inside its own pass",
    ("src/repro/core/reconciler.py", "Reconciler.start"):
        "the one-time setup() hook runs once per reconciler, beside its "
        "queue; a failure there is a bug in the subclass",
    ("src/repro/txn/coordinator.py", "TxnCoordinator.txn"):
        "the coordinator's entry point: a 2PC round is the caller's "
        "request, returned for it to wait on, as a store request is",
    ("src/repro/txn/coordinator.py", "TxnCoordinator.restart"):
        "recovery resolves every undecided record itself, retrying "
        "participants until they answer; nothing delivered starts it",
    ("src/repro/store/follow.py", "Follower.resync"):
        "the one catch-up loop per follower: a stream break or a request "
        "starts it outside any pass, and it rides out a store down for "
        "longer than a pass would retry",
    ("src/repro/federation/materialize.py", "MaterializedView.start"):
        "the view's seed, started once and returned for its owner to "
        "wait on; it requests the sources' first catch-ups in turn",
    ("src/repro/federation/engine.py", "RegisteredView.execute"):
        "the federated fetch, waited on at once: a process per layer "
        "(two kernel events per federated read) that inlining would "
        "save, moving storefront_pages' work golden",
    ("src/repro/federation/engine.py", "RegisteredView._scatter"):
        "one fetch per source, so the sources are read in parallel and "
        "joined with all_of",
    ("src/repro/federation/engine.py", "ViewHandle.query"):
        "the view's entry point: a read is the caller's request, "
        "returned for it to wait on, as a store request is",
}


def spawns(root=ROOT):
    """``(path, Class.function)`` of every ``<anything>.process(...)``
    call, whatever is done with its result."""
    found = set()
    for tree in TREES:
        base = root / tree
        for path in [base] if base.is_file() else sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            found.update((rel, where) for where in _spawns(
                ast.parse(path.read_text(), rel)))
    return found


def _spawns(node, scope=()):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            yield from _spawns(child, scope + (child.name,))
            continue
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "process"):
            yield ".".join(scope)
        yield from _spawns(child, scope)


def test_no_spawn_outside_the_allow_list():
    assert spawns() == set(ALLOWED)


def test_the_ruler_sees_every_spawn(tmp_path):
    module = tmp_path / "src" / "repro" / "core" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "class C:\n"
        "    def handler(self, event):\n"
        "        self.env.process(self.work(event))\n"
        "    def waited(self):\n"
        "        yield self.env.process(self.work(None))\n"
        "    def entry(self):\n"
        "        return self.env.process(self.work(None))\n"
        "    def inline(self):\n"
        "        yield from self.work(None)\n")
    # A listed file is read; its neighbours are not.
    store = tmp_path / "src" / "repro" / "store"
    store.mkdir(parents=True)
    for name in ("follow.py", "client.py"):
        (store / name).write_text("def f(env):\n    env.process(None)\n")
    assert spawns(tmp_path) == {
        ("src/repro/core/mod.py", "C.handler"),
        ("src/repro/core/mod.py", "C.waited"),
        ("src/repro/core/mod.py", "C.entry"),
        ("src/repro/store/follow.py", "f"),
    }
