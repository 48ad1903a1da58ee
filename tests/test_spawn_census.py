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
``src/repro/core`` and ``src/repro/txn`` every ``.process(`` call left
-- thrown away, yielded, returned -- is listed here with its reason; the
test fails on a new one and on a listed one that is gone.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src/repro/core", "src/repro/txn")

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
}


def spawns(root=ROOT):
    """``(path, Class.function)`` of every ``<anything>.process(...)``
    call, whatever is done with its result."""
    found = set()
    for tree in TREES:
        for path in sorted((root / tree).rglob("*.py")):
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
    assert spawns(tmp_path) == {
        ("src/repro/core/mod.py", "C.handler"),
        ("src/repro/core/mod.py", "C.waited"),
        ("src/repro/core/mod.py", "C.entry"),
    }
