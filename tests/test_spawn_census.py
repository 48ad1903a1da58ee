"""No fire-and-forget spawns where deliveries start work.

What a store delivery starts -- a reconcile, an exchange, a Sync move, a
rollup, an in-store function call -- is a pass of the consumer's
:class:`~repro.store.workqueue.WorkQueue`, which bounds it, retries it
and dead-letters it.  A ``*.process(...)`` call whose result is thrown
away starts a process nobody waits for: its failure ends the run, and
its work has no retry and no dead letter.  In ``src/repro/core`` and
``src/repro/txn`` the ones left are listed here, each with its reason;
the test fails on a new one and on a listed one that is gone.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src/repro/core", "src/repro/txn")

#: (path, enclosing function) -> why its spawn may stay unwaited.
ALLOWED = {
    ("src/repro/core/reconciler.py", "Reconciler.start"):
        "the one-time setup() hook runs once per reconciler, beside its "
        "queue; a failure there is a bug in the subclass",
    ("src/repro/txn/coordinator.py", "TxnCoordinator.restart"):
        "recovery resolves every undecided record itself, retrying "
        "participants until they answer; nothing delivered starts it",
}


def discarded_spawns(root=ROOT):
    """``(path, Class.function)`` of every statement that is a bare
    ``<anything>.process(...)`` call."""
    found = set()
    for tree in TREES:
        for path in sorted((root / tree).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            found.update((rel, where) for where in _bare_spawns(
                ast.parse(path.read_text(), rel)))
    return found


def _bare_spawns(node, scope=()):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            yield from _bare_spawns(child, scope + (child.name,))
            continue
        if (isinstance(child, ast.Expr) and isinstance(child.value, ast.Call)
                and isinstance(child.value.func, ast.Attribute)
                and child.value.func.attr == "process"):
            yield ".".join(scope)
        yield from _bare_spawns(child, scope)


def test_no_unwaited_spawn_outside_the_allow_list():
    assert discarded_spawns() == set(ALLOWED)


def test_the_ruler_sees_a_bare_spawn(tmp_path):
    module = tmp_path / "src" / "repro" / "core" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "class C:\n"
        "    def handler(self, event):\n"
        "        self.env.process(self.work(event))\n"
        "    def waited(self):\n"
        "        yield self.env.process(self.work(None))\n"
        "        return self.env.process(self.work(None))\n")
    assert discarded_spawns(tmp_path) == {("src/repro/core/mod.py",
                                           "C.handler")}
