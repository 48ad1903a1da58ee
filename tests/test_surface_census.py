"""The surface census: every option and attribute of ``src/repro``, counted.

An *option* is a defaulted parameter of a public function, public method
or public class constructor, or a defaulted field of a public
``@dataclass``.  ``op_*`` methods are skipped: their arguments are
wire-request fields, not options.  An option's *setters* are the call
sites in ``src/``, ``examples/``, ``benchmarks/`` and ``tests/`` that pass
it, by keyword or by position (``dataclasses.replace`` and attribute
stores count for dataclass fields).  Calls resolve by callee name, and
through plain aliases (``server_cls = ApiServer``), so a count may be too
high; a call through a subscript or ``getattr`` is not seen.  Forwarding
is not setting: a subclass passing its own parameter on through
``super().__init__(x=x)`` does not set ``x``; the subclass's callers do.
A dataclass's callers set the fields it inherits on its base's entry.

An *attribute* is a public ``self.<name>`` assigned in a public class's
``__init__``, or a public method; its *readers* are the ``.name`` loads
(and ``getattr``/``hasattr`` string names) anywhere in those trees.

``tests/golden/surface_census.json`` pins the option total and lists
every zero-setter option and zero-reader attribute the tree still
carries, each with the reason it stays.  The test fails when a new one
appears, when the total moves, or when a listed entry no longer applies,
so the surface can only shrink and the golden stays exact.
``python tests/test_surface_census.py`` rewrites the golden from the
tree on disk, keeping the reasons of entries that remain;
``--report`` prints every option with its setter counts per tree.

The module's second test is ruff's F401 over ``src/repro``: no module
imports a name it never uses (``__all__`` entries and ``__init__.py``
re-exports count as used).
"""

import ast
import json
import pathlib
import sys
from collections import Counter, defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).parent / "golden" / "surface_census.json"
TREES = ("src", "examples", "benchmarks", "tests")
_NAME_PROBES = {"getattr", "hasattr"}


def _public(name):
    return not name.startswith("_")


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _callee(node):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _base_names(node):
    return [base.id if isinstance(base, ast.Name) else base.attr
            for base in node.bases
            if isinstance(base, (ast.Name, ast.Attribute))]


class _Sig:
    """What a call site can pass to one callable."""

    def __init__(self, key, params, defaults, var_kw=None):
        self.key = key  # (relative path, qualified name)
        self.params = params  # positional-or-keyword names, self dropped
        self.defaults = defaults  # every defaulted name -> its source
        self.var_kw = var_kw  # the ``**kwargs`` name, if any
        self.inherited = {}  # dataclass field -> the base sig key owning it

    @classmethod
    def of_function(cls, key, node, bound):
        args = node.args
        positional = args.posonlyargs + args.args
        defaults = {
            arg.arg: ast.unparse(default) for arg, default in zip(
                positional[len(positional) - len(args.defaults):],
                args.defaults)
        }
        defaults.update(
            (arg.arg, ast.unparse(default))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None)
        names = [arg.arg for arg in positional][1 if bound else 0:]
        return cls(key, names, defaults,
                   args.kwarg.arg if args.kwarg else None)

    @classmethod
    def of_dataclass(cls, key, node):
        names, defaults = [], {}
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                continue
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            names.append(stmt.target.id)
            value = stmt.value
            if value is None:
                continue
            if isinstance(value, ast.Call) and _callee(value) in (
                    "field", "dc_field"):
                given = {kw.arg: kw.value for kw in value.keywords}
                if "init" in given and not ast.literal_eval(given["init"]):
                    names.pop()  # state, not a constructor parameter
                elif "default" in given:
                    defaults[stmt.target.id] = ast.unparse(given["default"])
                elif "default_factory" in given:
                    defaults[stmt.target.id] = (
                        ast.unparse(given["default_factory"]) + "()")
                continue
            defaults[stmt.target.id] = ast.unparse(value)
        return cls(key, names, defaults)

    def bindings(self, call, skip=0):
        """``(parameter, argument expr | None)`` for what ``call`` passes.

        A ``*``/``**`` splat could pass anything from where it stands, so
        it binds every such parameter to None.
        """
        for index, arg in enumerate(call.args[skip:]):
            if isinstance(arg, ast.Starred):
                for name in self.params[index:]:
                    yield name, None
                return
            if index < len(self.params):
                yield self.params[index], arg
        for kw in call.keywords:
            if kw.arg is None:
                for name in set(self.params) | set(self.defaults):
                    yield name, kw.value
            else:
                yield kw.arg, kw.value


class _Index:
    """Every callable and call site of the caller trees, by name."""

    def __init__(self, root):
        self.root = root
        self.modules = []  # (tree, relative path, module ast)
        for tree in TREES:
            for path in sorted((root / tree).rglob("*.py")):
                rel = path.relative_to(root).as_posix()
                self.modules.append((tree, rel, ast.parse(path.read_text(),
                                                          rel)))
        self.classes = defaultdict(list)  # class name -> [ClassDef]
        self.functions = defaultdict(list)  # name -> [_Sig], not __init__
        self.sigs = {}  # sig key -> _Sig
        self.ctors = {}  # id(ClassDef) -> its own constructor _Sig | None
        methods = set()
        for _tree, rel, module in self.modules:
            for node in ast.walk(module):  # breadth-first: class first
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name].append(node)
                    methods.update(self._add_class(rel, node))
                elif (isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                      and id(node) not in methods):
                    self._add(_Sig.of_function((rel, node.name), node,
                                               False), node.name)
        self._ctor_memo = {}
        self._inherited = set()  # dataclass sig keys already given bases
        for nodes in list(self.classes.values()):
            for node in nodes:
                self._inherit_fields(node)
        self.aliases = self._aliases()
        self._named_memo = {}

    def _inherit_fields(self, node):
        """Give a dataclass's constructor its dataclass bases' fields
        first, as the generated ``__init__`` takes them."""
        sig = self.ctors[id(node)]
        if sig is None or not _is_dataclass(node) or sig.key in self._inherited:
            return sig
        self._inherited.add(sig.key)
        params, defaults, inherited = [], {}, {}
        for base in _base_names(node):
            for base_node in self.classes.get(base, ()):
                if base_node is node or not _is_dataclass(base_node):
                    continue
                base_sig = self._inherit_fields(base_node)
                for name in base_sig.params:
                    if name not in params:
                        params.append(name)
                        inherited[name] = base_sig.inherited.get(
                            name, base_sig.key)
                defaults.update(base_sig.defaults)
        for name in sig.params:
            inherited.pop(name, None)
            if name not in params:
                params.append(name)
        defaults.update(sig.defaults)
        sig.params, sig.defaults, sig.inherited = params, defaults, inherited
        return sig

    def _add(self, sig, name=None):
        self.sigs[sig.key] = sig
        if name is not None:
            self.functions[name].append(sig)

    def _add_class(self, rel, node):
        """Register ``node``'s methods and constructor; their node ids."""
        methods = []
        self.ctors[id(node)] = None
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(id(stmt))
                bound = not any(getattr(d, "id", None) == "staticmethod"
                                for d in stmt.decorator_list)
                sig = _Sig.of_function((rel, f"{node.name}.{stmt.name}"),
                                       stmt, bound)
                if stmt.name == "__init__":
                    self.ctors[id(node)] = sig
                    self._add(sig)
                else:
                    self._add(sig, stmt.name)
        if self.ctors[id(node)] is None and _is_dataclass(node):
            self.ctors[id(node)] = _Sig.of_dataclass((rel, node.name), node)
            self._add(self.ctors[id(node)])
        return methods

    def ctor_sigs(self, name, seen=()):
        """The constructors ``name(...)`` reaches, following inheritance."""
        if name not in self._ctor_memo:
            sigs = []
            for node in self.classes.get(name, ()):
                if self.ctors[id(node)] is not None:
                    sigs.append(self.ctors[id(node)])
                    continue
                for base in _base_names(node):
                    if base not in seen and base != name:
                        sigs.extend(self.ctor_sigs(base, seen + (name,)))
            self._ctor_memo[name] = sigs
        return self._ctor_memo[name]

    def _aliases(self):
        """Local names bound to a known callable: ``server_cls = ApiServer``,
        ``a, b = (A, B) if x else (C, D)``, ``for cls in (A, B)``, a
        ``backend=MemKV`` default or keyword -- so ``server_cls(...)``
        resolves too (to every callable the name was ever bound to)."""
        known = set(self.functions) | set(self.classes)
        aliases = defaultdict(set)

        def bind(target, value):
            if isinstance(value, ast.IfExp):
                bind(target, value.body)
                bind(target, value.orelse)
            elif isinstance(target, ast.Name) and isinstance(value, ast.Name):
                if value.id in known:
                    aliases[target.id].add(value.id)
            elif isinstance(target, (ast.Tuple, ast.List)) and isinstance(
                    value, (ast.Tuple, ast.List)):
                for inner, item in zip(target.elts, value.elts):
                    bind(inner, item)

        for _tree, _rel, module in self.modules:
            for node in ast.walk(module):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        bind(target, node.value)
                elif isinstance(node, ast.For) and isinstance(
                        node.iter, (ast.Tuple, ast.List)):
                    for item in node.iter.elts:
                        bind(node.target, item)
                elif isinstance(node, ast.arguments):
                    positional = node.posonlyargs + node.args
                    for arg, default in zip(
                            positional[len(positional) - len(node.defaults):]
                            + node.kwonlyargs,
                            node.defaults + node.kw_defaults):
                        if default is not None:
                            bind(ast.Name(arg.arg), default)
                elif isinstance(node, ast.keyword) and node.arg:
                    bind(ast.Name(node.arg), node.value)
        return aliases

    def sigs_named(self, name):
        if name not in self._named_memo:
            names, todo = {name}, [name]
            while todo:  # every name ``name`` is an alias of, transitively
                for alias in self.aliases.get(todo.pop(), ()):
                    if alias not in names:
                        names.add(alias)
                        todo.append(alias)
            sigs = {}
            for each in sorted(names):
                for sig in self.functions.get(each, []) + self.ctor_sigs(each):
                    sigs.setdefault(id(sig), sig)
            self._named_memo[name] = list(sigs.values())
        return self._named_memo[name]


def _walk_scoped(node, cls=None, func=None):
    """Yield ``(node, enclosing ClassDef, enclosing FunctionDef)``."""
    for child in ast.iter_child_nodes(node):
        yield child, cls, func
        if isinstance(child, ast.ClassDef):
            yield from _walk_scoped(child, child, None)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _walk_scoped(child, cls, child)
        else:
            yield from _walk_scoped(child, cls, func)


def _setters(index):
    """``setters(sig key, param) -> Counter(tree -> call sites)``."""
    passed = defaultdict(Counter)  # (sig key, param) -> tree -> calls
    calls = defaultdict(Counter)  # sig key -> tree -> calls reaching it
    edges = defaultdict(list)  # (sig key, param) <- [(sig key, param)]
    fields = defaultdict(list)  # dataclass field -> [(sig key, class)]
    for nodes in index.classes.values():
        for node in nodes:
            sig = index.ctors[id(node)]
            if sig is not None and _is_dataclass(node):
                for name in sig.params:
                    fields[name].append((sig.key, node.name))
    for tree, _rel, module in index.modules:
        for node, cls, func in _walk_scoped(module):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    # ``obj.field = v`` sets a dataclass field; ``self.x``
                    # only inside that dataclass or a subclass of it.
                    own = (cls is not None and isinstance(target, ast.Attribute)
                           and getattr(target.value, "id", None) == "self")
                    mine = {cls.name, *_base_names(cls)} if own else ()
                    for key, owner in fields.get(
                            getattr(target, "attr", None), ()):
                        if not own or owner in mine:
                            passed[key, target.attr][tree] += 1
                continue
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            if name == "cls" and cls is not None:  # a classmethod's cls(...)
                name = cls.name
            if name == "__init__":
                if func is not None and func.name == "__init__":
                    _forward(index, node, cls, func, tree, passed, edges)
                continue
            if name == "replace":  # dataclasses.replace(obj, field=...)
                for kw in node.keywords:
                    for key, _owner in fields.get(kw.arg, ()):
                        passed[key, kw.arg][tree] += 1
            for sig in index.sigs_named(name) if name else ():
                calls[sig.key][tree] += 1
                for param in {param for param, _ in sig.bindings(node)}:
                    passed[sig.key, param][tree] += 1
    for sig in index.sigs.values():
        for name, owner in sig.inherited.items():
            edges[owner, name].append((sig.key, name))
    memo = {}

    def setters(key, param):
        sig = index.sigs[key]
        if param not in sig.defaults and param != sig.var_kw:
            return calls[key]  # required: every call passes it
        if (key, param) not in memo:
            memo[key, param] = total = Counter(passed[key, param])
            for source in edges[key, param]:
                total.update(setters(*source))
        return memo[key, param]

    return setters


def _forward(index, call, cls, func, tree, passed, edges):
    """A ``super().__init__(...)`` or ``Base.__init__(self, ...)`` call.

    An argument that is one of the enclosing ``__init__``'s own
    parameters is forwarded: its setters are the subclass's callers (plus
    the subclass itself when its default differs).  Anything else is a
    setter here.
    """
    if cls is None:
        return
    target = call.func.value
    if isinstance(target, ast.Call) and _callee(target) == "super":
        bases, skip = _base_names(cls), 0
    elif isinstance(target, ast.Name):
        bases, skip = [target.id], 1
    else:
        return
    own = index.ctors[id(cls)]
    own_names = set(own.params) | set(own.defaults) | {own.var_kw}
    for base in bases:
        for sig in index.ctor_sigs(base):
            for param, expr in sig.bindings(call, skip):
                if not (isinstance(expr, ast.Name) and expr.id in own_names):
                    passed[sig.key, param][tree] += 1
                    continue
                edges[sig.key, param].append(
                    (own.key, param if expr.id == own.var_kw else expr.id))
                if own.defaults.get(expr.id, sig.defaults.get(param)) != (
                        sig.defaults.get(param)):
                    passed[sig.key, param][tree] += 1


def census(root=ROOT):
    """``{"options": {id: {default, setters}}, "attributes": {id: readers}}``."""
    index = _Index(root)
    setters = _setters(index)
    readers = Counter()
    for _tree, _rel, module in index.modules:
        for node in ast.walk(module):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                readers[node.attr] += 1
            elif (isinstance(node, ast.Call) and _callee(node) in _NAME_PROBES
                  and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                readers[node.args[1].value] += 1
    options, attributes = {}, {}

    def add_options(name, sig):
        for param, default in sig.defaults.items():
            if not _public(param) or param in sig.inherited:
                continue
            count = setters(sig.key, param)
            options[f"{name}({param})"] = {
                "default": default,
                "setters": {tree: count[tree] for tree in TREES
                            if count[tree]},
            }

    for tree, rel, module in index.modules:
        if not rel.startswith("src/repro/"):
            continue
        where = rel[len("src/repro/"):]
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _public(node.name):
                    add_options(f"{where}::{node.name}",
                                index.sigs[rel, node.name])
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                name = f"{where}::{node.name}"
                if index.ctors[id(node)] is not None:
                    add_options(name, index.ctors[id(node)])
                for attr in _class_attributes(node):
                    attributes[f"{name}.{attr}"] = readers[attr]
                    method = index.sigs.get((rel, f"{node.name}.{attr}"))
                    if method is not None:
                        add_options(f"{name}.{attr}", method)
    return {"options": dict(sorted(options.items())),
            "attributes": dict(sorted(attributes.items()))}


def _class_attributes(node):
    """Public ``self.<name>`` set in ``__init__``, then public methods."""
    names = []
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if stmt.name == "__init__":
            for inner in ast.walk(stmt):
                targets = (inner.targets if isinstance(inner, ast.Assign)
                           else [inner.target]
                           if isinstance(inner, ast.AnnAssign) else [])
                names += [leaf.attr for target in targets
                          for leaf in ast.walk(target)
                          if isinstance(leaf, ast.Attribute)
                          and getattr(leaf.value, "id", None) == "self"
                          and _public(leaf.attr)]
        elif _public(stmt.name) and not stmt.name.startswith("op_"):
            names.append(stmt.name)
    return list(dict.fromkeys(names))


def zero_setters(current):
    return {name: entry for name, entry in current["options"].items()
            if not entry["setters"]}


def zero_readers(current):
    return {name for name, count in current["attributes"].items()
            if not count}


def violations(current, golden):
    """Why ``current`` does not match ``golden`` (empty when it does)."""
    problems = []
    for kind, now, listed, gone_from in (
            ("zero-setter option", set(zero_setters(current)),
             golden["zero_setter_options"], current["options"]),
            ("zero-reader attribute", zero_readers(current),
             golden["zero_reader_attributes"], current["attributes"])):
        problems += [f"new {kind}: {name}" for name in sorted(now - set(listed))]
        for name in sorted(set(listed) - now):
            state = "is gone" if name not in gone_from else "is now used"
            problems.append(f"listed {kind} {state}: {name}")
    total, pinned = len(current["options"]), golden["totals"]["options"]
    if total > pinned:
        problems.append(f"option total rose {pinned} -> {total}")
    elif total < pinned:
        problems.append(f"option total fell {pinned} -> {total}; "
                        "regenerate the golden to bank it")
    return problems


def golden_from(current, previous=None):
    """The golden for ``current``, keeping ``previous``'s reasons."""
    previous = previous or {"zero_setter_options": {},
                            "zero_reader_attributes": {}}
    options = zero_setters(current)
    attributes = zero_readers(current)
    return {
        "totals": {
            "options": len(current["options"]),
            "zero_setter_options": len(options),
            "zero_reader_attributes": len(attributes),
        },
        "zero_setter_options": {
            name: {"default": entry["default"],
                   "reason": previous["zero_setter_options"]
                   .get(name, {}).get("reason", "")}
            for name, entry in sorted(options.items())},
        "zero_reader_attributes": {
            name: {"reason": previous["zero_reader_attributes"]
                   .get(name, {}).get("reason", "")}
            for name in sorted(attributes)},
    }


def unused_imports(root=ROOT):
    """``path:line: name`` for every import a ``src/repro`` module never uses."""
    problems = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue  # a package's imports are its re-exports
        source = path.read_text()
        module = ast.parse(source)
        lines = source.splitlines()
        imported = {}
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = (
                        node.lineno)
            elif isinstance(node, ast.ImportFrom) and (
                    node.module != "__future__"):
                for alias in node.names:
                    if alias.name != "*" and alias.asname != alias.name:
                        imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(module)
                if isinstance(node, ast.Name)}
        for node in module.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        rel = path.relative_to(root).as_posix()
        problems += [f"{rel}:{line}: {name}"
                     for name, line in sorted(imported.items())
                     if name not in used and "noqa" not in lines[line - 1]]
    return problems


# -- the tests -----------------------------------------------------------------


def test_census_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert violations(census(), golden) == []


def test_every_listed_entry_says_why_it_stays():
    golden = json.loads(GOLDEN.read_text())
    missing = [name for section in ("zero_setter_options",
                                    "zero_reader_attributes")
               for name, entry in golden[section].items()
               if not entry["reason"].strip()]
    assert missing == []


def test_no_unused_imports():
    assert unused_imports() == []


# -- the ruler on a synthetic tree ---------------------------------------------

_SYNTHETIC = {
    "src/repro/mod.py": '''
class Base:
    def __init__(self, env, x=1, y=2):
        self.env = env
        self.unread = 0

    def run(self, fast=False):
        return self.env


class Sub(Base):
    def __init__(self, env, x=1):
        super().__init__(env, x=x)
''',
    "tests/test_mod.py": '''
from repro.mod import Base, Sub

def test_it():
    Base(None, y=3).run()
''',
}


def _synthetic(tmp_path, extra=""):
    for rel, text in _SYNTHETIC.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + (extra if rel.startswith("tests/") else ""))
    return census(tmp_path)


def test_ruler_reports_zero_setters_and_zero_readers(tmp_path):
    current = _synthetic(tmp_path)
    assert set(zero_setters(current)) == {
        "mod.py::Base(x)", "mod.py::Base.run(fast)", "mod.py::Sub(x)"}
    assert zero_readers(current) == {"mod.py::Base.unread"}
    assert current["options"]["mod.py::Base(y)"]["setters"] == {"tests": 1}


def test_ruler_does_not_count_super_forwarding_as_a_setter(tmp_path):
    current = _synthetic(tmp_path)
    assert current["options"]["mod.py::Base(x)"]["setters"] == {}
    # The subclass's own callers are the setters.
    current = _synthetic(tmp_path, "\nSub(None, x=5)\n")
    assert current["options"]["mod.py::Base(x)"]["setters"] == {"tests": 1}


def test_ruler_flags_new_and_vanished_entries(tmp_path):
    current = _synthetic(tmp_path)
    golden = golden_from(current)
    assert violations(current, golden) == []
    stale = dict(golden, zero_setter_options={
        **golden["zero_setter_options"],
        "mod.py::Gone(z)": {"default": "0", "reason": "kept"}})
    assert violations(current, stale) == [
        "listed zero-setter option is gone: mod.py::Gone(z)"]
    del golden["zero_setter_options"]["mod.py::Base.run(fast)"]
    golden["zero_reader_attributes"].clear()
    assert violations(current, golden) == [
        "new zero-setter option: mod.py::Base.run(fast)",
        "new zero-reader attribute: mod.py::Base.unread",
    ]
    golden["totals"]["options"] -= 1
    assert violations(current, golden)[-1] == "option total rose 3 -> 4"


if __name__ == "__main__":
    current = census()
    if "--report" in sys.argv:
        for name, entry in current["options"].items():
            counts = " ".join(f"{tree}={n}"
                              for tree, n in entry["setters"].items())
            print(f"{name} = {entry['default']}  [{counts or 'NONE'}]")
        sys.exit(0)
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else None
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_from(current, previous), indent=1)
                      + "\n")
    print(f"wrote {GOLDEN}")
