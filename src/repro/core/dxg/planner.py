"""Execution planning for DXG evaluation.

The planner turns a spec + dependency graph into an ordered list of
*write steps*, one per target object ``(alias, kind)``, such that steps
appear in dependency order wherever the group-level graph is acyclic
(groups that depend on each other cyclically -- e.g. Checkout and
Shipping mutually exchanging fields -- stay in one strongly connected
component; the executor evaluates in field order and writes in step order).

The **consolidation** optimization (paper §3.3: "integrators can
consolidate the state processing logic by combining multiple state
processing operations into fewer and more efficient ones") falls out of
this structure: a consolidated executor issues ONE patch per step per
exchange, instead of one write per assignment.
"""

from dataclasses import dataclass, field

from repro.core.dxg.graph import DependencyGraph


@dataclass
class WriteStep:
    """All assignments that land in one target object."""

    alias: str
    kind: str
    assignments: list = field(default_factory=list)
    creatable: bool = False

    @property
    def target(self):
        return (self.alias, self.kind)

    def describe(self):
        kind = f".{self.kind}" if self.kind else ""
        mode = "create/patch" if self.creatable else "patch-only"
        return f"{self.alias}{kind} [{mode}] <- {len(self.assignments)} field(s)"


@dataclass
class ExecutionPlan:
    """Ordered write steps plus planning metadata."""

    steps: list = field(default_factory=list)
    group_cycles: list = field(default_factory=list)  # SCCs with >1 group

    @property
    def write_ops_consolidated(self):
        """Write operations per full pass with consolidation on."""
        return len(self.steps)

    @property
    def write_ops_unconsolidated(self):
        """Write operations per full pass with consolidation off."""
        return sum(len(s.assignments) for s in self.steps)

    def step_for(self, alias, kind):
        for step in self.steps:
            if step.target == (alias, kind):
                return step
        return None

    def describe(self):
        lines = [f"plan: {len(self.steps)} step(s)"]
        lines += [f"  {i}. {s.describe()}" for i, s in enumerate(self.steps)]
        if self.group_cycles:
            lines.append(f"  (fixpoint groups: {self.group_cycles})")
        return "\n".join(lines)


def plan(spec, creatable_targets=None):
    """Build the :class:`ExecutionPlan` for ``spec``.

    ``creatable_targets``: explicit set of target spellings (``"S"`` /
    ``"C.order"``) the integrator may create objects for.  When None, a
    target is creatable iff none of its assignments read ``this.`` --
    filling fields of an object that must already exist implies the
    object is owned by its service, not by the integrator.
    """
    graph = DependencyGraph.from_spec(spec)
    groups = {}
    for assignment in spec.assignments:
        key = (assignment.target_alias, assignment.target_kind)
        groups.setdefault(key, []).append(assignment)

    # Group-level dependency edges.
    group_edges = {key: set() for key in groups}
    for assignment in spec.assignments:
        target_group = (assignment.target_alias, assignment.target_kind)
        for ref in assignment.sources:
            source_group = (ref.alias, ref.kind)
            if source_group in groups and source_group != target_group:
                group_edges[target_group].add(source_group)

    order, cycles = _condensation_order(set(groups), group_edges)

    # Order assignments inside each group by the field-level topology.
    try:
        field_order = {node: i for i, node in enumerate(graph.topological_order())}
    except ValueError:
        field_order = {}  # cyclic at field level is rejected by analysis

    steps = []
    for key in order:
        alias, kind = key
        assignments = sorted(
            groups[key], key=lambda a: field_order.get(a.target_node, 0)
        )
        steps.append(
            WriteStep(
                alias=alias,
                kind=kind,
                assignments=assignments,
                creatable=_is_creatable(key, assignments, creatable_targets),
            )
        )
    return ExecutionPlan(steps=steps, group_cycles=cycles)


def _is_creatable(key, assignments, creatable_targets):
    if creatable_targets is not None:
        alias, kind = key
        spelling = f"{alias}.{kind}" if kind else alias
        return spelling in set(creatable_targets)
    return not any(a.uses_this for a in assignments)


def _condensation_order(nodes, edges):
    """Topological order of SCCs (Tarjan), dependencies first.

    Returns ``(ordered_nodes, multi_node_sccs)``.  Nodes inside one SCC
    keep a deterministic (sorted) relative order.
    """
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    counter = [0]
    sccs = []

    def strongconnect(node):
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for dep in sorted(edges.get(node, ())):
            if dep not in index:
                strongconnect(dep)
                lowlink[node] = min(lowlink[node], lowlink[dep])
            elif dep in on_stack:
                lowlink[node] = min(lowlink[node], index[dep])
        if lowlink[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            sccs.append(sorted(component))

    for node in sorted(nodes):
        if node not in index:
            strongconnect(node)

    # Tarjan emits SCCs in reverse topological order of the condensation
    # when edges point at dependencies; since our edges point FROM a group
    # TO the groups it depends on, emission order is dependencies-first.
    ordered = [node for scc in sccs for node in scc]
    cycles = [tuple(scc) for scc in sccs if len(scc) > 1]
    return ordered, cycles
