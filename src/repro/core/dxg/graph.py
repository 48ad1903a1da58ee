"""The field-level dependency graph of a DXG.

Nodes are ``(alias, kind, field_path)`` triples; a directed edge
``source -> target`` means the target field is computed from the source
field.  ``this.X`` reads contribute edges from the target object's own
field ``X``.  The graph supports the static analyses the paper calls out
(§5 "the Cast can provide loop and unused state detection with static
analysis") and the planner's topological ordering.
"""

from collections import defaultdict


class DependencyGraph:
    """Directed graph over DXG field nodes."""

    def __init__(self):
        self._succ = defaultdict(set)  # node -> set of downstream nodes
        self._pred = defaultdict(set)
        self._nodes = set()
        self._assignment_of = {}  # target node -> Assignment

    @classmethod
    def from_spec(cls, spec):
        graph = cls()
        for assignment in spec.assignments:
            graph.add_assignment(assignment)
        return graph

    def add_assignment(self, assignment):
        target = assignment.target_node
        self._nodes.add(target)
        self._assignment_of[target] = assignment
        for ref in assignment.sources:
            self.add_edge(ref.node(), target)
        for self_path in assignment.uses_this:
            source = (assignment.target_alias, assignment.target_kind, self_path)
            self.add_edge(source, target)

    def add_edge(self, source, target):
        self._nodes.add(source)
        self._nodes.add(target)
        self._succ[source].add(target)
        self._pred[target].add(source)

    @property
    def nodes(self):
        return set(self._nodes)

    def successors(self, node):
        return set(self._succ.get(node, ()))

    def predecessors(self, node):
        return set(self._pred.get(node, ()))

    def assigned_nodes(self):
        """Nodes that are the target of an assignment."""
        return set(self._assignment_of)

    def source_nodes(self):
        """Nodes that are read but never assigned by the DXG."""
        return self._nodes - set(self._assignment_of)

    # -- analyses ---------------------------------------------------------

    def find_cycles(self):
        """All elementary cycles among *assigned* nodes (field paths).

        A cycle through a pure source node cannot oscillate (the DXG never
        writes it), so only cycles where every node is assigned matter.
        Field-path overlap is respected: an edge into ``quote`` also
        blocks ``quote.price`` readers (handled by ``_expand_overlaps``).
        """
        succ = self._effective_successors()
        assigned = set(self._assignment_of)
        cycles = []
        state = {}  # node -> 0 visiting / 1 done
        stack = []

        def visit(node):
            state[node] = 0
            stack.append(node)
            for nxt in sorted(succ.get(node, ())):
                if nxt not in assigned:
                    continue
                if state.get(nxt) == 0:
                    cycles.append(tuple(stack[stack.index(nxt) :]) + (nxt,))
                elif nxt not in state:
                    visit(nxt)
            stack.pop()
            state[node] = 1

        for node in sorted(assigned):
            if node not in state:
                visit(node)
        return cycles

    def _effective_successors(self):
        """Successor map with field-path overlap edges added.

        Writing ``(A, k, "quote")`` affects readers of ``(A, k,
        "quote.price")`` and vice versa, so overlapping paths on the same
        object are linked both ways for cycle detection.
        """
        succ = {n: set(s) for n, s in self._succ.items()}
        by_object = defaultdict(list)
        for node in self._nodes:
            by_object[(node[0], node[1])].append(node)
        for nodes in by_object.values():
            for a in nodes:
                for b in nodes:
                    if a is b:
                        continue
                    if a[2] == b[2]:
                        continue
                    if a[2].startswith(b[2] + ".") or b[2].startswith(a[2] + "."):
                        # Overlap: a write to either is a change to both.
                        # Only propagate *from assigned* nodes to readers.
                        for src, dst in ((a, b), (b, a)):
                            if src in self._assignment_of:
                                succ.setdefault(src, set()).update(
                                    self._succ.get(dst, ())
                                )
        return succ

    def topological_order(self):
        """Assigned nodes in dependency order (raises on cycles).

        Pure source nodes are not included; ties break lexicographically
        for determinism.
        """
        if self.find_cycles():
            raise ValueError("graph has cycles; no topological order")
        assigned = set(self._assignment_of)
        indegree = {
            node: len([p for p in self._pred.get(node, ()) if p in assigned])
            for node in assigned
        }
        ready = sorted(n for n, d in indegree.items() if d == 0)
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for nxt in sorted(self._succ.get(node, ())):
                if nxt in indegree:
                    indegree[nxt] -= 1
                    if indegree[nxt] == 0:
                        ready.append(nxt)
                        ready.sort()
        return order

    def affected_by(self, changed_nodes):
        """Transitive closure of assigned nodes downstream of changes.

        ``changed_nodes`` may be whole-object nodes ``(alias, kind, "")``
        meaning "anything in this object changed".
        """
        frontier = []
        for node in changed_nodes:
            frontier.extend(self._matching_nodes(node))
        seen = set()
        result = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            for nxt in self._succ.get(node, ()):
                if nxt in self._assignment_of:
                    result.add(nxt)
                frontier.append(nxt)
        return result

    def _matching_nodes(self, changed):
        alias, kind, path = changed
        matches = []
        for node in self._nodes:
            if node[0] != alias or node[1] != kind:
                continue
            npath = node[2]
            if not path or not npath:
                matches.append(node)
            elif npath == path or npath.startswith(path + ".") or path.startswith(
                npath + "."
            ):
                matches.append(node)
        return matches
