"""Unit tests for the DXG dependency graph, static analysis, and planner."""

import pytest

from repro.core.dxg import (
    DependencyGraph,
    analyze,
    parse_dxg,
    plan,
    standard_functions,
)
from repro.errors import DXGAnalysisError
from repro.schema import Schema

from tests.test_dxg_parser import FIG6


def spec_of(body, inputs=("A", "B", "C")):
    text = "Input:\n" + "".join(f"  {a}: app/v1/{a}\n" for a in inputs) + "DXG:\n"
    for target, fields in body.items():
        text += f"  {target}:\n"
        for f, e in fields.items():
            text += f"    {f}: '{e}'\n"
    return parse_dxg(text)


class TestGraph:
    def test_fig6_nodes_and_edges(self):
        graph = DependencyGraph.from_spec(parse_dxg(FIG6))
        assert ("C", "order", "shippingCost") in graph.assigned_nodes()
        assert ("S", "", "quote.price") in graph.source_nodes()
        assert ("C", "order", "shippingCost") in graph.successors(
            ("S", "", "quote.price")
        )

    def test_this_edge(self):
        graph = DependencyGraph.from_spec(parse_dxg(FIG6))
        # shippingCost depends on the order's own currency.
        assert ("C", "order", "shippingCost") in graph.successors(
            ("C", "order", "currency")
        )

    def test_fig6_is_acyclic(self):
        graph = DependencyGraph.from_spec(parse_dxg(FIG6))
        assert graph.find_cycles() == []
        order = graph.topological_order()
        assert len(order) == 8

    def test_direct_cycle_detected(self):
        spec = spec_of({"A": {"x": "B.y + 1"}, "B": {"y": "A.x + 1"}})
        graph = DependencyGraph.from_spec(spec)
        assert graph.find_cycles()
        with pytest.raises(ValueError):
            graph.topological_order()

    def test_self_cycle_via_this(self):
        spec = spec_of({"A": {"x": "this.x + 1"}})
        graph = DependencyGraph.from_spec(spec)
        assert graph.find_cycles()

    def test_whole_target_read_is_a_self_cycle(self):
        # A bare ``this`` reads the whole object, so writing any of its
        # fields changes what the assignment reads: it can never quiesce.
        spec = spec_of({"C": {"n": "str(this)"}})
        graph = DependencyGraph.from_spec(spec)
        assert graph.find_cycles() == [(("C", "", "n"), ("C", "", "n"))]
        with pytest.raises(ValueError):
            graph.topological_order()

    def test_whole_alias_read_cycles_through_its_writer(self):
        spec = spec_of({"A": {"x": "str(B)"}, "B": {"y": "A.x"}})
        assert DependencyGraph.from_spec(spec).find_cycles()

    def test_overlapping_path_cycle_detected(self):
        # A.quote (whole object) is written from B.v; B.v is written from
        # A.quote.price -- a cycle through path overlap.
        spec = spec_of({"A": {"quote": "B.v"}, "B": {"v": "A.quote.price"}})
        graph = DependencyGraph.from_spec(spec)
        assert graph.find_cycles()

    def test_affected_by_whole_object_change(self):
        graph = DependencyGraph.from_spec(parse_dxg(FIG6))
        affected = graph.affected_by([("C", "order", "")])
        # Everything derives from the order (directly or transitively).
        assert ("S", "", "method") in affected
        assert ("C", "order", "shippingCost") in affected

    def test_affected_by_specific_field(self):
        graph = DependencyGraph.from_spec(parse_dxg(FIG6))
        affected = graph.affected_by([("S", "", "id")])
        assert affected == {("C", "order", "trackingID")}


class TestAnalysis:
    def test_fig6_passes(self):
        report = analyze(parse_dxg(FIG6), functions=standard_functions())
        assert report.ok
        assert report.summary() == "ok"

    def test_cycle_rejected(self):
        spec = spec_of({"A": {"x": "B.y"}, "B": {"y": "A.x"}})
        report = analyze(spec)
        assert not report.ok and report.cycles
        with pytest.raises(DXGAnalysisError):
            report.raise_if_invalid()

    def test_whole_target_read_rejected(self):
        report = analyze(spec_of({"C": {"n": "str(this)"}}))
        assert report.errors == ["dependency cycle: C.n -> C.n"]

    def test_unknown_function_rejected(self):
        spec = spec_of({"A": {"x": "frobnicate(B.y)"}})
        report = analyze(spec, functions=standard_functions())
        assert any("frobnicate" in e for e in report.errors)

    def test_builtins_allowed(self):
        spec = spec_of({"A": {"x": "len(B.items)"}})
        assert analyze(spec, functions=standard_functions()).ok

    def test_schema_conformance_target(self):
        spec = spec_of({"A": {"nope": "B.y"}})
        schema = Schema.from_text("schema: app/v1/A/T\nx: number\n")
        report = analyze(spec, schemas={"A": schema})
        assert any("no field 'nope'" in e for e in report.errors)

    def test_schema_conformance_source(self):
        spec = spec_of({"A": {"x": "B.bogus"}})
        schemas = {
            "A": Schema.from_text("schema: app/v1/A/T\nx: number\n"),
            "B": Schema.from_text("schema: app/v1/B/T\ny: number\n"),
        }
        report = analyze(spec, schemas=schemas)
        assert any("bogus" in e for e in report.errors)

    def test_open_object_source_allowed(self):
        spec = spec_of({"A": {"x": "B.blob.anything"}})
        schemas = {
            "A": Schema.from_text("schema: app/v1/A/T\nx: number\n"),
            "B": Schema.from_text("schema: app/v1/B/T\nblob: object\n"),
        }
        assert analyze(spec, schemas=schemas).ok

    def test_unused_external_warning(self):
        spec = spec_of({"A": {"x": "B.y"}})
        schema = Schema.from_text(
            "schema: app/v1/A/T\nx: number # +kr: external\n"
            "lonely: string # +kr: external\n"
        )
        report = analyze(spec, schemas={"A": schema})
        assert report.ok  # warning, not error
        assert report.unused_external == [("A", "lonely")]

    def test_duplicate_assignment_rejected(self):
        from repro.core.dxg.parser import build_spec

        spec = build_spec({"A": "x/v1/A", "B": "x/v1/B"}, {"A": {"x": "B.y"}})
        spec.assignments.append(spec.assignments[0])
        report = analyze(spec)
        assert any("duplicate" in e for e in report.errors)


class TestPlanner:
    def test_fig6_plan_steps(self):
        execution_plan = plan(parse_dxg(FIG6))
        targets = [s.target for s in execution_plan.steps]
        assert set(targets) == {("C", "order"), ("P", ""), ("S", "")}

    def test_creatable_heuristic(self):
        execution_plan = plan(parse_dxg(FIG6))
        by_target = {s.target: s for s in execution_plan.steps}
        # C.order reads `this.currency` => patch-only; S and P are created.
        assert not by_target[("C", "order")].creatable
        assert by_target[("S", "")].creatable
        assert by_target[("P", "")].creatable

    def test_explicit_creatable_override(self):
        execution_plan = plan(parse_dxg(FIG6), creatable_targets=["S"])
        by_target = {s.target: s for s in execution_plan.steps}
        assert by_target[("S", "")].creatable
        assert not by_target[("P", "")].creatable

    def test_consolidation_counts(self):
        execution_plan = plan(parse_dxg(FIG6))
        assert execution_plan.write_ops_consolidated == 3
        assert execution_plan.write_ops_unconsolidated == 8

    def test_group_cycle_reported(self):
        # C.order <- S.quote and S <- C.order.*: a group-level cycle that is
        # fine at field level (fixpoint handles it).
        execution_plan = plan(parse_dxg(FIG6))
        assert any(
            {("C", "order"), ("S", "")} <= set(scc)
            for scc in execution_plan.group_cycles
        )

    def test_acyclic_groups_ordered_dependencies_first(self):
        spec = spec_of({"B": {"v": "A.x"}, "C": {"w": "B.v"}})
        execution_plan = plan(spec)
        targets = [s.target for s in execution_plan.steps]
        assert targets.index(("B", "")) < targets.index(("C", ""))

    def test_describe(self):
        text = plan(parse_dxg(FIG6)).describe()
        assert "step" in text and "C.order" in text
