"""Ablation: operation consolidation vs DXG width.

§3.3: "integrators can consolidate the state processing logic by
combining multiple state processing operations into fewer and more
efficient ones."  A consolidated executor issues ONE patch per target
object per exchange; unconsolidated, one write per field.  The saving grows
with the number of fields the DXG fills ("width").
"""

import pytest

from repro.core.dxg import DXGExecutor, parse_dxg
from repro.core.dxg.executor import ExecutorOptions
from repro.exchange import ObjectDE
from repro.metrics.report import Table
from repro.simnet import Environment, FixedLatency, Network
from repro.store import ApiServer

WIDTHS = (2, 8, 24)


def build_spec(width):
    source_fields = "\n".join(f"f{i}: number" for i in range(width))
    target_fields = "\n".join(f"g{i}: number # +kr: external" for i in range(width))
    assignments = "\n".join(f"    g{i}: A.f{i} * 2" for i in range(width))
    source_schema = f"schema: App/v1/Source/S\n{source_fields}\n"
    target_schema = f"schema: App/v1/Target/T\n{target_fields}\n"
    dxg = (
        "Input:\n"
        "  A: App/v1/Source/knactor-a\n"
        "  B: App/v1/Target/knactor-b\n"
        "DXG:\n"
        "  B:\n"
        f"{assignments}\n"
    )
    return source_schema, target_schema, dxg


def run(width, consolidate, exchanges=10):
    env = Environment()
    network = Network(env, default_latency=FixedLatency(0.00035))
    backend = ApiServer(env, network, watch_overhead=0.0)
    de = ObjectDE(env, backend)
    source_schema, target_schema, dxg = build_spec(width)
    de.host_store("knactor-a", source_schema, owner="a")
    de.host_store("knactor-b", target_schema, owner="b")
    de.grant("cast", "knactor-a", role="integrator")
    de.grant("cast", "knactor-b", role="integrator")
    executor = DXGExecutor(
        env,
        parse_dxg(dxg),
        handles={
            "A": de.handle("knactor-a", principal="cast"),
            "B": de.handle("knactor-b", principal="cast"),
        },
        options=ExecutorOptions(consolidate=consolidate),
    )
    owner = de.handle("knactor-a", principal="a")
    for i in range(exchanges):
        env.run(
            until=owner.create(
                f"x{i}", {f"f{j}": float(i + j) for j in range(width)}
            )
        )
        env.run(until=executor.exchange(f"x{i}"))
    # The interesting path is the UPDATE: every source field changes, so
    # the target needs width field-writes -- one patch consolidated,
    # width patches unconsolidated.  (Creation is one op either way.)
    executor.totals = type(executor.totals)()
    start = env.now
    for i in range(exchanges):
        env.run(
            until=owner.update(
                f"x{i}", {f"f{j}": float(100 + i + j) for j in range(width)}
            )
        )
        env.run(until=executor.exchange(f"x{i}"))
    elapsed = env.now - start
    return elapsed / exchanges, executor.totals


@pytest.fixture(scope="module")
def sweep():
    return {
        (width, consolidate): run(width, consolidate)
        for width in WIDTHS
        for consolidate in (True, False)
    }


def test_consolidation_report(sweep, report):
    table = Table(
        ["DXG width", "consolidated", "latency/exchange (ms)", "write ops"],
        title="Ablation: operation consolidation x DXG width",
    )
    for (width, consolidate), (latency, totals) in sorted(sweep.items()):
        table.add_row(
            width, "yes" if consolidate else "no",
            round(latency * 1000, 2), totals.writes,
        )
    report(table.render())


def test_consolidation_issues_one_write_per_object(sweep):
    for width in WIDTHS:
        _latency, totals = sweep[(width, True)]
        assert totals.writes == 10  # one patch per update exchange
        _latency, totals_off = sweep[(width, False)]
        assert totals_off.writes == 10 * width  # one patch per field


def test_consolidation_latency_advantage_grows_with_width(sweep):
    def saving(width):
        return sweep[(width, False)][0] - sweep[(width, True)][0]

    assert saving(WIDTHS[-1]) > saving(WIDTHS[0]) > 0


def test_results_identical_either_way(report):
    """Consolidation is a pure optimization: same final state."""
    # Re-run width=4 twice and compare target objects.
    states = {}
    for consolidate in (True, False):
        env = Environment()
        network = Network(env, default_latency=FixedLatency(0.0))
        backend = ApiServer(env, network, watch_overhead=0.0)
        de = ObjectDE(env, backend)
        source_schema, target_schema, dxg = build_spec(4)
        de.host_store("knactor-a", source_schema, owner="a")
        de.host_store("knactor-b", target_schema, owner="b")
        de.grant("cast", "knactor-a", role="integrator")
        de.grant("cast", "knactor-b", role="integrator")
        executor = DXGExecutor(
            env, parse_dxg(dxg),
            handles={"A": de.handle("knactor-a", principal="cast"),
                     "B": de.handle("knactor-b", principal="cast")},
            options=ExecutorOptions(consolidate=consolidate),
        )
        owner = de.handle("knactor-a", principal="a")
        env.run(until=owner.create("x", {f"f{j}": float(j) for j in range(4)}))
        env.run(until=executor.exchange("x"))
        reader = de.handle("knactor-b", principal="b")
        states[consolidate] = env.run(until=reader.get("x"))["data"]
    assert states[True] == states[False]


def test_bench_wide_exchange(benchmark):
    result = benchmark.pedantic(
        lambda: run(24, True, exchanges=5), rounds=3, iterations=1
    )
    assert result[1].writes >= 5
