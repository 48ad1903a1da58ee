"""Chained and fan-in integrator topologies.

The paper consolidates composition into "a single or a few
application-level integrator modules".  These tests exercise multi-
integrator topologies: state propagating through a chain of Casts, a
Cast feeding a Sync (Object -> Log via a bridging knactor), and two
Casts filling disjoint fields of one store.
"""

from repro.core import Cast, Knactor, KnactorRuntime, StoreBinding
from repro.exchange import ObjectDE
from repro.simnet import FixedLatency, Network
from repro.store import MemKV


def make_runtime(env):
    net = Network(env, default_latency=FixedLatency(0.0005))
    runtime = KnactorRuntime(env, network=net)
    de = ObjectDE(env, MemKV(env, net, watch_overhead=0.0))
    runtime.add_exchange("object", de)
    return runtime, de


def schema(service, fields):
    lines = [f"schema: Chain/v1/{service}/S"]
    lines += fields
    return "\n".join(lines) + "\n"


class TestChain:
    def test_three_hop_chain_propagates(self, env):
        """A -> (cast1) -> B -> (cast2) -> C: a value crosses two
        integrators, each owned by a different party."""
        runtime, de = make_runtime(env)
        runtime.add_knactor(Knactor("a", [StoreBinding(
            "default", "object", schema("A", ["v: number"]))]))
        runtime.add_knactor(Knactor("b", [StoreBinding(
            "default", "object",
            schema("B", ["doubled: number # +kr: external"]))]))
        runtime.add_knactor(Knactor("c", [StoreBinding(
            "default", "object",
            schema("C", ["final: number # +kr: external"]))]))
        de.grant("cast1", "knactor-a", role="reader")
        de.grant("cast1", "knactor-b", role="integrator")
        de.grant("cast2", "knactor-b", role="reader")
        de.grant("cast2", "knactor-c", role="integrator")
        runtime.add_integrator(Cast("cast1", (
            "Input:\n  A: Chain/v1/A/knactor-a\n  B: Chain/v1/B/knactor-b\n"
            "DXG:\n  B:\n    doubled: A.v * 2\n"
        )))
        runtime.add_integrator(Cast("cast2", (
            "Input:\n  B: Chain/v1/B/knactor-b\n  C: Chain/v1/C/knactor-c\n"
            "DXG:\n  C:\n    final: B.doubled + 1\n"
        )))
        runtime.start()
        a = runtime.handle_of("a")
        env.run(until=a.create("x", {"v": 10}))
        env.run()
        c = runtime.handle_of("c")
        assert env.run(until=c.get("x"))["data"]["final"] == 21

    def test_chain_updates_ripple(self, env):
        runtime, de = make_runtime(env)
        runtime.add_knactor(Knactor("a", [StoreBinding(
            "default", "object", schema("A", ["v: number"]))]))
        runtime.add_knactor(Knactor("b", [StoreBinding(
            "default", "object",
            schema("B", ["doubled: number # +kr: external"]))]))
        runtime.add_knactor(Knactor("c", [StoreBinding(
            "default", "object",
            schema("C", ["final: number # +kr: external"]))]))
        de.grant("cast1", "knactor-a", role="reader")
        de.grant("cast1", "knactor-b", role="integrator")
        de.grant("cast2", "knactor-b", role="reader")
        de.grant("cast2", "knactor-c", role="integrator")
        runtime.add_integrator(Cast("cast1", (
            "Input:\n  A: Chain/v1/A/knactor-a\n  B: Chain/v1/B/knactor-b\n"
            "DXG:\n  B:\n    doubled: A.v * 2\n"
        )))
        runtime.add_integrator(Cast("cast2", (
            "Input:\n  B: Chain/v1/B/knactor-b\n  C: Chain/v1/C/knactor-c\n"
            "DXG:\n  C:\n    final: B.doubled + 1\n"
        )))
        runtime.start()
        a = runtime.handle_of("a")
        env.run(until=a.create("x", {"v": 10}))
        env.run()
        env.run(until=a.update("x", {"v": 100}))
        env.run()
        c = runtime.handle_of("c")
        assert env.run(until=c.get("x"))["data"]["final"] == 201


class TestFanIn:
    def test_two_casts_fill_disjoint_fields(self, env):
        """Two independent integrators (different vendors) each own a
        slice of the target's external fields."""
        runtime, de = make_runtime(env)
        runtime.add_knactor(Knactor("src1", [StoreBinding(
            "default", "object", schema("Src1", ["x: number"]))]))
        runtime.add_knactor(Knactor("src2", [StoreBinding(
            "default", "object", schema("Src2", ["y: number"]))]))
        runtime.add_knactor(Knactor("sink", [StoreBinding(
            "default", "object",
            schema("Sink", ["fromx: number # +kr: external",
                            "fromy: number # +kr: external"]))]))
        de.grant("cx", "knactor-src1", role="reader")
        de.grant("cx", "knactor-sink", role="integrator")
        de.grant("cy", "knactor-src2", role="reader")
        de.grant("cy", "knactor-sink", role="integrator")
        runtime.add_integrator(Cast("cx", (
            "Input:\n  A: Chain/v1/Src1/knactor-src1\n"
            "  S: Chain/v1/Sink/knactor-sink\n"
            "DXG:\n  S:\n    fromx: A.x\n"
        )))
        runtime.add_integrator(Cast("cy", (
            "Input:\n  B: Chain/v1/Src2/knactor-src2\n"
            "  S: Chain/v1/Sink/knactor-sink\n"
            "DXG:\n  S:\n    fromy: B.y\n"
        )))
        runtime.start()
        env.run(until=runtime.handle_of("src1").create("k", {"x": 1}))
        env.run(until=runtime.handle_of("src2").create("k", {"y": 2}))
        env.run()
        sink = runtime.handle_of("sink")
        data = env.run(until=sink.get("k"))["data"]
        # Merge-patch semantics: neither integrator clobbered the other.
        assert data == {"fromx": 1, "fromy": 2}

    def test_fan_in_quiesces(self, env):
        runtime, de = make_runtime(env)
        runtime.add_knactor(Knactor("src1", [StoreBinding(
            "default", "object", schema("Src1", ["x: number"]))]))
        runtime.add_knactor(Knactor("sink", [StoreBinding(
            "default", "object",
            schema("Sink", ["fromx: number # +kr: external"]))]))
        de.grant("cx", "knactor-src1", role="reader")
        de.grant("cx", "knactor-sink", role="integrator")
        cast = Cast("cx", (
            "Input:\n  A: Chain/v1/Src1/knactor-src1\n"
            "  S: Chain/v1/Sink/knactor-sink\n"
            "DXG:\n  S:\n    fromx: A.x\n"
        ))
        runtime.add_integrator(cast)
        runtime.start()
        env.run(until=runtime.handle_of("src1").create("k", {"x": 1}))
        env.run()
        runs = cast.exchanges_run
        env.run(until=env.now + 30.0)
        assert cast.exchanges_run == runs  # no churn
