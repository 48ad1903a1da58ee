"""End-to-end tests for the Sync integrator (Log dataflow)."""

import pytest

from repro.core import Flow, Knactor, KnactorRuntime, Pipeline, StoreBinding, Sync
from repro.errors import ConfigurationError
from repro.exchange import LogDE
from repro.store import LogLake

MOTION = """\
schema: SmartHome/v1/Motion/Readings
triggered: boolean
device: string
"""

HOUSE = """\
schema: SmartHome/v1/House/Readings
motion: boolean # +kr: ingest
kwh: number # +kr: ingest
device: string # +kr: ingest
"""


def build_runtime(env, net, at_source=True, pipeline=None):
    runtime = KnactorRuntime(env, network=net)
    de = LogDE(env, LogLake(env, net, watch_overhead=0.0))
    runtime.add_exchange("log", de)
    runtime.add_knactor(
        Knactor("motion", [StoreBinding("log", "log", MOTION)])
    )
    runtime.add_knactor(
        Knactor("house", [StoreBinding("log", "log", HOUSE)])
    )
    de.grant("home-sync", "knactor-motion-log", role="integrator")
    de.grant("home-sync", "knactor-house-log", role="integrator")
    if pipeline is None:
        pipeline = (
            Pipeline()
            .filter("triggered == True")
            .rename("triggered", "motion")
            .cut("motion", "device")
        )
    sync = Sync(
        "home-sync",
        flows=[
            Flow(
                source="knactor-motion-log",
                target="knactor-house-log",
                pipeline=pipeline,
                at_source=at_source,
            )
        ],
    )
    runtime.add_integrator(sync)
    runtime.start()
    return runtime, de, sync


class TestSyncFlow:
    @pytest.mark.parametrize("at_source", [True, False])
    def test_filter_rename_load(self, env, zero_net, call, at_source):
        runtime, _de, sync = build_runtime(env, zero_net, at_source=at_source)
        motion = runtime.handle_of("motion", "log")
        call(
            motion.load(
                [
                    {"triggered": True, "device": "d1"},
                    {"triggered": False, "device": "d2"},
                    {"triggered": True, "device": "d3"},
                ]
            )
        )
        env.run()
        house = runtime.handle_of("house", "log")
        rows = call(house.query())
        assert [(r["device"], r["motion"]) for r in rows] == [
            ("d1", True),
            ("d3", True),
        ]

    def test_multiple_batches_no_duplicates(self, env, zero_net, call):
        runtime, _de, sync = build_runtime(env, zero_net)
        motion = runtime.handle_of("motion", "log")
        for i in range(5):
            call(motion.load([{"triggered": True, "device": f"d{i}"}]))
        env.run()
        house = runtime.handle_of("house", "log")
        rows = call(house.query())
        assert sorted(r["device"] for r in rows) == [f"d{i}" for i in range(5)]
        assert sync.stats()["flows"][0]["records_moved"] == 5

    def test_internal_stamps_stripped_on_load(self, env, zero_net, call):
        runtime, _de, _sync = build_runtime(env, zero_net)
        motion = runtime.handle_of("motion", "log")
        call(motion.load([{"triggered": True, "device": "d1"}]))
        env.run()
        house = runtime.handle_of("house", "log")
        rows = call(house.query())
        # The record got FRESH stamps in the house pool (seq restarts at 0).
        assert rows[0]["_seq"] == 0

    def test_all_filtered_batch_loads_nothing(self, env, zero_net, call):
        runtime, _de, sync = build_runtime(env, zero_net)
        motion = runtime.handle_of("motion", "log")
        call(motion.load([{"triggered": False, "device": "d1"}]))
        env.run()
        house = runtime.handle_of("house", "log")
        assert call(house.query()) == []
        assert sync.stats()["flows"][0]["records_moved"] == 0

    def test_self_flow_rejected(self, env, zero_net):
        with pytest.raises(ConfigurationError):
            build_runtime_self = KnactorRuntime(env, network=zero_net)
            de = LogDE(env, LogLake(env, zero_net))
            build_runtime_self.add_exchange("log", de)
            build_runtime_self.add_knactor(
                Knactor("motion", [StoreBinding("log", "log", MOTION)])
            )
            sync = Sync(
                "bad",
                flows=[Flow(source="knactor-motion-log", target="knactor-motion-log")],
            )
            build_runtime_self.add_integrator(sync)

    def test_two_flows_between_the_same_stores_rejected(self, env, zero_net):
        # A claimed seq range is keyed by (source, target, since, until):
        # two such flows would share every key and one would never run.
        _runtime, _de, sync = build_runtime(env, zero_net)
        flow = Flow(source="knactor-motion-log", target="knactor-house-log")
        with pytest.raises(ConfigurationError, match="two flows"):
            sync.reconfigure([flow, flow])

    def test_invalid_pipeline_rejected_at_bind(self, env, zero_net):
        with pytest.raises(Exception):
            build_runtime(env, zero_net, pipeline=[{"op": "explode"}])


class TestSyncLostMessage:
    @pytest.mark.parametrize("at_source", [True, False])
    def test_a_dropped_watch_message_loses_no_record(
            self, env, zero_net, call, at_source):
        # The next batch starts past the flow's cursor: locally as at
        # the source, the claimed range is read from the source.
        runtime, de, sync = build_runtime(env, zero_net, at_source=at_source)
        motion = runtime.handle_of("motion", "log")
        for device in ("a", "b", "c"):
            if device == "b":
                de.backend.drop_next_watch_message()
            call(motion.load([{"triggered": True, "device": device}]))
            env.run()
        house = runtime.handle_of("house", "log")
        assert [r["device"] for r in call(house.query())] == ["a", "b", "c"]
        [bound] = sync._bound.values()
        assert bound.records_moved == 3 and not bound.unmoved


class TestSyncReconfiguration:
    def test_swap_pipeline_at_runtime(self, env, zero_net, call):
        runtime, _de, sync = build_runtime(env, zero_net)
        motion = runtime.handle_of("motion", "log")
        call(motion.load([{"triggered": True, "device": "d1"}]))
        env.run()
        # Reconfigure: stop filtering, keep everything, derive a flag.
        sync.reconfigure(
            [
                Flow(
                    source="knactor-motion-log",
                    target="knactor-house-log",
                    pipeline=Pipeline()
                    .rename("triggered", "motion")
                    .cut("motion", "device"),
                )
            ]
        )
        call(motion.load([{"triggered": False, "device": "d2"}]))
        env.run()
        house = runtime.handle_of("house", "log")
        rows = call(house.query())
        devices = [r["device"] for r in rows]
        assert "d2" in devices  # no longer filtered out
        assert sync.generation == 1

    def test_stop_halts_flows(self, env, zero_net, call):
        runtime, _de, sync = build_runtime(env, zero_net)
        sync.stop()
        motion = runtime.handle_of("motion", "log")
        call(motion.load([{"triggered": True, "device": "d1"}]))
        env.run()
        house = runtime.handle_of("house", "log")
        assert call(house.query()) == []
