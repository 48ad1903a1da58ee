"""Tests for the calibration config, optimization profiles, and Cast workers."""

import pytest

from repro import config
from repro.core.optimizer import (
    K_APISERVER,
    K_REDIS,
    K_REDIS_UDF,
    PROFILES,
    OptimizationProfile,
)
from repro.errors import ConfigurationError


class TestConfig:
    def test_apiserver_writes_slower_than_memkv(self):
        api_write = config.APISERVER.ops["create"].base
        kv_write = config.MEMKV.ops["create"].base
        assert api_write > 10 * kv_write

    def test_watch_overheads_ordered(self):
        assert config.APISERVER.watch_overhead > config.MEMKV.watch_overhead

    def test_shipment_latency_model_centred_on_446ms(self):
        model = config.shipment_latency_model(seed=1)
        samples = sorted(model.sample() for _ in range(999))
        assert samples[499] == pytest.approx(0.446, rel=0.05)

    def test_shipment_model_seeded_reproducibly(self):
        a = config.shipment_latency_model(seed=5)
        b = config.shipment_latency_model(seed=5)
        assert [a.sample() for _ in range(5)] == [b.sample() for _ in range(5)]

    def test_all_write_ops_calibrated(self):
        for calibration in (config.APISERVER, config.MEMKV):
            for op in ("create", "update", "patch", "get", "list"):
                assert op in calibration.ops


class TestProfiles:
    def test_table2_rows_registered(self):
        assert set(PROFILES) == {"K-apiserver", "K-redis", "K-redis-udf"}

    def test_pushdown_only_on_udf_profile(self):
        assert not K_APISERVER.pushdown and not K_REDIS.pushdown
        assert K_REDIS_UDF.pushdown and K_REDIS_UDF.backend == "memkv"

    def test_executor_options_informer_style(self):
        options = K_REDIS.executor_options()
        assert options.trust_cache_for_missing
        assert options.consolidate

    def test_integrator_location_zero_copy(self):
        zero_copy = OptimizationProfile(name="zc", zero_copy=True)
        assert zero_copy.integrator_location("backend-node", "own-node") == "backend-node"
        assert K_REDIS.integrator_location("backend-node", "own-node") == "own-node"


class TestCastWorkers:
    def build(self, workers):
        from repro.core import Cast, Knactor, KnactorRuntime, StoreBinding
        from repro.exchange import ObjectDE
        from repro.simnet import Environment, FixedLatency, Network
        from repro.store import ApiServer

        env = Environment()
        net = Network(env, default_latency=FixedLatency(0.0005))
        runtime = KnactorRuntime(env, network=net)
        de = ObjectDE(env, ApiServer(env, net, watch_overhead=0.0))
        runtime.add_exchange("object", de)
        runtime.add_knactor(Knactor("src", [StoreBinding(
            "default", "object", "schema: A/v1/Src/S\nv: number\n")]))
        runtime.add_knactor(Knactor("dst", [StoreBinding(
            "default", "object",
            "schema: A/v1/Dst/D\ncopy: number # +kr: external\n")]))
        de.grant("c", "knactor-src", role="integrator")
        de.grant("c", "knactor-dst", role="integrator")
        cast = Cast("c", (
            "Input:\n  A: A/v1/Src/knactor-src\n  B: A/v1/Dst/knactor-dst\n"
            "DXG:\n  B:\n    copy: A.v * 2\n"
        ), workers=workers)
        runtime.add_integrator(cast)
        runtime.start()
        return env, runtime, de, cast

    def test_invalid_worker_count(self):
        from repro.core import Cast

        with pytest.raises(ConfigurationError):
            Cast("c", "x", workers=0)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_all_exchanges_complete(self, workers):
        env, runtime, de, cast = self.build(workers)
        src = runtime.handle_of("src")
        for i in range(10):
            env.run(until=src.create(f"x{i}", {"v": i}))
        env.run()
        dst = runtime.handle_of("dst")
        for i in range(10):
            assert env.run(until=dst.get(f"x{i}"))["data"]["copy"] == i * 2

    def test_more_workers_finish_sooner_under_burst(self):
        def completion_time(workers):
            env, runtime, de, cast = self.build(workers)
            src = runtime.handle_of("src")
            for i in range(12):
                env.run(until=src.create(f"x{i}", {"v": i}))
            env.run()
            return env.now

        assert completion_time(4) < completion_time(1)

    def test_same_cid_never_processed_concurrently(self):
        env, runtime, de, cast = self.build(4)
        # Instrument: track overlapping processing of one cid.
        active = set()
        overlaps = []
        original = cast._process

        def traced(env_, cid, parent):
            if cid in active:
                overlaps.append(cid)
            active.add(cid)
            try:
                yield env_.process(original(env_, cid, parent))
            finally:
                active.discard(cid)

        cast._process = traced
        src = runtime.handle_of("src")
        for i in range(5):
            env.run(until=src.create("same", {"v": i}) if i == 0
                    else src.update("same", {"v": i}))
        env.run()
        assert overlaps == []
