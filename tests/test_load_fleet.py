"""The workload fleet: seeded determinism and scenario smokes.

The load generator's contract is bit-level: the same seed must produce
the same arrival schedule, the same key sequence, and therefore the
same offered-load fingerprint on any machine and either backend.  These
tests pin that contract, plus a smoke of every scenario adapter
(retail, smart home, social network, sensor fleet) under nominal load
with its SLOs evaluated.
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.load import (
    ConstantArrivals,
    DiurnalArrivals,
    FlashCrowd,
    HeavyTailedServiceTimes,
    LoadGenerator,
    PoissonArrivals,
    ServiceTimeMix,
    TrafficClass,
    ZipfKeys,
)
from repro.obs.slo import evaluate


class TestArrivalProcesses:
    def test_constant_is_an_exact_grid(self):
        times = list(ConstantArrivals(10).times(random.Random(1), 2.0))
        assert len(times) == 20
        assert times[0] == 0.0
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(abs(g - 0.1) < 1e-12 for g in gaps)

    def test_constant_ignores_the_rng(self):
        a = list(ConstantArrivals(7).times(random.Random(1), 1.0))
        b = list(ConstantArrivals(7).times(random.Random(999), 1.0))
        assert a == b

    def test_poisson_is_seed_deterministic(self):
        a = list(PoissonArrivals(50).times(random.Random(42), 4.0))
        b = list(PoissonArrivals(50).times(random.Random(42), 4.0))
        c = list(PoissonArrivals(50).times(random.Random(43), 4.0))
        assert a == b
        assert a != c

    def test_poisson_mean_rate(self):
        times = list(PoissonArrivals(100).times(random.Random(7), 50.0))
        # 5000 expected arrivals; 4 sigma is ~±283.
        assert 4500 < len(times) < 5500

    def test_all_arrivals_respect_the_window(self):
        processes = [
            ConstantArrivals(20),
            PoissonArrivals(20),
            DiurnalArrivals(5, 40, period=2.0),
            FlashCrowd(5, 80, spike_at=1.0, spike_duration=0.5),
        ]
        for process in processes:
            times = list(process.times(random.Random(3), 3.0, start=10.0))
            assert times, type(process).__name__
            assert all(10.0 <= t < 13.0 for t in times)
            assert times == sorted(times)

    def test_diurnal_rate_curve(self):
        diurnal = DiurnalArrivals(10, 110, period=8.0)
        assert diurnal.rate_at(0.0) == pytest.approx(10.0)
        assert diurnal.rate_at(4.0) == pytest.approx(110.0)
        assert diurnal.rate_at(8.0) == pytest.approx(10.0)
        assert diurnal.rate_at(2.0) == pytest.approx(60.0)

    def test_diurnal_thinning_tracks_the_curve(self):
        diurnal = DiurnalArrivals(2, 200, period=4.0)
        times = list(diurnal.times(random.Random(11), 4.0))
        mid = [t for t in times if 1.0 <= t < 3.0]  # around the peak
        edges = [t for t in times if t < 1.0 or t >= 3.0]
        assert len(mid) > 3 * len(edges)

    def test_flash_crowd_spike(self):
        crowd = FlashCrowd(10, 500, spike_at=2.0, spike_duration=0.5)
        assert crowd.rate_at(1.99) == 10
        assert crowd.rate_at(2.0) == 500
        assert crowd.rate_at(2.49) == 500
        assert crowd.rate_at(2.5) == 10
        times = list(crowd.times(random.Random(5), 4.0))
        in_spike = [t for t in times if 2.0 <= t < 2.5]
        # Half a second at 500/s dominates 3.5 s at 10/s.
        assert len(in_spike) > len(times) / 2

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantArrivals(0)
        with pytest.raises(ConfigurationError):
            PoissonArrivals(-1)
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(10, 5, period=1.0)  # peak below trough
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(1, 2, period=0)
        with pytest.raises(ConfigurationError):
            FlashCrowd(10, 5, spike_at=0, spike_duration=1)
        with pytest.raises(ConfigurationError):
            FlashCrowd(10, 50, spike_at=-1, spike_duration=1)


class TestSampling:
    def test_zipf_is_seed_deterministic(self):
        zipf = ZipfKeys(1000)
        a = [zipf.sample(random.Random(9)) for _ in range(1)]
        rng1, rng2 = random.Random(9), random.Random(9)
        seq1 = [zipf.sample(rng1) for _ in range(200)]
        seq2 = [zipf.sample(rng2) for _ in range(200)]
        assert seq1 == seq2
        assert a[0] == seq1[0]

    def test_zipf_head_is_hot(self):
        zipf = ZipfKeys(10_000, alpha=1.1)
        rng = random.Random(17)
        draws = [zipf.sample_index(rng) for _ in range(5000)]
        head = sum(1 for index in draws if index < 10)
        # The top 10 of 10^4 keys absorb a large share under Zipf(1.1).
        assert head > len(draws) * 0.3
        assert max(draws) < 10_000

    def test_zipf_alpha_zero_is_uniform(self):
        zipf = ZipfKeys(100, alpha=0.0)
        rng = random.Random(23)
        draws = [zipf.sample_index(rng) for _ in range(10_000)]
        head = sum(1 for index in draws if index < 10)
        assert 700 < head < 1300  # ~10% ± noise

    def test_zipf_key_format(self):
        zipf = ZipfKeys(50, key_format="device-{:04d}")
        key = zipf.sample(random.Random(1))
        assert key.startswith("device-") and len(key) == len("device-0000")

    def test_pareto_bounds_and_mean(self):
        tail = HeavyTailedServiceTimes(0.001, 1.0, alpha=1.5)
        rng = random.Random(31)
        draws = [tail.sample(rng) for _ in range(20_000)]
        assert all(0.001 <= d <= 1.0 for d in draws)
        empirical = sum(draws) / len(draws)
        assert empirical == pytest.approx(tail.mean(), rel=0.25)

    def test_pareto_is_heavy_tailed(self):
        tail = HeavyTailedServiceTimes(0.001, 1.0, alpha=1.1)
        rng = random.Random(37)
        draws = sorted(tail.sample(rng) for _ in range(5000))
        p50 = draws[len(draws) // 2]
        p999 = draws[int(len(draws) * 0.999)]
        assert p999 > 50 * p50

    def test_service_mix_draws_from_both_components(self):
        fast = HeavyTailedServiceTimes(0.001, 0.01)
        slow = HeavyTailedServiceTimes(0.1, 1.0)
        mix = ServiceTimeMix([(0.9, fast), (0.1, slow)])
        rng = random.Random(41)
        draws = [mix.sample(rng) for _ in range(2000)]
        slow_draws = sum(1 for d in draws if d >= 0.1)
        assert 100 < slow_draws < 320  # ~10%

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfKeys(0)
        with pytest.raises(ConfigurationError):
            ZipfKeys(10, alpha=-1)
        with pytest.raises(ConfigurationError):
            HeavyTailedServiceTimes(0.1, 0.1)
        with pytest.raises(ConfigurationError):
            ServiceTimeMix([])
        with pytest.raises(ConfigurationError):
            ServiceTimeMix([(0, HeavyTailedServiceTimes(0.1, 1.0))])


def _fleet_scenario(devices=400, **kwargs):
    from repro.load import SensorFleetLoadScenario

    return SensorFleetLoadScenario(devices=devices, **kwargs)


def _fleet_classes(devices=400, rate=40.0):
    return [
        TrafficClass(
            name="devices",
            arrivals=PoissonArrivals(rate),
            keys=ZipfKeys(devices, key_format="device-{:06d}"),
        )
    ]


class TestGeneratorDeterminism:
    def test_schedule_and_keys_reproduce_without_running(self):
        scenario = _fleet_scenario()
        cls = _fleet_classes()[0]
        gen_a = LoadGenerator(scenario, [cls], duration=2.0, seed=5)
        gen_b = LoadGenerator(_fleet_scenario(), [cls], duration=2.0, seed=5)
        assert gen_a.schedule(cls) == gen_b.schedule(cls)
        assert gen_a.key_sequence(cls, 50) == gen_b.key_sequence(cls, 50)

    def test_streams_are_independent_per_class(self):
        scenario = _fleet_scenario()
        solo = TrafficClass(name="a", arrivals=PoissonArrivals(30),
                            keys=ZipfKeys(100))
        other = TrafficClass(name="b", arrivals=PoissonArrivals(30),
                             keys=ZipfKeys(100))
        alone = LoadGenerator(scenario, [solo], duration=1.0, seed=3)
        paired = LoadGenerator(scenario, [solo, other], duration=1.0, seed=3)
        # Adding class "b" must not perturb "a"'s draws.
        assert alone.schedule(solo) == paired.schedule(solo)
        assert alone.key_sequence(solo, 20) == paired.key_sequence(solo, 20)
        # And the two classes draw distinct streams.
        assert paired.schedule(solo) != paired.schedule(other)

    def test_same_seed_same_fingerprint_and_latencies(self):
        runs = []
        for _ in range(2):
            scenario = _fleet_scenario()
            result = LoadGenerator(
                scenario, _fleet_classes(), duration=1.5, seed=11
            ).run()
            runs.append(result)
        assert runs[0].fingerprint() == runs[1].fingerprint()
        assert runs[0].latencies() == runs[1].latencies()
        assert runs[0].outcome_counts() == runs[1].outcome_counts()

    def test_different_seed_different_fingerprint(self):
        results = [
            LoadGenerator(
                _fleet_scenario(), _fleet_classes(), duration=1.5, seed=seed
            ).run()
            for seed in (1, 2)
        ]
        assert results[0].fingerprint() != results[1].fingerprint()

    def test_realtime_backend_reproduces_the_sim_schedule(self):
        """Same seed, same offered load, wall-clock backend."""
        from repro.realtime import RealtimeEnvironment

        sim = LoadGenerator(
            _fleet_scenario(), _fleet_classes(rate=30.0),
            duration=1.0, seed=19,
        ).run()
        env = RealtimeEnvironment(factor=0.02)
        try:
            scenario = _fleet_scenario(env=env)
            real = LoadGenerator(
                scenario, _fleet_classes(rate=30.0), duration=1.0, seed=19,
            ).run()
        finally:
            env.close()
        assert real.fingerprint() == sim.fingerprint()
        assert real.outcome_counts().get("ok") == sim.outcome_counts().get("ok")

    def test_generator_validation(self):
        scenario = _fleet_scenario()
        cls = _fleet_classes()[0]
        with pytest.raises(ConfigurationError):
            LoadGenerator(scenario, [cls], duration=0)
        with pytest.raises(ConfigurationError):
            LoadGenerator(scenario, [], duration=1.0)
        with pytest.raises(ConfigurationError):
            LoadGenerator(scenario, [cls, cls], duration=1.0)


class TestScenarioSmokes:
    """Every adapter drives end to end and judges its SLOs."""

    def _run(self, scenario, classes, duration=1.0, seed=2):
        result = LoadGenerator(scenario, classes, duration, seed=seed).run()
        report = evaluate(
            scenario.slos(), scenario.registry,
            scenario=scenario.name, env=scenario.env,
        )
        return result, report

    def test_retail_nominal_load_meets_slos(self):
        from repro.load import RetailLoadScenario

        scenario = RetailLoadScenario()
        classes = [TrafficClass(name="shoppers",
                                arrivals=ConstantArrivals(4),
                                keys=ZipfKeys(64))]
        result, report = self._run(scenario, classes)
        assert result.outcome_counts() == {"ok": 4}
        assert report.met, report.describe()
        # Completed orders carry causal trace ids for exemplar linkage.
        assert all(t for t in result.classes["shoppers"].trace_ids)

    def test_smarthome_nominal_load_meets_slos(self):
        from repro.load import SmartHomeLoadScenario

        scenario = SmartHomeLoadScenario()
        classes = [TrafficClass(name="sensors",
                                arrivals=ConstantArrivals(8),
                                keys=ZipfKeys(16, key_format="motion-{:02d}"))]
        result, report = self._run(scenario, classes)
        assert result.outcome_counts() == {"ok": 8}
        assert report.met, report.describe()

    def test_socialnetwork_smoke(self):
        """The RPC baseline rides the same harness (ISSUE satellite)."""
        from repro.load import SocialNetworkLoadScenario

        scenario = SocialNetworkLoadScenario()
        classes = [TrafficClass(name="posters",
                                arrivals=ConstantArrivals(5))]
        result, report = self._run(scenario, classes)
        assert result.outcome_counts() == {"ok": 5}
        assert report.met, report.describe()
        # No data plane: latency lands in a standalone registry, no traces.
        assert all(t is None for t in result.classes["posters"].trace_ids)
        assert scenario.registry is not scenario.env

    def test_sensorfleet_freshness_has_data(self):
        scenario = _fleet_scenario()
        result, report = self._run(scenario, _fleet_classes(rate=25.0))
        assert result.offered() > 0
        assert report.met, report.describe()
        freshness = [r for r in report.results if r.kind == "freshness"]
        assert freshness and not freshness[0].no_data
        # The Sync pipeline delivered renamed records downstream.
        assert scenario.app.analytics_seen

    def test_sensorfleet_flash_crowd_sheds_visibly(self):
        from repro.flow import FlowConfig

        scenario = _fleet_scenario(flow=FlowConfig(
            admission_rate=40, admission_burst=10, admission_queue_high=4,
        ))
        classes = [TrafficClass(
            name="devices",
            arrivals=FlashCrowd(20, 300, spike_at=0.5, spike_duration=0.5),
            keys=ZipfKeys(400, key_format="device-{:06d}"),
            principal="device-fleet",
        )]
        result, report = self._run(scenario, classes, duration=1.5)
        counts = result.outcome_counts()
        assert counts.get("rejected", 0) > 0
        assert counts.get("failed", 0) == 0
        availability = [r for r in report.results if r.kind == "availability"]
        assert availability and not availability[0].met
        assert availability[0].exemplars  # borrowed from the latency series
