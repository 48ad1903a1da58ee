"""Unit tests for network links and latency models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.simnet import (
    Environment,
    ExponentialLatency,
    FixedLatency,
    Link,
    LogNormalLatency,
    Network,
    UniformLatency,
)


@pytest.fixture
def env():
    return Environment()


class TestLatencyModels:
    def test_fixed(self):
        model = FixedLatency(0.01)
        assert model.sample() == 0.01
        assert model.mean() == 0.01

    def test_fixed_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedLatency(-1)

    def test_uniform_within_bounds(self):
        model = UniformLatency(0.001, 0.002, seed=7)
        samples = [model.sample() for _ in range(200)]
        assert all(0.001 <= s <= 0.002 for s in samples)
        assert model.mean() == pytest.approx(0.0015)

    def test_uniform_invalid_range(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(0.5, 0.1)

    def test_exponential_floor_respected(self):
        model = ExponentialLatency(mean=0.01, floor=0.005, seed=3)
        assert all(model.sample() >= 0.005 for _ in range(200))
        assert model.mean() == pytest.approx(0.015)

    def test_lognormal_median_roughly_centred(self):
        model = LogNormalLatency(median=0.446, sigma=0.05, seed=11)
        samples = sorted(model.sample() for _ in range(999))
        assert samples[499] == pytest.approx(0.446, rel=0.05)

    def test_lognormal_zero_sigma_is_deterministic(self):
        model = LogNormalLatency(median=0.1, sigma=0.0)
        assert model.sample() == 0.1

    def test_seeded_models_are_reproducible(self):
        a = UniformLatency(0, 1, seed=42)
        b = UniformLatency(0, 1, seed=42)
        assert [a.sample() for _ in range(10)] == [b.sample() for _ in range(10)]


class TestLink:
    def test_send_delivers_after_latency(self, env):
        link = Link(env, FixedLatency(0.25))
        received = []
        link.send(lambda m: received.append((env.now, m)), "hello")
        env.run()
        assert received == [(0.25, "hello")]

    def test_fifo_link_never_reorders(self, env):
        # High-variance latency would reorder without the FIFO guarantee.
        link = Link(env, UniformLatency(0.0, 1.0, seed=5), fifo=True)
        received = []
        for i in range(50):
            link.send(received.append, i)
        env.run()
        assert received == list(range(50))

    def test_transfer_event_carries_value(self, env):
        link = Link(env, FixedLatency(0.1))

        def proc(env):
            value = yield link.transfer("payload")
            return (env.now, value)

        p = env.process(proc(env))
        assert env.run(until=p) == (0.1, "payload")

    def test_delivered_counter(self, env):
        link = Link(env, FixedLatency(0.0))
        link.send(lambda m: None, 1)
        link.send(lambda m: None, 2)
        env.run()
        assert link.delivered == 2


class TestNetwork:
    def test_default_latency_used(self, env):
        net = Network(env, default_latency=FixedLatency(0.01))
        times = []

        def proc(env):
            yield net.transfer("a", "b")
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [0.01]

    def test_override_applies_symmetrically(self, env):
        net = Network(env, default_latency=FixedLatency(0.01))
        net.set_latency("a", "b", FixedLatency(0.5))
        assert net.link("a", "b").latency.mean() == 0.5
        assert net.link("b", "a").latency.mean() == 0.5
        assert net.link("a", "c").latency.mean() == 0.01

    def test_override_after_link_creation_takes_effect(self, env):
        net = Network(env, default_latency=FixedLatency(0.01))
        net.link("a", "b")  # create with default
        net.set_latency("a", "b", FixedLatency(0.9))
        assert net.link("a", "b").latency.mean() == 0.9

    def test_links_are_cached_per_pair(self, env):
        net = Network(env)
        assert net.link("x", "y") is net.link("x", "y")
        assert net.link("x", "y") is not net.link("y", "x")


def _reference_verdict(net, src, dst):
    """The matcher as it stood before rule-free networks skipped it: the
    four-step wildcard walk over each rule table, every time."""

    def matching(rules):
        for key in ((src, dst), (src, "*"), ("*", dst), ("*", "*")):
            if key in rules:
                return key
        return None

    if matching(net._partitions) is not None:
        net.messages_lost += 1
        return True, 0.0
    rule_key = matching(net._drop_rules)
    if rule_key is not None:
        rate, rng = net._drop_rules[rule_key]
        if rng.random() < rate:
            net.messages_lost += 1
            return True, 0.0
    spike_key = matching(net._latency_spikes)
    extra = net._latency_spikes[spike_key] if spike_key is not None else 0.0
    return False, extra


_endpoints = st.sampled_from(["a", "b", "c", "*"])
_pair = st.tuples(_endpoints, _endpoints, st.booleans())  # src, dst, symmetric
_fault_ops = st.one_of(
    st.tuples(st.just("partition"), _pair),
    st.tuples(st.just("heal"), _pair),
    st.tuples(st.just("set_drop_rate"), _pair,
              st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.integers(0, 5)),
    st.tuples(st.just("clear_drop_rate"), _pair),
    st.tuples(st.just("set_extra_latency"), _pair,
              st.sampled_from([0.0, 0.25, 2.0])),
    st.tuples(st.just("clear_extra_latency"), _pair),
    st.tuples(st.just("heal_all")),
    # Verdicts are most of any real schedule; weight them up.
    st.tuples(st.just("verdict"), _endpoints, _endpoints),
    st.tuples(st.just("verdict"), _endpoints, _endpoints),
    st.tuples(st.just("verdict"), _endpoints, _endpoints),
)


class TestFaultVerdictAgainstTheMatcher:
    """``fault_verdict`` answers rule-free networks without walking the
    matcher; with or without rules it must agree with the full walk."""

    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(_fault_ops, max_size=60))
    def test_same_verdicts_losses_and_rng_draws(self, ops):
        actual = Network(Environment())
        shadow = Network(Environment())  # same rules, judged by the reference
        for op, *args in ops:
            if op == "verdict":
                src, dst = args
                assert actual.fault_verdict(src, dst) == _reference_verdict(
                    shadow, src, dst)
            elif op == "heal_all":
                actual.heal_all()
                shadow.heal_all()
            else:
                (src, dst, symmetric), *rest = args
                for net in (actual, shadow):
                    getattr(net, op)(src, dst, *rest, symmetric=symmetric)
            assert actual.messages_lost == shadow.messages_lost
            assert actual._partitions == shadow._partitions
            assert actual._latency_spikes == shadow._latency_spikes
            assert actual._drop_rules.keys() == shadow._drop_rules.keys()
            for key, (rate, rng) in actual._drop_rules.items():
                shadow_rate, shadow_rng = shadow._drop_rules[key]
                assert rate == shadow_rate
                assert rng.getstate() == shadow_rng.getstate()

    def test_first_rule_installed_is_seen_by_the_next_delivery(self, env):
        net = Network(env, default_latency=FixedLatency(0.01))
        link = net.link("a", "b")
        seen = []
        assert link.send(seen.append, "before") == 0.01
        net.partition("a", "*")
        assert link.send(seen.append, "lost") is None
        net.heal("a", "*")
        net.set_extra_latency("*", "b", 0.5)
        assert link.send(seen.append, "slow") == 0.51
        env.run()
        assert seen == ["before", "slow"]
        assert (link.delivered, link.dropped, net.messages_lost) == (2, 1, 1)
