"""Shared fixtures for the test suite, and its Hypothesis profiles.

Property draws replay: the default ``tier1`` profile derives every
``@given`` test's draws from the test itself, so a red run is red again
on the next run and a green one is not luck.  ``random`` draws afresh
from the seed given on the command line, at the same ``max_examples``::

    python -m pytest -q --hypothesis-profile=random --hypothesis-seed=N

A failing draw that finds is pinned with ``@example`` on its test.
"""

import pytest
from hypothesis import settings

from repro.simnet import Environment, FixedLatency, Network

settings.register_profile("tier1", derandomize=True)
settings.register_profile("random", database=None)
settings.load_profile("tier1")


@pytest.fixture
def env():
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def net(env):
    """A network with a tiny fixed default latency (0.25 ms per hop)."""
    return Network(env, default_latency=FixedLatency(0.00025))


@pytest.fixture
def zero_net(env):
    """A network with zero latency (pure-functional store tests)."""
    return Network(env, default_latency=FixedLatency(0.0))


@pytest.fixture
def call(env):
    """Drive a client-op process (or generator) to completion, return value.

    Usage::

        result = call(client.get("key"))
        result = call(my_generator(env))
    """

    def runner(target):
        if hasattr(target, "send"):
            target = env.process(target)
        return env.run(until=target)

    return runner
