"""``kernel_pingpong``: the sim kernel with every other layer idle."""

from repro.simnet import FixedLatency, Network, Store

from benchmarks.perf.measure import digest
from benchmarks.perf.workloads.base import (
    CountingEnvironment,
    Outcome,
    Violations,
    Workload,
)

HOP = 0.001
THINK = 0.0005
PAYLOAD_BYTES = 16


def _ping(env, network, pair, to_pong, to_ping, stagger, tokens, echoes):
    src, dst = f"ping-{pair}", f"pong-{pair}"
    yield env.timeout(stagger)
    for token in tokens:
        yield network.transfer(src, dst, size=PAYLOAD_BYTES)
        yield to_pong.put(token)
        echoes.append((yield to_ping.get()))
        yield env.timeout(THINK)


def _pong(env, network, pair, to_pong, to_ping, rounds):
    src, dst = f"pong-{pair}", f"ping-{pair}"
    for _ in range(rounds):
        token = yield to_pong.get()
        yield network.transfer(src, dst, size=PAYLOAD_BYTES)
        yield to_ping.put(token)


class KernelPingPong(Workload):
    name = "kernel_pingpong"
    op_unit = "one ping/pong round trip"
    loop = "closed"

    PAIRS = 64
    ROUND_TRIPS = 80_000

    def size(self):
        return {"pairs": self.PAIRS,
                "round_trips": self.scaled(self.ROUND_TRIPS, self.PAIRS)}

    def generate(self):
        """Per pair: a start stagger and the token sequence to echo."""
        rounds = self.scaled(self.ROUND_TRIPS, self.PAIRS) // self.PAIRS
        rng = self.rng("tokens")
        return [
            (rng.random() * HOP, [rng.getrandbits(32) for _ in range(rounds)])
            for _ in range(self.PAIRS)
        ]

    def build(self, inputs):
        env = CountingEnvironment()
        network = Network(env, default_latency=FixedLatency(HOP))
        pairs = []
        for pair, (stagger, tokens) in enumerate(inputs):
            to_pong, to_ping, echoes = Store(env), Store(env), []
            env.process(_ping(env, network, pair, to_pong, to_ping, stagger,
                              tokens, echoes))
            env.process(_pong(env, network, pair, to_pong, to_ping,
                              len(tokens)))
            pairs.append(echoes)
        return {"env": env, "network": network, "inputs": inputs,
                "echoes": pairs}

    def counters(self, ctx):
        return {"network_bytes": ctx["network"].bytes_sent}

    def run(self, ctx):
        ctx["env"].run()

    def finish(self, ctx):
        env = ctx["env"]
        violations = Violations()
        attempted = correct = 0
        ends = []
        for (stagger, tokens), echoes in zip(ctx["inputs"], ctx["echoes"]):
            attempted += len(tokens)
            intact = violations.op(
                echoes == tokens, "a pair's echoed sequence is not intact")
            correct += len(tokens) if intact else sum(
                a == b for a, b in zip(tokens, echoes))
            # Closed form, in the kernel's own float order: each round
            # is hop + hop + think on top of the pair's stagger.
            at = 0.0 + stagger
            for _ in tokens:
                at = ((at + HOP) + HOP) + THINK
            ends.append(at)
        violations.whole(
            env.now == max(ends, default=0.0),
            f"final virtual time {env.now!r} != closed form "
            f"{max(ends, default=0.0)!r}")
        return Outcome(
            attempted=attempted,
            correct=violations.correct(correct),
            digest=digest([env.now, [e[-1:] for e in ctx["echoes"]]]),
            events=env.steps,
            errors=violations.texts,
        )
