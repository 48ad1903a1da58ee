"""One evaluation, three writers: the DXG fixpoint written once.

An exchange evaluates its assignments to a fixpoint over the one map it
gathered (``DXGExecutor._fixpoint``, pure: a worklist in field order),
then writes what moved: one create or patch per target through the
handles, one transaction for them all, or ``ctx.create``/``ctx.patch``
inside the pushed-down UDF.  Checked here against the loop the three
replaced -- evaluate a step, write it, fold the reply in, pass again
until a pass writes nothing -- kept in this file as the reference.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dxg import DXGExecutor, parse_dxg
from repro.core.dxg.executor import ExchangeStats, ExecutorOptions
from repro.errors import DXGError, NotFoundError
from repro.exchange import ObjectDE
from repro.simnet import Environment, FixedLatency, Network
from repro.store import ApiServer, MemKV, MemKVClient
from repro.util.safeexpr import SafeExpression
from tests.test_cast_news import build
from tests.test_property_dxg_bound_scope import reference_step
from tests.test_store_request_path import _Counting

ALIASES = ("A", "B", "C")
FIELDS = tuple(f"f{i}" for i in range(5))


def schema(alias):
    return "\n".join(
        [f"schema: Prop/v1/{alias}/Obj", "v: number"]
        + [f"{name}: number # +kr: external" for name in FIELDS]) + "\n"


@st.composite
def cases(draw):
    """An acyclic DXG over three stores -- field ``f<i>`` reads only
    ``v`` and the fields before it, from any alias, its own included
    -- and the objects the owners hold before the exchange (missing, or
    an input ``v`` with stale derived fields)."""
    body = {}
    defined = []
    for name in FIELDS[:draw(st.integers(1, len(FIELDS)))]:
        sources = [f"{alias}.v" for alias in ALIASES] + defined
        expr = "{} {} {}".format(
            draw(st.sampled_from(sources)), draw(st.sampled_from("+-*")),
            draw(st.integers(0, 3)))
        if draw(st.booleans()):
            expr += f" + {draw(st.sampled_from(sources))}"
        target = draw(st.sampled_from(ALIASES))
        body.setdefault(target, {})[name] = expr
        defined.append(f"{target}.{name}")
    lines = ["Input:"] + [
        f"  {alias}: Prop/v1/{alias}/store-{alias.lower()}"
        for alias in ALIASES] + ["DXG:"]
    for target, fields in body.items():
        lines.append(f"  {target}:")
        lines += [f"    {name}: {expr}" for name, expr in fields.items()]
    ints = st.integers(-4, 4)
    objects = {alias: draw(st.none() | st.fixed_dictionaries(
        {"v": ints}, optional={name: ints for name in FIELDS}))
        for alias in ALIASES}
    return "\n".join(lines) + "\n", objects


def world(spec, objects, options=None):
    """A MemKV exchange holding ``objects`` under cid ``k``, and an
    executor over it (MemKV: the push-down writer needs the UDFs)."""
    env = Environment()
    net = Network(env, default_latency=FixedLatency(0.001))
    backend = MemKV(env, net, watch_overhead=0.0)
    de = ObjectDE(env, backend)
    for alias in ALIASES:
        store = f"store-{alias.lower()}"
        de.host_store(store, schema(alias), owner="owner")
        de.grant("cast", store, role="integrator")
        if objects[alias] is not None:
            backend.op_create(key=f"{store}/k", data=dict(objects[alias]))
    executor = DXGExecutor(env, parse_dxg(spec), handles={
        alias: de.handle(f"store-{alias.lower()}", principal="cast")
        for alias in ALIASES}, options=options)
    return env, backend, executor


def final(env, executor):
    out = {}
    for alias, handle in executor.handles.items():
        try:
            out[alias] = dict(env.run(until=handle.get("k"))["data"])
        except NotFoundError:
            out[alias] = None
    return out


def reference_exchange(executor, cid):
    """The loop the fixpoint replaced: each step's changes written as it
    is evaluated and the reply folded into the map, pass after pass."""
    stats = ExchangeStats()
    objects = yield from executor._gather(cid, stats)
    for _pass in range(executor.options.max_passes):
        stats.passes += 1
        wrote = False
        for step in executor.plan.steps:
            current = objects.get(step.target)
            values, _skipped = reference_step(executor, step, objects, cid)
            changed = executor._changed_fields(current or {}, values)
            if not changed or (current is None and not step.creatable):
                continue
            handle = executor.handles[step.alias]
            key = executor.object_key(step.kind, cid)
            write = handle.create if current is None else handle.patch
            view = yield write(key, executor._nested(changed))
            objects[step.target] = view["data"]
            stats.writes += 1
            wrote = True
        if not wrote:
            return stats
    raise DXGError("no fixpoint")


def run_remote(spec, objects, options):
    env, _backend, executor = world(spec, objects, options)
    stats = env.run(until=executor.exchange("k"))
    return final(env, executor), stats.writes


def run_pushdown(spec, objects):
    env, backend, executor = world(spec, objects)
    backend.functions.register("dxg", executor.as_udf({
        alias: f"store-{alias.lower()}/" for alias in ALIASES}))
    result = env.run(until=MemKVClient(backend, "cast").fcall("dxg", "k"))
    return final(env, executor), result["writes"]


class TestThreeWritersOneFixpoint:
    @settings(max_examples=60, deadline=None)
    @given(case=cases(), consolidate=st.booleans())
    def test_every_writer_reaches_the_reference_state(self, case,
                                                      consolidate):
        spec, objects = case
        env, _backend, executor = world(spec, objects)
        env.run(until=env.process(reference_exchange(executor, "k")))
        want = final(env, executor)

        remote, remote_writes = run_remote(spec, objects, ExecutorOptions())
        unconsolidated, _ = run_remote(
            spec, objects, ExecutorOptions(consolidate=consolidate))
        committed, _ = run_remote(
            spec, objects, ExecutorOptions(transactional=True))
        pushed, pushed_writes = run_pushdown(spec, objects)
        assert remote == unconsolidated == committed == pushed == want
        assert remote_writes == pushed_writes

    def test_the_evaluation_is_written_once(self):
        """``_fixpoint``'s worklist is the one place that evaluates."""
        import inspect

        source = inspect.getsource(DXGExecutor)
        assert source.count(".evaluate(") == 1
        assert source.count("self._fixpoint(") == 2  # remote and push-down
        assert not hasattr(DXGExecutor, "_run_steps_txn")


WRITERS = ["remote", "transactional", "push-down"]

#: A cycle Cast's analysis would refuse, given to a bare executor: each
#: evaluation of one field moves the other, so it never quiesces.
CYCLIC = """\
Input:
  A: Prop/v1/A/store-a
  B: Prop/v1/B/store-b
  C: Prop/v1/C/store-c
DXG:
  A:
    f0: B.f0 + 1
  B:
    f0: A.f0 + 1
"""


@pytest.mark.parametrize("writer", WRITERS)
def test_a_fixpoint_past_max_passes_is_a_dxg_error(writer, monkeypatch):
    """A DXG still changing after ``max_passes`` x (its assignments)
    evaluations raises the one ``DXGError`` from every writer, which
    writes nothing."""
    evaluations = []
    evaluate = SafeExpression.evaluate

    def counting(self, scope):
        evaluations.append(self.source)
        return evaluate(self, scope)

    monkeypatch.setattr(SafeExpression, "evaluate", counting)
    objects = {"A": {"v": 0, "f0": 0}, "B": {"v": 0, "f0": 0}, "C": None}
    for max_passes in (1, 3):
        env, backend, executor = world(CYCLIC, objects, ExecutorOptions(
            max_passes=max_passes, transactional=writer == "transactional"))
        evaluations.clear()
        with pytest.raises(DXGError, match="did not quiesce"):
            if writer == "push-down":
                backend.functions.register("dxg", executor.as_udf({
                    alias: f"store-{alias.lower()}/" for alias in ALIASES}))
                env.run(until=MemKVClient(backend, "cast").fcall("dxg", "k"))
            else:
                env.run(until=executor.exchange("k"))
        assert len(evaluations) == max_passes * 2
        assert final(env, executor) == objects


def owner_writes_after_the_gather(executor, dst, patch):
    """Make the next gather send ``patch`` as the target's owner, in
    flight beside the write the exchange then makes."""
    gather = executor._gather

    def gather_then_owner_write(cid, stats):
        objects = yield from gather(cid, stats)
        executor._gather = gather
        dst.patch("k", patch)
        return objects

    executor._gather = gather_then_owner_write


class TestAnOwnerWriteAfterTheGather:
    """The owner writes the target after Cast gathered it and before
    Cast's write lands.  The fixpoint never saw that write; the reply
    that carries it is not the object the fixpoint computed, so its slot
    is emptied rather than taken as covered, and the next event for the
    target is news."""

    def test_a_field_cast_does_not_write_converges_through_its_event(
            self, env, net, call):
        runtime, _de, cast = build(env, net)
        src, dst = runtime.handle_of("src"), runtime.handle_of("dst")
        call(src.create("k", {"x": 1}))
        env.run()
        owner_writes_after_the_gather(cast.executor, dst, {"owner": "dst"})
        call(src.patch("k", {"x": 4}))
        env.run()
        assert dict(call(dst.get("k"))["data"]) == {"y": 8, "owner": "dst"}
        # The create, the patch, the owner's event (it lacks y=8), and
        # Cast's echo: the reply carried the owner's write, so the slot
        # was emptied and the echo is news too.
        assert cast.exchanges_run == 4
        assert cast.stats()["queue_depth"] == 0

    def test_a_write_whose_event_equals_the_reply_is_still_news(
            self, env, net, call):
        """The owner also writes Cast's field, at Cast's value: its event
        is then the very object of Cast's reply.  Folded in, the reply
        would make that event an echo, and the field the DXG reads from
        the owner's write would never be exchanged.  The server holds
        events for a batch window, so the reply lands first."""
        runtime, _de, cast = build(env, net, backend_cls=partial(
            ApiServer, watch_batch_window=0.05))
        cast.reconfigure(spec=DXG_READING_THE_TARGET)
        src, dst = runtime.handle_of("src"), runtime.handle_of("dst")
        call(src.create("k", {"x": 1}))
        env.run()
        owner_writes_after_the_gather(
            cast.executor, dst, {"y": 8, "owner": "abc"})
        call(src.patch("k", {"x": 4}))
        env.run()
        assert dict(call(dst.get("k"))["data"]) == {
            "y": 8, "owner": "abc", "pinLen": 3}


DXG_READING_THE_TARGET = """\
Input:
  A: News/v1/Src/knactor-src
  B: News/v1/Dst/knactor-dst
DXG:
  B:
    y: A.x * 2
    pinLen: len(B.owner)
"""


class TestOneExchangeIsOnePass:
    def test_the_exchange_runs_in_the_pass_process(self):
        """One Cast pass that reads both objects and creates the target:
        the pass's own process plus one per store request (three), and
        its events: the pass's start and finish, the compute timer, and
        5 per request (start, hop there, latency charge, hop back,
        finish).  The exchange, its gather and each fixpoint pass were
        a process of their own inside the pass: 4 more spawns and 8
        more events."""
        env = _Counting()
        net = Network(env, default_latency=FixedLatency(1e-3))
        runtime, _de, cast = build(env, net)
        cast.stop()
        env.run(until=runtime.handle_of("src").create("k", {"x": 1}))
        env.run()
        env.spawns = env.events = 0
        done = env.process(cast._pass("k", None))
        env.run(until=done)
        assert cast.executor.totals.writes == 1
        assert (env.spawns, env.events) == (1 + 3, 3 + 3 * 5)
