import gc
import hashlib
import json
import random
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbext import wire
from bbext.accumulator import HASH_TREE, acc_gen
from bbext.adversary import (
    AdversaryScript,
    Equivocator,
    JunkInjector,
    ScheduledHonest,
    Silent,
    StarvingScheduler,
    adversary_battery,
    hooked,
)
from bbext.checks import battery_configs, build_inputs
from bbext.multisig import MultiSig
from bbext.protocols import PROTOCOLS, SessionParams
from bbext.protocols.base import ProtocolSpec
from bbext.runner import run
from bbext.simnet import (
    BOT,
    NEXT_ROUND,
    ORACLE_KINDS,
    Bot,
    Ctx,
    Engine,
    InvariantViolation,
    LifoPolicy,
    OracleInstance,
    RandomPolicy,
    Reader,
    RunMetrics,
    SchedulerPolicy,
    oracle_model_cost,
)


def _params(n=4, t=1, l=96, k=128, regime="half", eps=None):
    return SessionParams(n=n, t=t, l=l, k=k, threshold_regime=regime, epsilon=eps)


def test_bot_singleton():
    assert Bot() is BOT
    assert repr(BOT) == "BOT"


def test_metrics_accounting_identity():
    # an engine tallies honest bits once, by step: a plain send to the
    # sender's step, a send naming an instance and that instance's ideal
    # firing to oracle:<instance>; the total and the bits by oracle kind
    # are read-only views of that tally
    n = 5
    engine = _engine(n, oracles={"x": OracleInstance("sync_bb", 3, 7)})
    ctx = engine.parties[3].ctx
    ctx.set_step("a")
    ctx.broadcast("v_vec", 9)
    ctx.broadcast("ds", ((3, b"v", MultiSig(frozenset({3}), b"")),), instance="x")
    engine._fire_oracle(engine.oracles["x"])
    relay = 7 + 128 + n
    fired = oracle_model_cost("sync_bb", 7, n, 128) * 4 // n  # four honest parties of five
    m = engine.metrics
    assert m.bits_by_step == {"a": n * (n - 1), "oracle:x": relay * (n - 1) + fired}
    assert m.honest_bits_total == sum(m.bits_by_step.values())
    assert m.bits_by_oracle == {"direct": n * (n - 1), "sync_bb": relay * (n - 1) + fired}
    assert m.oracle_bits() == relay * (n - 1) + fired
    for view in ("honest_bits_total", "bits_by_oracle"):
        with pytest.raises(AttributeError):
            setattr(m, view, 0)
    assert RunMetrics().honest_bits_total == 0 and RunMetrics().bits_by_oracle == {}


def test_same_seed_bitwise_identical_runs():
    params = _params()
    inputs = build_inputs("ba", params, 3, "none")
    a = run("sync-ba-half", params, inputs, adversary=Silent(), seed=3)
    b = run("sync-ba-half", params, inputs, adversary=Silent(), seed=3)
    assert a.metrics.to_json() == b.metrics.to_json()
    assert a.metrics.outputs_digest == b.metrics.outputs_digest
    assert a.outputs == b.outputs


def test_accounting_sums_match_on_real_run():
    params = _params()
    inputs = build_inputs("ba", params, 0, "all")
    res = run("sync-ba-half", params, inputs, seed=0)
    m = res.metrics
    assert m.honest_bits_total == sum(m.bits_by_step.values())
    assert m.honest_bits_total == sum(m.bits_by_oracle.values())
    parsed = json.loads(m.to_json())
    assert set(parsed) == {"honest_bits_total", "bits_by_step", "bits_by_oracle",
                           "rounds_or_events_elapsed", "outputs_digest", "extra"}


def test_silent_corrupt_run_is_honest_run_minus_corrupt_share():
    # with one silent corrupt party out of four, every remaining flow keeps
    # its honest behavior, so each step carries exactly 3/4 of the bits
    params = _params()
    inputs = build_inputs("ba", params, 0, "all")
    full = run("sync-ba-half", params, inputs, seed=0)
    part = run("sync-ba-half", params, inputs, adversary=Silent(), seed=0)
    assert len(part.corrupt) == 1
    for step, bits in full.metrics.bits_by_step.items():
        assert part.metrics.bits_by_step[step] == bits * 3 // 4, step
    assert part.metrics.honest_bits_total == sum(
        bits * 3 // 4 for bits in full.metrics.bits_by_step.values()
    )


def test_oracle_model_costs():
    assert oracle_model_cost("sync_bb", 256, 10, 256) == (256 + 256) * 100 + 1000
    assert oracle_model_cost("sync_ba", 1, 4, 128) == (1 + 128) * 16 + 64
    assert oracle_model_cost("async_rb", 1, 7, 256) == 49
    assert oracle_model_cost("async_ba_kbit", 256, 7, 256) == (256 + 256) * 49
    with pytest.raises(ValueError):
        oracle_model_cost("carrier_pigeon", 1, 4, 128)


def test_trace_record_fields():
    params = _params()
    inputs = build_inputs("ba", params, 0, "all")
    res = run("sync-ba-half", params, inputs, seed=0, trace=True)
    assert res.trace, "trace requested but empty"
    for rec in res.trace:
        assert set(rec) == {"tick", "from", "to", "msg_kind", "bits"}
    kinds = {rec["msg_kind"] for rec in res.trace}
    assert {"share_pkg", "share_fwd", "oracle_out"} <= kinds


def test_adversary_exceeding_t_rejected():
    class Greedy(AdversaryScript):
        name = "greedy"

        def corrupt_set(self, n, t, sender):
            return frozenset(range(1, t + 2))

    params = _params()
    with pytest.raises(ValueError, match="corrupts"):
        run("sync-ba-half", params, build_inputs("ba", params, 0, "all"),
            adversary=Greedy(), seed=0)


def test_regime_mismatch_rejected():
    params = _params(regime="third_async")
    with pytest.raises(ValueError, match="regime"):
        run("sync-ba-half", params, build_inputs("ba", params, 0, "all"), seed=0)


def test_sync_oracle_on_event_scheduler_rejected():
    def party(ctx, my_input, sender):
        out = yield from ctx.ideal_oracle("ba", my_input)
        return out

    spec = ProtocolSpec(name="bad-harness", mode="events", kind="ba",
                        regime="third_async", party=party,
                        oracles=lambda params, sender: {"ba": OracleInstance("sync_ba", None, 8)})
    params = _params(regime="third_async")
    with pytest.raises(ValueError, match="scheduler"):
        run(spec, params, {i: b"x" for i in range(1, 5)}, seed=0)


_MISDECLARED = {
    "wrong-mode": OracleInstance("async_rb", 1, 8),
    "unknown-kind": OracleInstance("sync_xx", None, 1),
    "no-sender": OracleInstance("sync_bb", None, 1),
    "absent-sender": OracleInstance("sync_bb", 9, 1),
    "agreement-sender": OracleInstance("sync_ba", 1, 1),
    "negative-width": OracleInstance("sync_bb", 1, -1000),
    "str-width": OracleInstance("sync_bb", 1, "x"),
}


@pytest.mark.parametrize("what", sorted(_MISDECLARED))
def test_malformed_oracle_declarations_are_refused(what):
    # the session checks each declared instance once, before any party runs
    def party(ctx, my_input, sender):
        return (yield from ctx.ideal_oracle("j", my_input))

    spec = ProtocolSpec(name="misdeclared", mode="rounds", kind="ba", regime="half",
                        party=party, oracles=lambda params, sender: {"j": _MISDECLARED[what]})
    with pytest.raises(ValueError, match="oracle instance 'j'"):
        run(spec, _params(), {i: b"x" for i in range(1, 5)}, seed=0)


def test_concrete_kbit_async_agreement_rejected():
    params = _params(regime="third_async")
    with pytest.raises(ValueError, match="ideal-only"):
        run("async-ba-third", params, build_inputs("ba", params, 0, "all"),
            seed=0, oracle_impl={"async_ba_kbit": "concrete"})


def test_fairness_bound_forces_stale_delivery():
    # parties 1 and 2 ping-pong enough fresh traffic that a LIFO scheduler
    # would starve party 3's initial message without the deferral bound
    rounds = 300

    def party(ctx, my_input, sender):
        if ctx.pid in (1, 2):
            peer = 2 if ctx.pid == 1 else 1
            if ctx.pid == 1:
                ctx.send(peer, "v_vec", 0)
                ctx.send(3, "e_vec", 0)
            pings = ctx.reader("v_vec")
            for _ in range(rounds):
                pings.new()
                yield pings
                ctx.send(peer, "v_vec", 0)
            return b"done"
        yield ctx.reader("e_vec")
        return b"got it"

    spec = ProtocolSpec(name="pingpong", mode="events", kind="ba",
                        regime="third_async", party=party)
    params = _params(regime="third_async")
    res = run(spec, params, {i: b"" for i in range(1, 5)}, seed=0,
              policy=LifoPolicy())
    assert res.outputs.get(3) == b"got it"


class _CountingFifo(SchedulerPolicy):
    """FIFO, as the base policy is, but a pick of its own that logs the
    engine's tick at each call."""

    def __init__(self):
        self.engine = None
        self.asked: list[int] = []

    def pick(self, pending, rng):
        self.asked.append(self.engine.tick)
        return 0


class _InheritingPolicy(SchedulerPolicy):
    """A subclass that keeps the base pick."""


def _flood_spec():
    # every party broadcasts 80 messages at once, so a FIFO queue holds
    # entries older than the 10*n^2 bound; each party answers every 40th
    # message it reads, so later entries queue behind them
    def party(ctx, my_input, sender):
        for i in range(80):
            ctx.broadcast("v_vec", i)
        mail, read = ctx.reader("v_vec"), 0
        while True:
            for _ in mail.new():
                read += 1
                if read % 40 == 0:
                    ctx.broadcast("e_vec", read)
            if read == 80 * (ctx.params.n - 1):
                return b"done"
            yield mail

    return ProtocolSpec(name="flood", mode="events", kind="ba", regime="third_async",
                        party=party)


def test_an_overriding_policy_is_asked_on_every_tick_the_bound_does_not_force(monkeypatch):
    served: list[tuple[int, bool]] = []  # each tick, and whether the bound forced it
    run_events = Engine._run_events

    class Watched(list):
        def pop(self, idx):
            engine = self.engine
            forced = engine.tick - self[0][0].sent_tick >= 10 * engine.params.n ** 2
            served.append((engine.tick, forced))
            return super().pop(idx)

    def spy(engine):
        engine.pending = Watched(engine.pending)
        engine.pending.engine = engine.policy.engine = engine
        run_events(engine)

    monkeypatch.setattr(Engine, "_run_events", spy)
    policy = _CountingFifo()
    params = _params(regime="third_async")
    res = run(_flood_spec(), params, {i: b"" for i in range(1, 5)}, seed=0, policy=policy)
    assert set(res.outputs) == {1, 2, 3, 4}
    assert len(served) == res.metrics.rounds_or_events_elapsed
    assert {forced for _, forced in served} == {True, False}
    assert policy.asked == [tick for tick, forced in served if not forced]


def test_fifo_policies_give_the_base_policys_trace():
    params = _params(regime="third_async")
    views = []
    for policy in (None, SchedulerPolicy(), _InheritingPolicy(), _CountingFifo()):
        if isinstance(policy, _CountingFifo):
            policy.engine = SimpleNamespace(tick=None)
        res = run(_flood_spec(), params, {i: b"" for i in range(1, 5)}, seed=0, policy=policy,
                  trace=True)
        views.append((res.trace, res.metrics.to_json()))
    assert views[1:] == views[:1] * 3


@pytest.mark.parametrize("cut", [1, 3, 50])
def test_the_fifo_cursor_cut_moves_nothing(monkeypatch, cut):
    # the base policy's served entries are cut off pending every _FIFO_CUT
    # ticks; where the cuts fall changes no trace, metric or output, and
    # pending ends empty
    from bbext import simnet

    params = _params(n=7, t=2, regime="third_async")
    inputs = build_inputs("ba", params, 4, "majority")
    ends: list[list] = []
    run_events = Engine._run_events

    def spy(engine):
        run_events(engine)
        ends.append(list(engine.pending))

    monkeypatch.setattr(Engine, "_run_events", spy)

    def views():
        flood = run(_flood_spec(), params, {i: b"" for i in range(1, 8)}, seed=0, trace=True)
        aba = run("async-ba-third", params, inputs, seed=4, oracle_impl=CONCRETE, trace=True)
        return [(res.trace, res.metrics.to_json(), res.outputs) for res in (flood, aba)]

    want = views()
    monkeypatch.setattr(simnet, "_FIFO_CUT", cut)
    assert views() == want
    assert ends == [[]] * 4


def test_happy_flag_is_monotone():
    def party(ctx, my_input, sender):
        ctx.set_happy(True)
        ctx.set_happy(False)
        return b""
        yield  # pragma: no cover

    spec = ProtocolSpec(name="flapper", mode="rounds", kind="ba", regime="half",
                        party=party)
    params = _params()
    with pytest.raises(InvariantViolation, match="monotone"):
        run(spec, params, {i: b"" for i in range(1, 5)}, seed=0)


def test_battery_contents():
    scripts = adversary_battery()
    names = [s.name for s in scripts]
    assert len(names) == len(set(names))
    assert len(scripts) >= 10
    for required in ("silent", "crash_early", "equivocator", "corrupt_share",
                     "forge_witness", "wrong_happy", "withhold_cert",
                     "conflicting_views", "sched_lifo", "sched_starve"):
        assert required in names, required


def test_events_eventual_delivery_with_starvation_policy():
    from bbext.adversary import StarvingScheduler

    params = _params(regime="third_async")
    inputs = build_inputs("rb", params, 2, "all")
    res = run("async-rb-third", params, inputs, adversary=StarvingScheduler(),
              seed=2, trace=True)
    for pid in res.honest:
        assert res.outputs.get(pid) == inputs[1]


def test_paired_schedules_same_outputs_different_event_counts():
    from bbext.adversary import ScheduledHonest

    params = _params(regime="third_async")
    inputs = build_inputs("rb", params, 5, "all")
    fifo = run("ef-async-rb-third", params, inputs, seed=5)
    lifo = run("ef-async-rb-third", params, inputs, adversary=ScheduledHonest("lifo"),
               seed=5)
    assert fifo.outputs == lifo.outputs
    assert (fifo.metrics.rounds_or_events_elapsed
            != lifo.metrics.rounds_or_events_elapsed)


CONCRETE = {"sync_bb": "concrete", "sync_ba": "concrete",
            "async_rb": "concrete", "async_ba_bit": "concrete"}


def _scan(ctx, kind=None, instance=None):
    """What a read of (kind, instance) must return: the whole mailbox for
    no kind, else the mail of exactly that kind and instance (None for a
    kind alone)."""
    return [e for e in ctx.mailbox if kind is None or (e.kind, e.instance) == (kind, instance)]


def _expected_mailboxes(trace, self_filed, refused):
    """Each party's mailbox as the trace and the self-deliveries say it must
    be, as (src, kind, bits) in arrival order. Within a tick, network mail
    comes first: it is delivered before the parties it reaches resume.
    refused lists, per (src, dst), whether ``wire.parse`` refused each of
    src's sends to dst, in send order, which under FIFO delivery is the
    order of their trace records; a refused record is in no mailbox."""
    arrivals: dict[int, list] = {}
    for rec in trace:
        if (rec["from"], rec["to"]) in refused and refused[rec["from"], rec["to"]].pop(0):
            continue
        arrivals.setdefault(rec["to"], []).append(
            ((rec["tick"], 0), (rec["from"], rec["msg_kind"], rec["bits"])))
    for pid, filed in self_filed.items():
        arrivals.setdefault(pid, []).extend(
            ((tick, 1), (pid, kind, 0)) for tick, kind, _, _ in filed)
    return {pid: [mail for _, mail in sorted(got, key=lambda a: a[0])]
            for pid, got in arrivals.items()}


@pytest.mark.parametrize("impl", ["ideal", "concrete"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_indexed_reads_equal_full_mailbox_scans(monkeypatch, protocol, impl):
    """Every inbox read, cursor read and oracle wait of a session under
    junk traffic equals a filtered scan of the reading party's mailbox, and
    every mailbox holds exactly the envelopes filed to it, in order. What
    was filed is read from the delivery trace, the self-deliveries and the
    schema's verdict on each corrupt send, not from the filing code."""
    ctxs: dict[int, Ctx] = {}
    refused: dict[tuple[int, int], list[bool]] = {}
    self_filed: dict[int, list] = {}
    readers: dict[int, tuple] = {}
    seen = {"payload": 0, "new": 0, "oracle": 0, "self": set()}
    orig_init, orig_self, orig_inbox = Ctx.__init__, Ctx.self_deliver, Ctx.inbox
    orig_reader, orig_new, orig_wait = Ctx.reader, Reader.new, Ctx.wait_oracle
    orig_send = Engine.submit_send

    def init(ctx, engine, pid):
        orig_init(ctx, engine, pid)
        ctxs[pid] = ctx

    def submit_send(engine, src, dst, kind, payload, instance):
        if src not in engine.honest:
            width = engine._scale.width.get(instance)
            refused.setdefault((src, dst), []).append(
                wire.parse(kind, payload, width) is wire.REFUSED)
        orig_send(engine, src, dst, kind, payload, instance)

    def self_deliver(ctx, kind, payload, instance=None):
        self_filed.setdefault(ctx.pid, []).append((ctx.engine.tick, kind, payload, instance))
        seen["self"].add(kind)
        orig_self(ctx, kind, payload, instance)

    def inbox(ctx, kind=None, instance=None):
        got = orig_inbox(ctx, kind, instance)
        assert got == _scan(ctx, kind, instance)
        return got

    def reader(ctx, kind=None, instance=None):
        got = orig_reader(ctx, kind, instance)
        # the reader is kept, so its id names it for the whole session
        readers[id(got)] = (got, ctx, kind, instance)
        return got

    def new(rd):
        _, ctx, kind, instance = readers[id(rd)]
        want = _scan(ctx, kind, instance)[rd._pos:]
        got = orig_new(rd)
        assert got == want
        assert rd._pos == len(_scan(ctx, kind, instance))
        seen["new"] += 1
        seen["payload"] += kind == "payload"
        return got

    def wait_oracle(ctx, *instances):
        got = yield from orig_wait(ctx, *instances)
        assert got == [next(e.payload for e in _scan(ctx, "oracle_out", name) if e.src == 0)
                       for name in instances]
        seen["oracle"] += 1
        return got

    monkeypatch.setattr(Ctx, "__init__", init)
    monkeypatch.setattr(Engine, "submit_send", submit_send)
    monkeypatch.setattr(Ctx, "self_deliver", self_deliver)
    monkeypatch.setattr(Ctx, "inbox", inbox)
    monkeypatch.setattr(Ctx, "reader", reader)
    monkeypatch.setattr(Reader, "new", new)
    monkeypatch.setattr(Ctx, "wait_oracle", wait_oracle)
    spec = PROTOCOLS[protocol]
    params = battery_configs(protocol)[0]
    inputs = build_inputs(spec.kind, params, 1, "majority")
    res = run(protocol, params, inputs, adversary=JunkInjector(), seed=1,
              oracle_impl=CONCRETE if impl == "concrete" else {}, trace=True)

    assert any(True in sends for sends in refused.values())
    expected = _expected_mailboxes(res.trace, self_filed, refused)
    assert not any(refused.values())  # every corrupt send has its trace record
    assert ctxs and set(expected) <= set(ctxs)
    for pid, ctx in ctxs.items():
        # no party sends to itself, so only self-delivery files its own mail
        assert [(e.src, e.kind, e.bits) for e in ctx.mailbox] == expected.get(pid, [])
        own = [e for e in ctx.mailbox if e.src == pid]
        filed = self_filed.get(pid, [])
        assert len(own) == len(filed)
        for e, (tick, kind, payload, instance) in zip(own, filed):
            assert (e.sent_tick, e.kind, e.instance) == (tick, kind, instance)
            assert e.payload is payload
    if impl == "concrete" or spec.mode == "events" or protocol == "sync-bb-highthresh":
        assert seen["new"] > 0
    if impl == "ideal" and protocol != "ef-async-rb-third" or protocol == "async-ba-third":
        assert seen["oracle"] > 0
    if protocol in ("sync-bb-half", "async-rb-third"):
        assert seen["payload"] > 0
    if not protocol.startswith("ef-"):
        assert {"share_pkg", "share_fwd"} <= seen["self"]


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_finished_session_frees_its_contexts_without_collection(monkeypatch, protocol):
    # a reference cycle through a party's Ctx, or through the engine and its
    # filing tables, would keep the session's mail alive until the next full
    # collection: every Ctx and the engine must go when run returns
    refs = []
    engines = []
    filed_keys = []
    orig_init, orig_engine_init, orig_run = Ctx.__init__, Engine.__init__, Engine.run

    def init(ctx, engine, pid):
        orig_init(ctx, engine, pid)
        refs.append(weakref.ref(ctx))

    def engine_init(engine, *args, **kwargs):
        orig_engine_init(engine, *args, **kwargs)
        engines.append(weakref.ref(engine))

    def engine_run(engine):
        orig_run(engine)
        filed_keys.append(len(engine._filing))

    monkeypatch.setattr(Ctx, "__init__", init)
    monkeypatch.setattr(Engine, "__init__", engine_init)
    monkeypatch.setattr(Engine, "run", engine_run)
    spec = PROTOCOLS[protocol]
    params = battery_configs(protocol)[0]
    inputs = build_inputs(spec.kind, params, 1, "majority")
    gc.collect()
    gc.disable()
    try:
        run(protocol, params, inputs, adversary=JunkInjector(), seed=1)
        alive = [ref().pid for ref in refs if ref() is not None]
        engine_alive = [ref for ref in engines if ref() is not None]
        cyclic_garbage = gc.collect()
    finally:
        gc.enable()
    assert cyclic_garbage == 0
    assert refs and alive == []
    # the engine held a list per party for every key of wire's rule, and
    # freed them with itself
    assert len(engines) == 1 and engine_alive == []
    assert filed_keys[0] > 0


def _session(n, oracles=None):
    """What an engine built by hand reads of a session: its accumulator key
    and its declared oracle instances, all ideal (none by default)."""
    return SimpleNamespace(ak=acc_gen(HASH_TREE, n, 128), oracles=oracles or {},
                           oracle_impl=dict.fromkeys(ORACLE_KINDS, "ideal"))


def _engine(n=5, honest=frozenset({2, 3, 4, 5}), oracles=None):
    params = _params(n=n, t=1)
    return Engine("rounds", params, _session(n, oracles), {}, honest, AdversaryScript())


def test_honest_broadcast_is_metered_once_in_destination_order():
    n = 5
    engine = _engine(n, oracles={"x": OracleInstance("sync_bb", 3, 7)})
    ctx = engine.parties[3].ctx
    ctx.set_step("vectors")
    ctx.broadcast("v_vec", 9)
    # a one-sender chain relay: its 7-bit value and a k+n-bit signature
    ctx.broadcast("ds", ((3, b"v", MultiSig(frozenset({3}), b"")),), instance="x")
    relay = 7 + 128 + n
    assert engine.metrics.honest_bits_total == (n + relay) * (n - 1)
    assert engine.metrics.bits_by_step == {"vectors": n * (n - 1), "oracle:x": relay * (n - 1)}
    assert engine.metrics.bits_by_oracle == {"direct": n * (n - 1), "sync_bb": relay * (n - 1)}
    # one record per send, with its destinations in order
    [(env, dsts), (chain, _)] = engine.pending
    assert list(dsts) == [1, 2, 4, 5]
    assert (env.src, env.kind, env.payload, env.bits, env.instance) == (3, "v_vec", 9, n, None)
    assert (chain.bits, chain.instance) == (relay, "x")
    engine._deliver(env, dsts)
    for pid in (1, 2, 4, 5):
        [got] = engine.parties[pid].ctx.mailbox
        assert got is env
        assert engine.parties[pid].ctx.inbox("v_vec") == [env]
    assert engine.parties[3].ctx.mailbox == []


def test_hooked_broadcast_goes_per_destination_and_is_not_metered():
    n = 5
    engine = _engine(n)
    seen = []

    def drop_three(ctx, dst, kind, payload):
        seen.append(dst)
        return None if dst == 3 else (kind, payload)

    factory = hooked(lambda ctx: None, send_hook=drop_three)
    ctx = engine.parties[1].ctx
    factory(ctx)
    ctx.broadcast("v_vec", 9)
    assert seen == [2, 3, 4, 5]
    assert [list(dsts) for _, dsts in engine.pending] == [[2], [4], [5]]
    assert engine.metrics.honest_bits_total == 0
    assert engine.metrics.bits_by_step == {}


@pytest.mark.parametrize("mode,regime", [("rounds", "half"), ("events", "third_async")])
def test_list_first_asked_for_after_its_mail_equals_the_scan_and_grows(mode, regime):
    n = 4
    checked = []

    def wait_for(ctx, count):
        if mode == "rounds":
            yield NEXT_ROUND
            return
        mail = ctx.reader()
        while len(ctx.mailbox) < count:
            mail.new()
            yield mail

    def party(ctx, my_input, sender):
        # the lists are the engine's from its start, before any mail
        opened = ctx.engine._filing["rb", "x"][ctx.pid], ctx.engine._filing["v_vec", None][ctx.pid]
        ctx.broadcast("rb", ctx.pid, instance="x")
        ctx.broadcast("rb", -ctx.pid, instance="y")
        ctx.broadcast("v_vec", ctx.pid, instance="x")
        ctx.broadcast("v_vec", 0)
        ctx.broadcast("e_vec", 0)
        yield from wait_for(ctx, 5 * (n - 1))
        # asked for only now, after all matching mail has arrived; a kind
        # alone names (kind, None), which holds none of the tagged mail
        by_inst, by_kind = ctx.inbox("rb", "x"), ctx.inbox("v_vec")
        assert by_inst is opened[0] and by_kind is opened[1]
        assert by_inst == _scan(ctx, "rb", "x") and len(by_inst) == n - 1
        assert by_kind == _scan(ctx, "v_vec", None) and len(by_kind) == n - 1
        before = list(by_inst), list(by_kind)
        ctx.self_deliver("rb", 0, instance="x")
        ctx.broadcast("rb", 10 + ctx.pid, instance="x")
        ctx.broadcast("v_vec", 20 + ctx.pid)
        yield from wait_for(ctx, 7 * (n - 1) + 1)
        assert ctx.inbox("rb", "x") is by_inst and ctx.inbox("v_vec") is by_kind
        assert by_inst == _scan(ctx, "rb", "x") and len(by_inst) == 2 * n - 1
        assert by_kind == _scan(ctx, "v_vec", None) and len(by_kind) == 2 * (n - 1)
        assert by_inst[:n - 1] == before[0] and by_kind[:n - 1] == before[1]
        assert by_inst[n - 1].payload == 0
        others = [pid for pid in range(1, n + 1) if pid != ctx.pid]
        assert sorted(e.payload for e in by_inst[n:]) == [10 + pid for pid in others]
        assert sorted(e.payload for e in by_kind[n - 1:]) == [20 + pid for pid in others]
        checked.append(ctx.pid)
        return b"done"

    # x and y name oracle instances, so honest mail may name them, and the
    # table has an rb list for each
    kind = "sync_bb" if mode == "rounds" else "async_rb"
    spec = ProtocolSpec(name="late-reader", mode=mode, kind="ba", regime=regime, party=party,
                        oracles=lambda params, sender: {
                            name: OracleInstance(kind, 1, 1) for name in ("x", "y")})
    res = run(spec, _params(regime=regime), {i: b"" for i in range(1, n + 1)}, seed=0)
    assert sorted(checked) == list(range(1, n + 1))
    assert all(out == b"done" for out in res.outputs.values())


def _keys_asked(monkeypatch):
    """Spy on every keyed read: returns the list it fills with (the engine's
    keys at its start, who reads, key), who being honest, hooked (a corrupt
    party running the honest code, ``adversary.hooked``) or corrupt."""
    at_start = weakref.WeakKeyDictionary()
    asked = []
    orig_init, orig_inbox = Engine.__init__, Ctx.inbox

    def init(engine, *args, **kwargs):
        orig_init(engine, *args, **kwargs)
        at_start[engine] = frozenset(engine._filing)

    def inbox(ctx, kind=None, instance=None):
        if kind is not None:
            if ctx.pid in ctx.engine.honest:
                who = "honest"
            elif (ctx.send_hook, ctx.oracle_hook, ctx.crash_after_steps) != (None,) * 3:
                who = "hooked"
            else:
                who = "corrupt"
            asked.append((at_start[ctx.engine], who, (kind, instance)))
        return orig_inbox(ctx, kind, instance)

    monkeypatch.setattr(Engine, "__init__", init)
    monkeypatch.setattr(Ctx, "inbox", inbox)
    return asked


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_protocols_open_their_lists_before_their_mail_arrives(monkeypatch, protocol):
    # every key an honest party, or a corrupt one running the honest code
    # under hooks, asks for is in the engine's table from its start: lists
    # open at engine start from wire's key rule, so no read finds its list
    # missing or its mail unfiled; the honest runs keep their golden digests
    from tests.test_golden import GOLDEN, ORACLES, SEEDS, UNANIMITY

    golden = json.loads(GOLDEN.read_text())
    asked = _keys_asked(monkeypatch)
    honest = next(s for s in adversary_battery() if s.name == "honest")
    params = battery_configs(protocol)[-1]
    for impl, oracle_impl in ORACLES.items():
        for seed in SEEDS:
            inputs = build_inputs(PROTOCOLS[protocol].kind, params, seed, UNANIMITY[seed])
            res = run(protocol, params, inputs, adversary=honest, seed=seed,
                      oracle_impl=oracle_impl)
            key = (f"{protocol} n={params.n} t={params.t} eps={params.epsilon} "
                   f"honest {impl} seed={seed}")
            metrics = hashlib.sha256(res.metrics.to_json().encode()).hexdigest()
            assert [metrics, res.metrics.outputs_digest] == golden[key]
        for script in adversary_battery():
            inputs = build_inputs(PROTOCOLS[protocol].kind, params, 0, "majority")
            run(protocol, params, inputs, adversary=script, seed=0, oracle_impl=oracle_impl)
    assert all(key in keys for keys, who, key in asked if who != "corrupt")
    # ef-async-rb-third reads its whole mailbox, under no key
    readers = {who for _, who, _ in asked}
    assert readers >= {"honest", "hooked"} or protocol == "ef-async-rb-third" and not asked


# metrics and outputs digests of the sessions below, recorded when a list
# was built by a mailbox scan on its first request and the runner asked for
# every "aba" list as each party started
_LATE_JOIN = {
    0: ("a55e4c134f20e84e2f0f933b63dffc1bbac095a3c785eb32dafb5f62f7749af2",
        "4357f22b86c7ed978e6be45dac3a7bb674dd016c32bd5132a6c4c9a3c8208297"),
    1: ("e6a4367662efe583ac6e14ca08523311132562d3cc2359cadba69246217e18b3",
        "dab914f3aea2cfd847adc2f583ba568ccedf5da717dcd3b1722504bcadbb2121"),
    2: ("95857ab79dc1e1f9cf32f214efd096e524ce3b73cadf71709eb6ce2ba96e55fe",
        "16a387c498cdfff97294877352aeb45a6604c4026126c89d26076aaaae0f6f12"),
}


@pytest.mark.parametrize("seed", range(3))
def test_binary_agreement_list_opened_at_start_needs_no_scan(monkeypatch, seed):
    # under random delivery, peers' "aba" mail of ba_happy reaches a party
    # before it joins that instance; the list opened at engine start has
    # that mail filed, and the session is the one recorded above
    joined = []
    orig_inbox = Ctx.inbox

    def inbox(ctx, kind=None, instance=None):
        got = orig_inbox(ctx, kind, instance)
        if (kind, instance) == ("aba", "ba_happy"):
            joined.append(len(got))
        return got

    monkeypatch.setattr(Ctx, "inbox", inbox)
    params = battery_configs("async-ba-third")[-1]
    inputs = build_inputs("ba", params, seed, "all")
    res = run("async-ba-third", params, inputs, adversary=ScheduledHonest("random"), seed=seed,
              oracle_impl=CONCRETE)
    assert len(joined) == params.n and max(joined) > 0
    metrics = hashlib.sha256(res.metrics.to_json().encode()).hexdigest()
    assert (metrics, res.metrics.outputs_digest) == _LATE_JOIN[seed]


def test_random_pick_draws_what_randrange_draws():
    # the events loop's random pick is rng.randrange(len(pending)), drawn by
    # the same getrandbits calls, so it leaves the generator in the same state
    powers = {m for k in range(1, 13) for m in (2**k - 1, 2**k, 2**k + 1)}
    lengths = sorted(set(range(1, 301)) | powers)
    assert lengths[-1] == 4097
    pendings = {size: [None] * size for size in lengths}
    policy = RandomPolicy()
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for size in lengths:
            assert policy.pick(pendings[size], rng) == ref.randrange(size)
            assert rng.getstate() == ref.getstate()
    with pytest.raises(ValueError):
        policy.pick([], random.Random(0))


_EVENTS_PROTOCOLS = sorted(name for name, spec in PROTOCOLS.items() if spec.mode == "events")


@pytest.mark.parametrize("script", [ScheduledHonest("random"), StarvingScheduler()],
                         ids=lambda script: script.name)
@pytest.mark.parametrize("protocol", _EVENTS_PROTOCOLS)
def test_tracing_does_not_change_an_events_session(protocol, script):
    params = battery_configs(protocol)[-1]
    inputs = build_inputs(PROTOCOLS[protocol].kind, params, 1, "majority")
    plain = run(protocol, params, inputs, adversary=script, seed=1)
    traced = run(protocol, params, inputs, adversary=script, seed=1, trace=True)
    assert plain.trace is None and len(traced.trace) == traced.metrics.rounds_or_events_elapsed
    assert traced.metrics.to_json() == plain.metrics.to_json()
    assert traced.outputs == plain.outputs


def test_chain_oracles_file_no_kind_level_ds_list(monkeypatch):
    # the signature-chain oracles read their mail by (kind, instance) only:
    # the table has no ("ds", None) list, and every party reads ds mail
    # under an instance, from lists delivery filed
    asked = _keys_asked(monkeypatch)
    ds_read = []
    orig_inbox = Ctx.inbox

    def inbox(ctx, kind=None, instance=None):
        got = orig_inbox(ctx, kind, instance)
        if kind == "ds":
            ds_read.append((ctx.pid, got))
        return got

    monkeypatch.setattr(Ctx, "inbox", inbox)
    params = _params(n=7, t=3)
    res = run("sync-ba-half", params, build_inputs("ba", params, 0, "all"), seed=0,
              oracle_impl=CONCRETE)
    assert len(res.outputs) == 7
    [keys] = {keys for keys, _, _ in asked}
    assert ("ds", None) not in keys
    ds_keys = [key for _, _, key in asked if key[0] == "ds"]
    assert ds_keys and all(instance is not None for _, instance in ds_keys)
    assert {pid for pid, got in ds_read if got} == set(range(1, 8))


# mail is sent under keys of the table (wire.keys over the instances x and
# y), and v_vec also under x, a key the table has no list for
_SENT = st.sampled_from([("v_vec", None), ("e_vec", None), ("v_vec", "x"), ("rb", "x"),
                         ("rb", "y")])
_PIDS = st.integers(1, 4)
_OPS = st.one_of(
    st.tuples(st.just("broadcast"), _PIDS, _SENT),
    st.tuples(st.just("send"), _PIDS, st.integers(1, 3), _SENT),
    st.tuples(st.just("self"), _PIDS, _SENT),
    st.tuples(st.just("ask"), _PIDS, st.sampled_from(
        [(None, None), ("v_vec", None), ("e_vec", None), ("rb", "x"), ("rb", "y"),
         ("ds", "x")]),
        st.booleans()),
    st.tuples(st.just("deliver"), st.integers(0, 63)),
)


# one party asks for a key before any mail is filed under it, another only
# after: both lists equal the scan, since both opened at engine start
_ASK_BEFORE_AND_AFTER = [
    ("ask", 1, ("rb", "x"), False), ("ask", 1, ("v_vec", None), True),
    ("broadcast", 3, ("rb", "x")), ("deliver", 0), ("deliver", 0),
    ("ask", 2, ("rb", "x"), True), ("ask", 2, ("v_vec", None), False),
]


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(["rounds", "events"]), ops=st.lists(_OPS, max_size=60))
@example(mode="rounds", ops=_ASK_BEFORE_AND_AFTER)
@example(mode="events", ops=_ASK_BEFORE_AND_AFTER)
def test_lists_equal_reference_scans_under_interleaved_filing(mode, ops):
    """Broadcasts, single sends, self-deliveries, deliveries in any order
    and requests for any key of the table, interleaved: every list a party
    asked for equals the scan of a reference mailbox by (kind, instance), a
    kind alone naming (kind, None), and so does every cursor's new mail;
    the table keeps the keys and lists it had at engine start."""
    declared = {name: OracleInstance("sync_bb", 1, 1) for name in ("x", "y")}
    engine = Engine(mode, _params(n=4, t=1), _session(4, declared), {},
                    frozenset({1, 2, 3, 4}), AdversaryScript())
    table = {key: list(row) for key, row in engine._filing.items()}
    assert set(table) == set(wire.keys(declared))
    ref: dict[int, list] = {pid: [] for pid in range(1, 5)}
    opened = []  # (pid, kind, instance, list, reader or None, mail the reader returned)

    def mail(envs):
        return [(e.src, e.kind, e.payload, e.instance) for e in envs]

    def ref_scan(pid, kind, instance):
        return [m for m in ref[pid] if kind is None or (m[1], m[3]) == (kind, instance)]

    for seq, op in enumerate(ops):
        what, *args = op
        if what == "broadcast":
            pid, (kind, instance) = args
            engine.parties[pid].ctx.broadcast(kind, seq, instance=instance)
        elif what == "send":
            pid, shift, (kind, instance) = args
            engine.parties[pid].ctx.send((pid + shift - 1) % 4 + 1, kind, seq, instance=instance)
        elif what == "self":
            pid, (kind, instance) = args
            engine.parties[pid].ctx.self_deliver(kind, seq, instance=instance)
            ref[pid].append((pid, kind, seq, instance))
        elif what == "deliver" and engine.pending:
            env, dsts = engine.pending.pop(args[0] % len(engine.pending))
            dsts = dsts if mode == "rounds" else (dsts,)
            engine._deliver(env, dsts)
            for dst in dsts:
                ref[dst].append((env.src, env.kind, env.payload, env.instance))
        elif what == "ask":
            pid, (kind, instance), as_reader = args
            ctx = engine.parties[pid].ctx
            rd = ctx.reader(kind, instance) if as_reader else None
            box = ctx.inbox(kind, instance)
            assert kind is None or box is table[kind, instance][pid]
            opened.append((pid, kind, instance, box, rd, []))
        for pid, kind, instance, box, rd, got in opened:
            want = ref_scan(pid, kind, instance)
            assert mail(box) == want
            if rd is not None:
                got += mail(rd.new())
                assert got == want
    for pid in range(1, 5):
        assert mail(engine.parties[pid].ctx.mailbox) == ref[pid]

    def ids(rows):
        return {key: [id(box) for box in row] for key, row in rows.items()}

    assert ids(engine._filing) == ids(table)


def test_instance_reads_need_a_kind():
    ctx = _engine().parties[2].ctx
    with pytest.raises(ValueError, match="needs a kind"):
        ctx.inbox(instance="x")
    with pytest.raises(ValueError, match="needs a kind"):
        ctx.reader(instance="x")
    assert ctx.inbox() is ctx.mailbox


def test_only_the_engine_files_oracle_outputs():
    # a party can neither send nor self-deliver an oracle output, so an
    # instance's oracle_out list holds the engine's output alone
    engine = _engine(oracles={"ba": OracleInstance("sync_ba", None, 1)})
    ctx = engine.parties[2].ctx
    with pytest.raises(ValueError, match="engine only"):
        ctx.self_deliver("oracle_out", b"forged", instance="ba")
    with pytest.raises(ValueError, match="engine only"):
        ctx.send(3, "oracle_out", b"forged", instance="ba")
    engine.parties[1].ctx.send(3, "oracle_out", b"forged", instance="ba")
    assert engine.pending == [] and ctx.mailbox == []
    assert ctx.inbox("oracle_out", "ba") == []


class Misfit(AdversaryScript):
    """A tail-placed corrupt party whose one act is ``act(ctx)``."""

    name = "misfit"
    placement = "tail"

    def __init__(self, act):
        self.act = act

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            self.act(ctx)
            return None
            yield  # pragma: no cover

        return party


def _same_as_silent(protocol, act):
    """Run protocol at n=4, seed 0, once with a silent corrupt party and once
    with a misfit doing act, and check the misfit changed nothing."""
    spec = PROTOCOLS[protocol]
    params = _params(regime=spec.regime)
    inputs = build_inputs(spec.kind, params, 0, "all")
    quiet = run(protocol, params, inputs, adversary=Silent(), seed=0)
    res = run(protocol, params, inputs, adversary=Misfit(act), seed=0, trace=True)
    assert res.corrupt == quiet.corrupt == frozenset({4})
    assert res.metrics.outputs_digest == quiet.metrics.outputs_digest
    assert res.metrics.honest_bits_total == quiet.metrics.honest_bits_total
    assert res.metrics.rounds_or_events_elapsed == quiet.metrics.rounds_or_events_elapsed
    assert [r for r in res.trace if r["from"] == 4] == []
    return res


_MISSENDS = {
    "list-kind": lambda ctx: ctx.broadcast(["payload"], b"m"),
    "list-instance": lambda ctx: ctx.broadcast("payload", b"m", instance=["x"]),
    "dict-instance": lambda ctx: ctx.send(1, "payload", b"m", instance={"a": 1}),
    "absent-destination": lambda ctx: ctx.send(9, "payload", b"m"),
    "own-destination": lambda ctx: ctx.send(ctx.pid, "payload", b"m"),
}


@pytest.mark.parametrize("protocol", ["sync-ba-half", "async-rb-third"])
@pytest.mark.parametrize("what", sorted(_MISSENDS))
def test_corrupt_sends_the_network_has_no_place_for_are_dropped(protocol, what):
    _same_as_silent(protocol, _MISSENDS[what])


def test_honest_sends_the_network_has_no_place_for_raise():
    engine = _engine()  # party 1 corrupt
    for act in _MISSENDS.values():
        act(engine.parties[1].ctx)
        with pytest.raises(ValueError):
            act(engine.parties[2].ctx)
    # nor has the schema a size for a kind it does not know, nor the
    # session a charge for an instance it does not declare
    with pytest.raises(KeyError):
        engine.parties[2].ctx.send(3, "chatter", b"m")
    with pytest.raises(KeyError):
        engine.parties[2].ctx.send(3, "v_vec", 1, instance="x")
    assert engine.pending == [] and engine.metrics.honest_bits_total == 0


# a submission names an instance and nothing else: a kind in its place, an
# instance another protocol declares, or a name that is no str names none
_MISSUBMITS = {
    "sync-ba-half": {
        "wrong-mode": lambda ctx: ctx.oracle_submit("rb_commit", b"m"),
        "unknown-kind": lambda ctx: ctx.oracle_submit("sync_xx", 1),
    },
    "async-rb-third": {
        "list-instance": lambda ctx: ctx.oracle_submit(["j"], 1),
        "list-kind": lambda ctx: ctx.oracle_submit(["async_rb"], 1),
        "int-name": lambda ctx: ctx.oracle_submit(7, b"m"),
    },
}


@pytest.mark.parametrize("protocol,what", [(p, w) for p, acts in _MISSUBMITS.items()
                                           for w in sorted(acts)])
def test_malformed_corrupt_ideal_submissions_are_dropped(protocol, what):
    _same_as_silent(protocol, _MISSUBMITS[protocol][what])


@pytest.mark.parametrize("mode,protocol", [("rounds", "sync-ba-half"),
                                           ("events", "async-rb-third")])
def test_malformed_honest_ideal_submissions_raise(mode, protocol):
    params = _params()
    session = _session(params.n, PROTOCOLS[protocol].oracles(params, 1))
    engine = Engine(mode, params, session, {}, frozenset({1, 2, 3}), AdversaryScript())
    for act in _MISSUBMITS[protocol].values():
        act(engine.parties[4].ctx)
        with pytest.raises(ValueError, match="no ideal oracle instance"):
            act(engine.parties[1].ctx)
    assert engine.oracles.keys() == session.oracles.keys()
    assert all(not inst.registered and not inst.submissions for inst in engine.oracles.values())
    assert engine._submitted == set()


def test_a_corrupt_submission_cannot_define_an_honest_partys_flag_slot():
    # the spec declares flag/j with sender j, so party 4's 0 on another
    # party's slot is not that party's flag
    res = _same_as_silent("ef-async-rb-third",
                          lambda ctx: [ctx.oracle_submit(f"flag/{j}", 0) for j in (1, 2, 3)])
    sent = build_inputs("rb", _params(regime="third_async"), 0, "all")[1]
    assert all(res.outputs.get(p) == sent for p in res.honest)


@pytest.mark.parametrize("protocol", ["ef-async-rb-third", "async-rb-third"])
def test_junk_instances_cost_honest_parties_nothing(protocol):
    # an instance no spec declares does not exist: it never fires and is
    # never charged
    _same_as_silent(protocol,
                    lambda ctx: [ctx.oracle_submit(f"junk/{i}", 1) for i in range(100)])


class ScriptedSubmission(AdversaryScript):
    """A silent tail-placed corrupt party 4 on whose behalf the script
    submits value to one ideal instance."""

    placement = "tail"

    def __init__(self, instance, value):
        self.instance, self.value = instance, value

    def oracle_submissions(self, inst, engine):
        return {4: self.value} if inst.instance == self.instance else {}


@pytest.mark.parametrize("seed", [0, 3, 4, 5])
@pytest.mark.parametrize("value", [1.0, np.int64(1)])
@pytest.mark.parametrize("path", ["party", "script"])
def test_a_one_bit_submission_that_is_not_the_int_0_or_1_is_dropped(path, value, seed):
    # 1.0 and np.int64(1) equal 1 but do not encode: were either taken, split
    # honest bits would leave the output to default_output, which raised
    params = _params(regime="third_async")
    inputs = build_inputs("ba", params, seed, "none")
    if path == "party":
        adversary = Misfit(lambda ctx: ctx.oracle_submit("ba_happy", value))
    else:
        adversary = ScriptedSubmission("ba_happy", value)
    quiet = run("async-ba-third", params, inputs, adversary=Misfit(lambda ctx: None), seed=seed)
    res = run("async-ba-third", params, inputs, adversary=adversary, seed=seed)
    assert res.corrupt == quiet.corrupt == frozenset({4})
    assert res.metrics.outputs_digest == quiet.metrics.outputs_digest
    assert res.metrics.honest_bits_total == quiet.metrics.honest_bits_total


_MISKEYED = {
    "self-deliver-list-kind": lambda ctx: ctx.self_deliver(["x"], 1),
    "self-deliver-list-instance": lambda ctx: ctx.self_deliver("x", 1, instance=["y"]),
    "self-deliver-oracle-out": lambda ctx: ctx.self_deliver("oracle_out", 1),
    "inbox-list-kind": lambda ctx: ctx.inbox(["x"]),
    "inbox-no-kind": lambda ctx: ctx.inbox(None, "x"),
    "reader-list-instance": lambda ctx: ctx.reader("x", ["y"]).new(),
    "oracle-result-list": lambda ctx: ctx.inbox("oracle_out", ["i"]),
    "wait-oracle-list": lambda ctx: [next(ctx.wait_oracle(["i"]))],
    # well formed, but keys no session reads: v_vec is read under None
    # alone, oracle_out under a declared instance alone (wire.keys)
    "inbox-undeclared-key": lambda ctx: ctx.inbox("v_vec", "x"),
    "reader-undeclared-oracle-out": lambda ctx: ctx.reader("oracle_out", "undeclared").new(),
}


@pytest.mark.parametrize("protocol", ["sync-ba-half", "async-rb-third"])
@pytest.mark.parametrize("what", sorted(_MISKEYED))
def test_corrupt_requests_naming_no_mail_key_are_refused(protocol, what):
    # a corrupt self-delivery is dropped; a corrupt read gets an empty list
    # nothing files into, and the engine's filing table gains no row
    seen = []

    def act(ctx):
        before = len(ctx.engine._filing)
        got = _MISKEYED[what](ctx)
        seen.append((before, len(ctx.engine._filing), got))

    _same_as_silent(protocol, act)
    [(before, after, got)] = seen
    assert after == before
    assert got in (None, []) or [r.new() for r in got] == [[]]


def test_honest_requests_naming_no_mail_key_raise():
    engine = _engine()  # party 1 corrupt
    for act in _MISKEYED.values():
        act(engine.parties[1].ctx)
        with pytest.raises(ValueError):
            act(engine.parties[2].ctx)
    for kind, instance in [("v_vec", "x"), ("oracle_out", "undeclared")]:
        with pytest.raises(ValueError, match=f"{kind!r} under instance {instance!r}"):
            engine.parties[2].ctx.inbox(kind, instance)
    # the table is the one made at start, and nothing was filed into it
    assert engine._filing == {key: [[] for _ in range(6)] for key in wire.keys({})}
    assert engine.parties[1].ctx.mailbox == []


def test_junk_instance_flood_grows_no_engine_table(monkeypatch):
    # the table's keys are fixed at engine start, so 1,000 instance names
    # nobody reads leave the engine's filing table as it was. The
    # schema sizes the flood, not its sender: mail it refuses (an echo under
    # no declared instance) carries 0 bits, and a well-formed v_vec n bits
    sizes = []
    orig_run = Engine.run

    def engine_run(engine):
        orig_run(engine)
        sizes.append(len(engine._filing))

    def flood(kind, payload):
        def act(ctx):
            for i in range(1000):
                ctx.broadcast(kind, payload, instance=f"junk/{i}")
        return act

    monkeypatch.setattr(Engine, "run", engine_run)
    params = _params()
    inputs = build_inputs("ba", params, 0, "all")
    quiet = run("sync-ba-half", params, inputs, adversary=Silent(), seed=0)
    refused = run("sync-ba-half", params, inputs,
                  adversary=Misfit(flood("rb", ("echo", b"junk"))), seed=0)
    formed = run("sync-ba-half", params, inputs, adversary=Misfit(flood("v_vec", 0)), seed=0)
    assert sizes[2] == sizes[1] == sizes[0]
    for loud in (refused, formed):
        assert loud.metrics.honest_bits_total == quiet.metrics.honest_bits_total == 10_764
        assert loud.metrics.outputs_digest == quiet.metrics.outputs_digest
    received = quiet.metrics.extra["received_bits_total"]
    assert refused.metrics.extra["received_bits_total"] == received
    assert formed.metrics.extra["received_bits_total"] == (
        received + 1000 * params.n * len(quiet.honest))


def test_filed_envelopes_are_immutable():
    engine = _engine()
    engine.parties[2].ctx.broadcast("v_vec", 9)
    [(env, _)] = engine.pending
    for field in env._fields:
        with pytest.raises(AttributeError):
            setattr(env, field, 0)
    with pytest.raises(AttributeError):
        env.dst = 1


def _trace_digest(res) -> str:
    blob = json.dumps({"trace": res.trace,
                       "received_bits_total": res.metrics.extra["received_bits_total"]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# Recorded with one envelope built per destination; one record per send must
# deliver the same messages to the same parties at the same ticks. The
# sync-ba-half digests also fix how chain relays are grouped into records;
# the summed pin below holds whatever that grouping is.
@pytest.mark.parametrize("protocol,regime,t,adversary,digest", [
    ("sync-ba-half", "half", 3, None,
     "a9bbd1f503b3ff44034c0607ae904f42575c7c3c5930c97034ee8b9c2951d863"),
    ("sync-ba-half", "half", 3, Equivocator(),
     "5256d61dbe91518ad9b73be06b189fec3ac1442e31280cad0d8e2ac0c1d2c3c2"),
    ("async-rb-third", "third_async", 2, ScheduledHonest("random"),
     "ea2bdb18a2b3cd1b4d7b275fb0cf96316d92927195bb8b2c9d6f3483dc193ce3"),
    ("async-rb-third", "third_async", 2, StarvingScheduler(),
     "c9fb1d73d8017aab3cf0a62a97e88aabb570b5ae0268718508c32fc3ea3bc34b"),
    # Recorded before the binary agreement's tallies were indexed by vote:
    # its send order must not move.
    ("async-ba-third", "third_async", 2, None,
     "93c62fb41588fe88a8ad1d27d04738747259ec0f6bcf1e3b237304c562cc3930"),
    ("async-ba-third", "third_async", 2, ScheduledHonest("random"),
     "2e1da8a09256f38005f9cdc76b0ceb799595b95703a0957f6379a00d7b2e824c"),
    ("async-ba-third", "third_async", 2, StarvingScheduler(),
     "ac3ef2b23232dedd352173d3435d0777ae075456fbc2921bffeca9bc7fcfa870"),
    ("async-ba-third", "third_async", 2, Equivocator(),
     "3e1859a94d94b8d2adec392f2178063dd369753a6bf320d77a35a92f27fa15b9"),
    ("async-ba-third", "third_async", 10, None,
     "2bd17219205deb15c0539ebe5fedc4756c368f8091e307bb32486c2ba081a910"),
])
def test_trace_and_received_bits_are_pinned(protocol, regime, t, adversary, digest):
    # each cell runs at the least n whose largest t in its regime is t:
    # n = 7 for t = 3 (half) and t = 2 (third), n = 31 for t = 10 (third)
    n = {"half": 2 * t + 1, "third_async": 3 * t + 1}[regime]
    params = _params(n=n, t=t, regime=regime)
    inputs = build_inputs(PROTOCOLS[protocol].kind, params, 4, "majority")
    res = run(protocol, params, inputs, adversary=adversary, seed=4, oracle_impl=CONCRETE,
              trace=True)
    assert _trace_digest(res) == digest


def _summed_trace_digest(res) -> str:
    """The trace's bits summed per (tick, from, to, msg_kind), and the
    received bits: what is left of the trace when records are merged."""
    sums: dict[tuple, int] = {}
    for rec in res.trace:
        key = (rec["tick"], rec["from"], rec["to"], rec["msg_kind"])
        sums[key] = sums.get(key, 0) + rec["bits"]
    blob = json.dumps({"trace": sorted([*key, bits] for key, bits in sums.items()),
                       "received_bits_total": res.metrics.extra["received_bits_total"]},
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# Recorded with one "ds" record per chain relay; they hold with one record
# per party, instance and round, since merging records keeps these sums. In
# the junk cell each junk record carries its schema size, 0 when refused.
@pytest.mark.parametrize("protocol,regime,t,eps,adversary,digest", [
    ("sync-ba-half", "half", 3, None, None,
     "6b22401a2ba4e04196051f3e7d76c4eb73ab5732c344a52fde47abf2c67ef043"),
    ("sync-ba-half", "half", 3, None, Equivocator(),
     "b25a095eb48b071f99ca4d292a61a70482cf9584fe73c8b13957931e9494db42"),
    ("sync-bb-half", "half", 3, None, JunkInjector(),
     "bdb5349825f9b8af3ccd4791a30e87ab97b07beb7e2aeae28bd6430565f4c03a"),
    ("sync-bb-highthresh", "one_minus_eps", 5, 1 / 7, Equivocator(),
     "998ac74e394b59c17a00be03eb6a7896f182a72576e2db98382c25859b6a7178"),
    ("ef-sync-ba-third", "third_sync_ef", 2, None, Equivocator(),
     "f14636819195092f9969d09e543a022014b045b1ebdefc92571982bfc33ee8fd"),
])
def test_summed_trace_of_concrete_sync_cells_is_pinned(protocol, regime, t, eps, adversary,
                                                       digest):
    params = _params(n=7, t=t, regime=regime, eps=eps)
    inputs = build_inputs(PROTOCOLS[protocol].kind, params, 4, "majority")
    res = run(protocol, params, inputs, adversary=adversary, seed=4, oracle_impl=CONCRETE,
              trace=True)
    assert _summed_trace_digest(res) == digest


def test_widest_concrete_session_is_pinned():
    # sync-ba-half at n = 64 with every concrete oracle: each party sends at
    # most one chain record per instance and round, Theta(n^2) records
    # carrying Theta(n^3) relays, the most relays of any concrete session
    params = SessionParams(n=64, t=31, l=2**14, threshold_regime="half")
    res = run("sync-ba-half", params, build_inputs("ba", params, 0, "all"), seed=0,
              oracle_impl=CONCRETE)
    assert res.metrics.honest_bits_total == 256_370_688
    assert res.metrics.outputs_digest == (
        "1805d567eb4a2347ccbfdfa435a88d919eef7fe327574e689bd9c62ca57f26f3")
