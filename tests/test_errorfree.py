import sys

import pytest

from bbext import rs
from bbext.adversary import (
    AdversaryScript,
    ConflictingViews,
    Equivocator,
    ScheduledHonest,
    Silent,
    StarvingScheduler,
    adversary_battery,
    hooked,
)
from bbext.checks import build_inputs, evaluate_run, explore_schedules
from bbext.protocols import SessionParams, errorfree
from bbext.runner import SENDER, run

M = bytes(range(12))


def p_sync(n=4, l=96):
    return SessionParams(n=n, t=(n - 1) // 3, l=l, k=128,
                         threshold_regime="third_sync_ef")


def p_async(n=4, l=96):
    return SessionParams(n=n, t=(n - 1) // 3, l=l, k=128,
                         threshold_regime="third_async")


def test_threshold_convention_enforced():
    bad = SessionParams(n=7, t=1, l=96, k=128, threshold_regime="third_sync_ef")
    with pytest.raises(ValueError, match="floor"):
        run("ef-sync-ba-third", bad, {i: M for i in range(1, 8)}, seed=0)


def test_sync_unanimous_inputs():
    for n in (4, 7):
        params = p_sync(n=n)
        res = run("ef-sync-ba-third", params, {i: M for i in range(1, n + 1)}, seed=0)
        assert all(res.outputs[p] == M for p in res.honest)


def test_sync_divergent_inputs_fall_back_to_zero_message():
    params = p_sync()
    inputs = {i: bytes([i]) * 12 for i in range(1, 5)}
    res = run("ef-sync-ba-third", params, inputs, adversary=Silent(), seed=0)
    zero = bytes(12)
    assert all(res.outputs[p] == zero for p in res.honest)


def test_sync_conflicting_vectors_battery():
    params = p_sync(n=7)
    for seed in range(30):
        inputs = {i: M for i in range(1, 8)}
        res = run("ef-sync-ba-third", params, inputs, adversary=ConflictingViews(),
                  seed=seed)
        outs = [res.outputs[p] for p in sorted(res.honest)]
        assert len({repr(v) for v in outs}) == 1, seed
        assert outs[0] == M  # unanimity among honest still wins


def test_sync_with_concrete_flag_broadcasts():
    params = p_sync()
    res = run("ef-sync-ba-third", params, {i: M for i in range(1, 5)}, seed=0,
              oracle_impl={"sync_bb": "concrete"})
    assert all(res.outputs[p] == M for p in res.honest)


def test_async_honest_sender_under_adversarial_schedules():
    params = p_async()
    for adv in (AdversaryScript(), ScheduledHonest("lifo"), ScheduledHonest("random"),
                StarvingScheduler()):
        for seed in range(8):
            res = run("ef-async-rb-third", params, {1: M}, adversary=adv, seed=seed)
            assert all(res.outputs[p] == M for p in res.honest), adv.name


class SenderCrashAfterShares(AdversaryScript):
    """Byzantine sender that hands out the payload and its symbols, then dies.

    The remaining honest parties share a consistent message, so once any of
    them outputs, everyone must."""

    name = "sender_crash_after_shares"

    def corrupt_set(self, n, t, sender):
        return frozenset({sender} if sender else ())

    def make_party(self, pid, honest_factory, env):
        return hooked(honest_factory, crash_after_steps=2)


def test_async_byzantine_sender_one_output_implies_all():
    params = p_async()
    res = run("ef-async-rb-third", params, {1: M},
              adversary=SenderCrashAfterShares(), seed=1)
    outs = {p: res.outputs.get(p) for p in res.honest}
    produced = [v for v in outs.values() if v is not None]
    if produced:
        assert all(v == produced[0] for v in outs.values()), outs


def test_async_equivocating_sender_all_or_none():
    params = p_async()
    for seed in range(20):
        res = run("ef-async-rb-third", params, {1: M}, adversary=Equivocator(),
                  seed=seed)
        outs = {p: res.outputs[p] for p in res.honest if p in res.outputs}
        if outs:
            assert set(outs) == set(res.honest)
            assert len({repr(v) for v in outs.values()}) == 1


def test_async_minimal_quorum_decode():
    # exactly 2t+1 symbol votes with none wrong decode on the first attempt;
    # starving the rest exercises the retry window
    params = p_async(n=7)
    res = run("ef-async-rb-third", params, {1: M}, adversary=StarvingScheduler(),
              seed=3)
    assert all(res.outputs[p] == M for p in res.honest)


def test_async_schedule_exploration():
    params = p_async()

    def run_one(policy):
        return run("ef-async-rb-third", params, {1: M}, seed=4, policy=policy)

    for prefix, res in explore_schedules(run_one, max_depth=5, branch_cap=3,
                                         max_traces=80):
        assert all(res.outputs.get(p) == M for p in res.honest), prefix


class EfPoisoner(AdversaryScript):
    """Fabricates acknowledgements in other parties' names, crafted core-set
    bitmaps behind a genuine 1-flag, and random symbol votes of plausible
    width; the vote-grouping threshold must keep all of it harmless."""

    def __init__(self, flavor):
        self.flavor = flavor
        self.name = f"ef_poisoner{flavor}"

    def corrupt_set(self, n, t, sender):
        from bbext.adversary import _tail_corrupt

        return _tail_corrupt(n, t, exclude=frozenset({sender} if sender else ()))

    def make_party(self, pid, honest_factory, env):
        import random as _r

        rng = _r.Random((self.name, env.seed, pid).__repr__())

        def party(ctx):
            n, t = ctx.params.n, ctx.params.t
            share_len = rs.share_bits(ctx.params.l, t + 1) // 8
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    if x != y and rng.random() < 0.3:
                        for dst in range(1, n + 1):
                            if dst != ctx.pid:
                                ctx.send(dst, "ok", (x, y))
            ctx.oracle_submit(f"flag/{ctx.pid}", 1)
            bitmap = ((1 << (2 * t + 1)) - 1 if self.flavor == 0
                      else rng.getrandbits(n))
            for dst in range(1, n + 1):
                if dst != ctx.pid:
                    ctx.send(dst, "e_vec",
                             bitmap if dst % 2 else rng.getrandbits(n))
            for dst in range(1, n + 1):
                if dst != ctx.pid:
                    fake = bytes(rng.randrange(256) for _ in range(share_len))
                    ctx.send(dst, "maj_val", fake)
            return None
            yield  # pragma: no cover

        return party


@pytest.mark.parametrize("flavor", [0, 1])
def test_async_poisoned_core_sets_and_votes(flavor):
    for n in (4, 7):
        t = (n - 1) // 3
        params = SessionParams(n=n, t=t, l=96, k=128, threshold_regime="third_async")
        for seed in range(20):
            res = run("ef-async-rb-third", params, {1: M},
                      adversary=EfPoisoner(flavor), seed=seed)
            assert not evaluate_run("rb", {1: M}, 1, res), (n, flavor, seed)
            assert all(res.outputs.get(p) == M for p in res.honest)


class FlagSlotForger(AdversaryScript):
    """A tail-placed corrupt party that only opens its own flag slot through
    the implementation the session does not run: a Bracha ``send`` under
    ideal oracles, an ideal submission under concrete ones."""

    name = "flag_slot_forger"
    placement = "tail"

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            instance = f"flag/{ctx.pid}"
            if ctx.session.oracle_impl["async_rb"] == "ideal":
                ctx.broadcast("rb", ("send", 1), instance=instance)
            else:
                ctx.oracle_submit(instance, 1)
            return None
            yield  # pragma: no cover

        return party


@pytest.mark.parametrize("impl", ["ideal", "concrete"])
def test_flag_slots_take_only_their_own_implementations_mail(impl):
    res = run("ef-async-rb-third", p_async(), {1: M}, adversary=FlagSlotForger(), seed=0,
              oracle_impl={"async_rb": impl}, trace=True)
    [forger] = res.corrupt
    assert res.metrics.bits_by_step.get(f"oracle:flag/{forger}", 0) == 0
    # no honest echo of the forged send; no ideal output for the submission
    foreign = "rb" if impl == "ideal" else "oracle_out"
    assert [r for r in res.trace if r["msg_kind"] == foreign and r["from"] != forger] == []
    assert all(res.outputs.get(p) == M for p in res.honest)


def test_battery_spot_check_errorfree():
    for protocol, params in [("ef-sync-ba-third", p_sync(n=7)),
                             ("ef-async-rb-third", p_async(n=7))]:
        kind = "ba" if protocol == "ef-sync-ba-third" else "rb"
        for script in adversary_battery():
            inputs = build_inputs(kind, params, 17, "majority")
            res = run(protocol, params, inputs, adversary=script, seed=17)
            sender = None if kind == "ba" else 1
            assert not evaluate_run(kind, inputs, sender, res), (protocol, script.name)


class _PlacedEquivocator(Equivocator):
    """The battery's equivocator with its corrupt set at a chosen place."""

    def __init__(self, placement: str):
        self.placement = placement
        self.name = f"equivocator_{placement}"

    def corrupt_set(self, n, t, sender):
        if self.placement == "head":
            return frozenset(range(1, t + 1))
        if self.placement == "tail":
            return frozenset(range(n - t + 1, n + 1))
        return frozenset(1 + i * n // t for i in range(t))  # spread


@pytest.mark.parametrize("placement", ["head", "spread", "tail"])
@pytest.mark.parametrize("protocol,make_params", [
    ("ef-sync-ba-third", p_sync),
    ("ef-async-rb-third", p_async),
])
def test_equivocator_at_every_placement(protocol, make_params, placement):
    # head placement puts corrupt symbols on the codec's first-choice
    # positions; 2^10 bits make 17 stripes at n=10
    kind = "ba" if protocol.startswith("ef-sync") else "rb"
    script = _PlacedEquivocator(placement)
    for n in (7, 10):
        params = make_params(n=n, l=2 ** 10)
        corrupt = script.corrupt_set(n, params.t, None)
        senders = (None,) if kind == "ba" else (1, min(set(range(1, n + 1)) - corrupt))
        for seed in range(2):
            for sender in senders:
                inputs = build_inputs(kind, params, seed, "all")
                if sender is not None:  # the broadcast message, moved to this sender
                    inputs = {sender: inputs[SENDER]}
                res = run(protocol, params, inputs, adversary=script, seed=seed,
                          sender=sender or SENDER)
                assert res.corrupt == corrupt
                assert evaluate_run(kind, inputs, sender, res) == [], (n, seed, sender)


# The n = 16 and 31 entries were read at the commit before the carried
# complement matching, with the star extracted from scratch for every new
# edge; the golden digests stop at n = 10, where blossoms and deletions of
# matched complement edges are rare. The n = 46 and 64 entries were read at
# the commit before the size bound, which ran the canonical matching after
# every matched deletion and the pruning on every insertion.
PINNED_RB = {
    (16, 0): (1235776, "fab8634a270a858d0710af6bc256eee6c8ef518ef36f7a684e85b6fdabb04fa1"),
    (16, 1): (1236736, "4e8a980a8bb2e218fb3519de9028a03953f0534e34f5064227f7250e4a102c37"),
    (31, 0): (3295261, "ea24566162069131c0dbede686b4c8aedc22b4eeb3d883f04e838eb43b7205bd"),
    (31, 1): (3295261, "ad3e270fbabdecec2e28f855fef499b0a85074849cdbbafc3d3cc0b3d3eb4a7b"),
    (46, 0): (6820876, "353052989271b4827180308460b1af322692de3afa13a32cdfda606342feb9fd"),
    (46, 1): (6820876, "63f3c1d457caffe8ebe48adfd16f8360703e8de9756887cf5d1b80c300d15f0f"),
    (64, 0): (13809664, "8a28e5554fa80096bc6d0fa652d3cf15444fbf7c43ac125f476e1ca2384f0a02"),
}


@pytest.mark.parametrize("n,seed", sorted(PINNED_RB))
def test_async_wide_sessions_match_pinned_digests(n, seed):
    params = SessionParams(n=n, t=(n - 1) // 3, l=2 ** 13, threshold_regime="third_async")
    inputs = build_inputs("rb", params, seed, "all")
    script = {s.name: s for s in adversary_battery()}["sched_random"]
    res = run("ef-async-rb-third", params, inputs, adversary=script, seed=seed)
    assert evaluate_run("rb", inputs, 1, res) == []
    got = (res.metrics.honest_bits_total, res.metrics.outputs_digest)
    assert got == PINNED_RB[(n, seed)]


class _VoteFlooder(ScheduledHonest):
    """Under random delivery, the t corrupt parties vote a wrong symbol at
    once, then, when an honest symbol vote reaches them, send k junk
    acknowledgements to every honest party: each junk message wakes its
    recipient while it waits for the votes that outnumber the wrong ones,
    without giving it anything new to decode."""

    def __init__(self, k: int):
        super().__init__("random")
        self.k = k
        self.name = f"vote_flooder_{k}"

    def corrupt_set(self, n, t, sender):
        return frozenset(range(n - t + 1, n + 1))

    def make_party(self, pid, honest_factory, env):
        def party(ctx):
            n, t = ctx.params.n, ctx.params.t
            share_len = rs.share_bits(ctx.params.l, t + 1) // 8
            honest = [p for p in range(1, n + 1) if p not in env.corrupt]
            for dst in honest:
                ctx.send(dst, "maj_val", bytes([pid]) * share_len)
            votes = ctx.reader("maj_val")
            while not votes.new():
                yield votes
            for _ in range(self.k):
                for dst in honest:
                    ctx.send(dst, "ok", (pid, pid))
            return None

        return party


def _decode_attempts(monkeypatch, k: int, seed: int) -> dict[int, int]:
    """Decode attempts per honest party in one flooded n=10 session; every
    honest party must output the sender's message."""
    attempts: dict[int, int] = {}
    decode = errorfree._decode_symbol_table

    def counted(*args, **kwargs):
        pid = sys._getframe(1).f_locals["ctx"].pid
        attempts[pid] = attempts.get(pid, 0) + 1
        return decode(*args, **kwargs)

    monkeypatch.setattr(errorfree, "_decode_symbol_table", counted)
    params = p_async(n=10, l=2 ** 10)
    inputs = build_inputs("rb", params, seed, "all")
    res = run("ef-async-rb-third", params, inputs, adversary=_VoteFlooder(k), seed=seed)
    monkeypatch.undo()
    assert evaluate_run("rb", inputs, 1, res) == []
    assert all(res.outputs.get(p) == inputs[1] for p in res.honest)
    assert set(attempts) == set(res.honest)
    return attempts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_junk_traffic_adds_no_decode_attempts(monkeypatch, seed):
    # decoding retries only when a new symbol vote has arrived, so junk that
    # wakes a party after a failed decode costs it no further decode
    assert _decode_attempts(monkeypatch, 0, seed) == _decode_attempts(monkeypatch, 300, seed)


def _decoder_table(majs: dict, n: int, share_len: int, absent_as_error: bool) -> tuple:
    """What the decoder reads at each position: the vote if it is share_len
    bytes, the zero block for any other vote (and for an absent one when
    absences count as errors), None for an erasure."""
    zero = bytes(share_len)
    table = []
    for j in range(1, n + 1):
        vote = majs.get(j)
        if isinstance(vote, bytes) and len(vote) == share_len:
            table.append(bytes(vote))
        elif j in majs or absent_as_error:
            table.append(zero)
        else:
            table.append(None)
    return tuple(table)


def _agrees_with_held(codec, table: tuple, b: int) -> bool:
    """Whether some message the codec memo holds, encoded with b blocks, has
    shares equal to every present entry of table."""
    return any(
        key[1] == b and len(entry.shares) == len(table)
        and all(raw is None or raw == s.share for raw, s in zip(table, entry.shares))
        for key, entry in codec.commits.items()
    )


def test_head_equivocator_session_decodes_each_distinct_table_once(monkeypatch):
    from tests.test_blocks import _count

    decodes = _count(monkeypatch, rs, "rs_decode")
    asked: list[tuple] = []
    unanswered: set[tuple] = set()  # tables no held codeword agrees with
    decode = errorfree._decode_symbol_table

    def recording(codec, majs, n, t, share_len, max_errors, absent_as_error):
        key = (_decoder_table(majs, n, share_len, absent_as_error), t + 1,
               share_len, max_errors)
        asked.append(key)
        if not _agrees_with_held(codec, key[0], t + 1):
            unanswered.add(key)
        return decode(codec, majs, n, t, share_len, max_errors, absent_as_error)

    monkeypatch.setattr(errorfree, "_decode_symbol_table", recording)
    params = p_sync(n=10, l=2 ** 10)
    inputs = build_inputs("ba", params, 0, "all")
    res = run("ef-sync-ba-third", params, inputs, adversary=_PlacedEquivocator("head"), seed=0)
    assert evaluate_run("ba", inputs, None, res) == []
    # every party, the equivocators too, decodes once
    assert len(asked) == params.n
    assert len(set(asked)) < len(asked)
    # a table equal to a held codeword at every present position is answered
    # without decoding; each other distinct table is decoded exactly once,
    # and there is at least one, so Berlekamp-Welch still runs
    assert decodes[0] == len(unanswered) >= 1


class _TableFlooder(ScheduledHonest):
    """Under random delivery, each corrupt party sends every honest party k
    symbol votes, no two alike: random bytes of the share length,
    wrong-length bytes, unhashable lists and bytes subclasses that claim to
    equal anything, each recipient's first vote of another kind than its
    neighbour's. A recipient keeps the first to arrive, so the honest
    parties decode tables that differ from party to party and attempt to
    attempt."""

    class _EqualsAnything(bytes):
        def __eq__(self, other):
            return True

        def __hash__(self):
            return 0

    def __init__(self, k: int):
        super().__init__("random")
        self.k = k
        self.name = f"table_flooder_{k}"

    def corrupt_set(self, n, t, sender):
        return frozenset(range(n - t + 1, n + 1))

    def make_party(self, pid, honest_factory, env):
        import random as _r

        rng = _r.Random(repr((self.name, env.seed, pid)))

        def party(ctx):
            n = ctx.params.n
            share_len = rs.share_bits(ctx.params.l, ctx.params.t + 1) // 8
            honest = [p for p in range(1, n + 1) if p not in env.corrupt]
            for i in range(self.k):
                for dst in honest:
                    vote = (rng.randbytes(share_len), rng.randbytes(share_len + 2),
                            [pid, dst, i],
                            self._EqualsAnything(rng.randbytes(share_len)))[(i + dst) % 4]
                    ctx.send(dst, "maj_val", vote)
            return None
            yield  # pragma: no cover

        return party


@pytest.mark.parametrize("seed", [0, 1])
def test_flooded_votes_keep_the_decode_table_bounded(monkeypatch, seed):
    from bbext.blocks import MEMO_ENTRIES, CodecMemo

    sizes: list[int] = []
    keys: set = set()
    decode = CodecMemo.decode_symbols

    def watched(self, table, b, share_len, max_errors):
        out = decode(self, table, b, share_len, max_errors)
        keys.add((b, share_len, max_errors, table))
        sizes.append(len(self.decoded))
        return out

    monkeypatch.setattr(CodecMemo, "decode_symbols", watched)
    params = p_async(n=10, l=2 ** 10)
    inputs = build_inputs("rb", params, seed, "all")
    res = run("ef-async-rb-third", params, inputs, adversary=_TableFlooder(12), seed=seed)
    assert evaluate_run("rb", inputs, 1, res) == []
    assert all(res.outputs.get(p) == inputs[1] for p in res.honest)
    # more distinct tables than the memo holds, so entries were dropped
    assert len(keys) > MEMO_ENTRIES
    assert max(sizes) == MEMO_ENTRIES


def test_flooded_votes_in_the_synchronous_protocol():
    params = p_sync(n=10, l=2 ** 10)
    for seed in range(2):
        inputs = build_inputs("ba", params, seed, "all")
        res = run("ef-sync-ba-third", params, inputs, adversary=_TableFlooder(4), seed=seed)
        assert evaluate_run("ba", inputs, None, res) == []
