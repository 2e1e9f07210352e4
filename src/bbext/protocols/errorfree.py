"""Error-free (signature-free) extension protocols for t = floor((n-1)/3).

Messages are cut into t+1 blocks, so the n-symbol code corrects up to t
wrong symbols. Parties cross-check each other's symbols, build a local
consistency graph, extract a star from it, and derive a core set whose
honest members provably hold one common message. Majority votes over those
sets recover one symbol per party, and decoding the collected symbols
yields the output.

Each party broadcasts a one-bit flag: in n concurrent BB instances when
synchronous (``oracles.bb_slots``), in n concurrent RB instances when
asynchronous (``oracles.RbSlots``). Only ``oracles`` picks their ideal or
concrete implementation; this module treats them as black boxes.
"""

from __future__ import annotations

from .. import rs
from ..blocks import CodecMemo
from ..oracles import RbSlots, bb_slots, slot_instances
from ..simnet import Ctx, InvariantViolation, NEXT_ROUND
from ..star import NOSTAR, GrowingStar, PartyGraph, _mask, _members, derive_fe, star
from .base import ProtocolSpec


def _strict_majority(votes: list[bytes], member_count: int) -> bytes | None:
    threshold = (member_count + 2) // 2  # ceil((count+1)/2)
    counts: dict[bytes, int] = {}
    for v in votes:
        counts[v] = counts.get(v, 0) + 1
        if counts[v] >= threshold:
            return v
    return None


def _greedy_common_vote(candidates: list[int], e_vecs: dict[int, int],
                        priv_sym: dict[int, bytes], n: int, t: int) -> bytes | None:
    """Scan core sets in ascending owner order; the first symbol value backed
    by t+1 sets with equal strict-majority votes wins."""
    counts: dict[bytes, int] = {}
    for x in sorted(candidates):
        bitmap = e_vecs.get(x)
        if bitmap is None:
            continue
        members = _members(bitmap, n)
        if not members:
            continue
        votes = [priv_sym[j] for j in sorted(members) if j in priv_sym]
        maj = _strict_majority(votes, len(members))
        if maj is None:
            continue
        counts[maj] = counts.get(maj, 0) + 1
        if counts[maj] >= t + 1:
            return maj
    return None


def _decode_symbol_table(codec: CodecMemo, majs: dict[int, bytes], n: int, t: int,
                         share_len: int, max_errors: int,
                         absent_as_error: bool) -> bytes | None:
    """Decode from per-party symbol votes, through the session's codec memo.

    A vote that is not share_len bytes long is a zero-filled error and
    counts toward the error budget (``wire`` makes a corrupt vote of
    another shape ``b""``). Absent entries are zero-filled errors in the
    synchronous protocol (fixed error budget t, no erasures) and erasures in
    the asynchronous retry loop.
    """
    zero = bytes(share_len)
    table = []
    for j in range(1, n + 1):
        raw = majs.get(j)
        if raw is not None and len(raw) == share_len:
            table.append(raw)
        elif j in majs or absent_as_error:
            table.append(zero)
        else:
            table.append(None)
    return codec.decode_symbols(tuple(table), t + 1, share_len, max_errors)


def _send_symbols(ctx: Ctx, message: bytes, bit_len: int) -> dict[int, bytes]:
    """Encode the bit_len-bit message into t+1 blocks, broadcast one's own
    symbol and send each other party its symbol; returns the n symbols."""
    n, t = ctx.params.n, ctx.params.t
    ctx.set_step("symbols")
    shares = ctx.session.codec.encode(message, t + 1, bit_len)
    row = {j: shares[j - 1].share for j in range(1, n + 1)}
    ctx.broadcast("sym_self", row[ctx.pid])
    for j in range(1, n + 1):
        if j != ctx.pid:
            ctx.send(j, "sym_priv", row[j])
    return row


_SYNC_KINDS = ("sym_self", "sym_priv", "v_vec", "e_vec", "maj_val")


def ef_sync_ba(ctx: Ctx, my_input: bytes, sender: int | None = None):
    """Synchronous error-free agreement; falls back to the all-zero message
    when fewer than 2t+1 parties report a usable core set."""
    params = ctx.params
    n, t = params.n, params.t
    # each kind is read after its round, from the list the engine opened
    # at start and delivery filed all of its mail into
    inbox = {kind: ctx.inbox(kind) for kind in _SYNC_KINDS}
    row = _send_symbols(ctx, my_input, params.l)
    ctx.engine.metrics.extra.setdefault("share_bits", 8 * len(row[1]))
    self_sym: dict[int, bytes] = {ctx.pid: row[ctx.pid]}
    priv_sym: dict[int, bytes] = {ctx.pid: row[ctx.pid]}
    yield NEXT_ROUND

    ctx.set_step("vectors")
    for env in inbox["sym_self"]:
        self_sym.setdefault(env.src, env.payload)
    for env in inbox["sym_priv"]:
        priv_sym.setdefault(env.src, env.payload)
    v = 1 << (ctx.pid - 1)
    for j in range(1, n + 1):
        if j != ctx.pid and j in self_sym and j in priv_sym:
            if row[j] == self_sym[j] and row[ctx.pid] == priv_sym[j]:
                v |= 1 << (j - 1)
    vectors: dict[int, int] = {ctx.pid: v}
    ctx.broadcast("v_vec", v)
    yield NEXT_ROUND

    ctx.set_step("core")
    for env in inbox["v_vec"]:
        vectors.setdefault(env.src, env.payload & ((1 << n) - 1))
    edges = [
        (x, y)
        for x in range(1, n + 1)
        for y in range(x + 1, n + 1)
        if x in vectors and y in vectors
        and vectors[x] & (1 << (y - 1)) and vectors[y] & (1 << (x - 1))
    ]
    graph = PartyGraph.from_edges(n, edges)
    result = star(graph, n, t)
    e_set: frozenset[int] = frozenset()
    if result is not NOSTAR:
        fe = derive_fe(graph, result.C, n, t)
        if fe is not None:
            e_set = fe[1]
    flag = 1 if e_set else 0
    ctx.set_step("flags")
    e_vecs: dict[int, int] = {}
    if e_set:
        bitmap = _mask(e_set)
        e_vecs[ctx.pid] = bitmap
        ctx.broadcast("e_vec", bitmap)
    flags = yield from bb_slots(ctx, "flag", flag)

    ctx.set_step("majority")
    ones = [j for j in range(1, n + 1) if flags.get(j) == 1]
    if len(ones) < 2 * t + 1:
        return bytes((params.l + 7) // 8)
    for env in inbox["e_vec"]:
        e_vecs.setdefault(env.src, env.payload)
    maj = _greedy_common_vote(
        [x for x in ones if x in e_vecs], e_vecs, priv_sym, n, t
    )
    if maj is None:
        raise InvariantViolation("a common symbol group must exist once 2t+1 flags carry")
    majs: dict[int, bytes] = {ctx.pid: maj}
    ctx.broadcast("maj_val", maj)
    yield NEXT_ROUND

    ctx.set_step("decode")
    for env in inbox["maj_val"]:
        majs.setdefault(env.src, env.payload)
    payload = _decode_symbol_table(ctx.session.codec, majs, n, t, len(row[1]),
                                   max_errors=t, absent_as_error=True)
    if payload is None:
        raise InvariantViolation("decoding must carry with 2t+1 honest symbols")
    return payload


def ef_async_rb(ctx: Ctx, my_input: bytes | None, sender: int):
    """Asynchronous error-free reliable broadcast: consistency edges arrive
    one acknowledgement pair at a time, the star is re-extracted per new
    edge (over a carried complement matching), and decoding retries as
    symbol votes accumulate (only when a new vote has arrived)."""
    params = ctx.params
    n, t = params.n, params.t
    share_len = rs.share_bits(params.l, t + 1) // 8
    ctx.engine.metrics.extra.setdefault("share_bits", 8 * share_len)

    message: bytes | None = None
    row: dict[int, bytes] = {}
    self_sym: dict[int, bytes] = {}
    priv_sym: dict[int, bytes] = {}
    quorum = 2 * t + 1
    ok_sent: set[int] = set()
    ok_seen: list[set[int]] = [set() for _ in range(n + 1)]  # by acknowledger
    growing = GrowingStar(n, t)
    frozen = False
    flags = RbSlots(ctx, "flag")
    e_vecs: dict[int, int] = {}
    majs: dict[int, bytes] = {}
    decode_tried_at = 0  # len(majs) at the last failed decode; majs only grows
    maj_sent = False

    def adopt_message(m: bytes) -> None:
        nonlocal message
        if message is not None:
            return
        message = m
        row.update(_send_symbols(ctx, message, 8 * len(message)))
        self_sym.setdefault(ctx.pid, row[ctx.pid])
        priv_sym.setdefault(ctx.pid, row[ctx.pid])
        for j in list(self_sym):
            maybe_ok(j)

    def maybe_ok(j: int) -> None:
        if j == ctx.pid or j in ok_sent or not row:
            return
        if j in self_sym and j in priv_sym and row[j] == self_sym[j]:
            ok_sent.add(j)
            ctx.set_step("acks")
            ctx.broadcast("ok", (ctx.pid, j))
            note_ok(ctx.pid, j)

    def note_ok(x: int, y: int) -> None:
        # the edge (x, y) enters the graph once, when the later of its two
        # acknowledgements is first noted
        nonlocal frozen
        if not 1 <= y <= n or x == y:
            return
        seen = ok_seen[x]
        if y in seen:
            return
        seen.add(y)
        if not frozen and x in ok_seen[y]:
            result = growing.add_edge(x, y)
            if result is NOSTAR:
                return
            fe = derive_fe(growing.graph, result.C, n, t)
            if fe is None:
                return
            e_set = fe[1]
            frozen = True
            bitmap = _mask(e_set)
            e_vecs[ctx.pid] = bitmap
            ctx.set_step("flags")
            flags.start(1)
            ctx.broadcast("e_vec", bitmap)

    if ctx.pid == sender and my_input is not None:
        ctx.set_step("payload")
        ctx.broadcast("payload", my_input)
        adopt_message(my_input)

    mail = ctx.reader()
    while True:
        for env in mail.new():
            kind = env.kind
            if kind == "ok":  # most of the mail: Theta(n^2) per party
                x, y = env.payload
                if x == env.src:
                    note_ok(x, y)
            elif kind == "payload" and env.src == sender:
                adopt_message(env.payload)
            elif kind == "sym_self":
                if env.src not in self_sym:
                    self_sym[env.src] = env.payload
                    maybe_ok(env.src)
            elif kind == "sym_priv":
                if env.src not in priv_sym:
                    priv_sym[env.src] = env.payload
                    maybe_ok(env.src)
            elif kind == "e_vec":
                e_vecs.setdefault(env.src, env.payload)
            elif kind == "maj_val":
                majs.setdefault(env.src, env.payload)
            else:
                flags.feed(env)
        if not maj_sent and len(flags.ones) >= quorum:
            maj = _greedy_common_vote(
                [x for x in flags.ones if x in e_vecs], e_vecs, priv_sym, n, t
            )
            if maj is not None:
                maj_sent = True
                majs.setdefault(ctx.pid, maj)
                ctx.set_step("majority")
                ctx.broadcast("maj_val", maj)
        if len(majs) >= quorum and len(majs) > decode_tried_at:
            decode_tried_at = len(majs)
            max_errors = min(len(majs) - quorum, t)
            payload = _decode_symbol_table(ctx.session.codec, majs, n, t, share_len,
                                           max_errors, absent_as_error=False)
            if payload is not None:
                return payload
        yield mail


EF_PROTOCOLS = [
    ProtocolSpec(name="ef-sync-ba-third", mode="rounds", kind="ba", regime="third_sync_ef",
                 party=ef_sync_ba, max_third_only=True,
                 oracles=lambda params, sender: slot_instances("flag", "sync_bb", 1, params.n)),
    ProtocolSpec(name="ef-async-rb-third", mode="events", kind="rb", regime="third_async",
                 party=ef_async_rb, max_third_only=True,
                 oracles=lambda params, sender: slot_instances("flag", "async_rb", 1, params.n)),
]
