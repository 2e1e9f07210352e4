"""Asynchronous authenticated extension protocols for t < n/3.

Same commitment-then-disseminate structure as the synchronous variants, but
steps fire as soon as enough messages arrive. The reliable-broadcast variant
additionally re-distributes after reconstructing, which is what carries a
single honest output to everyone when the sender is faulty.
"""

from __future__ import annotations

from .. import blocks
from ..oracles import ba_oracle, bcast_oracle
from ..simnet import BOT, Ctx, InvariantViolation
from .base import ProtocolSpec, bare_acc, encode_input


class _FwdTracker:
    """First forwarded package per sender, verified against the commitment."""

    def __init__(self, ctx: Ctx, z):
        self.ctx = ctx
        self.z = z
        self.table: dict[int, blocks.SharePackage] = {}
        self.mail = ctx.reader("share_fwd")

    def update(self) -> int:
        for env in self.mail.new():
            if env.src not in self.table and self.ctx.session.codec.verify(
                self.z, env.payload, env.src
            ):
                self.table[env.src] = env.payload
        return len(self.table)


def async_ba_third(ctx: Ctx, my_input: bytes, sender: int | None = None):
    """Agreement for t < n/3 with eventual delivery."""
    params = ctx.params
    ctx.set_step("encode")
    shares, z_mine = encode_input(ctx, my_input)
    z = yield from ba_oracle(ctx, "async_ba_kbit", "ba_commit", z_mine.data, params.k)
    happy = z == z_mine.data
    ctx.set_happy(happy)
    vote = yield from ba_oracle(ctx, "async_ba_bit", "ba_happy", int(happy), 1)
    if vote != 1:
        return BOT
    z_acc = bare_acc(z, params.k)
    ctx.set_step("distribute")
    if happy:
        blocks.distribute(ctx, shares, z_mine, step="distribute")
    ctx.set_step("share")
    packages = ctx.reader("share_pkg")
    mine = None
    while mine is None:
        for env in packages.new():
            if ctx.session.codec.verify(z_acc, env.payload, ctx.pid):
                mine = env.payload
                break
        if mine is None:
            yield packages.wait()
    ctx.broadcast("share_fwd", mine, bits=mine.nominal_bits(), step="share")
    ctx.self_deliver("share_fwd", mine, step="share")
    if happy:
        if z_mine.data != z:
            raise InvariantViolation("happy party's commitment must match the agreed one")
        return my_input
    ctx.set_step("reconstruct")
    tracker = _FwdTracker(ctx, z_acc)
    while tracker.update() < params.n - params.t:
        yield tracker.mail.wait()
    got = ctx.session.codec.reconstruct(tracker.table, z_acc, d0=params.t, b=params.b)
    if got is None:
        raise AssertionError(f"party {ctx.pid}: reconstruction failed after a carried happy vote")
    return got[0]


def async_rb_third(ctx: Ctx, my_input: bytes | None, sender: int):
    """Reliable broadcast for t < n/3: all-or-none delivery under a faulty
    sender; every reconstructing party re-distributes its result."""
    params = ctx.params
    ctx.set_step("payload")
    z_bytes_own = None
    if ctx.pid == sender:
        shares, z_mine = encode_input(ctx, my_input)
        z_bytes_own = z_mine.data
        ctx.broadcast("payload", my_input, bits=params.l, step="payload")
    z = yield from bcast_oracle(ctx, "async_rb", "rb_commit", sender, z_bytes_own, params.k)
    if not isinstance(z, bytes):
        return None  # commitment never resolves to a usable value
    z_acc = bare_acc(z, params.k)

    happy = False
    message = my_input if ctx.pid == sender else None
    happy_known = ctx.pid == sender
    my_shares = None
    if ctx.pid == sender:
        happy = z_mine.data == z
        ctx.set_happy(happy)
        my_shares = shares
        if happy:
            ctx.set_step("distribute")
            blocks.distribute(ctx, my_shares, z_mine, step="distribute")
    forwarded = None
    tracker = _FwdTracker(ctx, z_acc)
    tried = 0  # tracker table size at the last reconstruction
    payloads = ctx.reader("payload")
    packages = ctx.reader("share_pkg")
    mail = ctx.reader()
    while True:
        if not happy_known:
            first = next((e for e in payloads.new() if e.src == sender), None)
            if first is not None:
                happy_known = True
                m = first.payload
                if isinstance(m, bytes):
                    try:
                        cand_shares, cand_z = encode_input(ctx, m)
                    except ValueError:
                        cand_shares, cand_z = None, None
                    if cand_z is not None and cand_z.data == z:
                        happy = True
                        ctx.set_happy(True)
                        message = m
                        my_shares = cand_shares
                        ctx.set_step("distribute")
                        blocks.distribute(ctx, my_shares, cand_z, step="distribute")
        if forwarded is None:
            for env in packages.new():
                if ctx.session.codec.verify(z_acc, env.payload, ctx.pid):
                    forwarded = env.payload
                    ctx.set_step("share")
                    ctx.broadcast("share_fwd", forwarded, bits=forwarded.nominal_bits(), step="share")
                    ctx.self_deliver("share_fwd", forwarded, step="share")
                    break
        if happy and forwarded is not None:
            return message
        if not happy and forwarded is not None and tracker.update() >= params.n - params.t:
            ctx.set_step("reconstruct")
            got = None
            if len(tracker.table) > tried:  # the same table decodes the same way
                tried = len(tracker.table)
                got = ctx.session.codec.reconstruct(tracker.table, z_acc, d0=params.t,
                                                    b=params.b)
            if got is not None:
                m, bit_len = got
                rebuilt, rich = ctx.session.codec.commit(m, params.b, bit_len)
                if rich.data == z:
                    ctx.set_step("redistribute")
                    blocks.distribute(ctx, rebuilt, rich, step="redistribute")
                    return m
                # the committed set decodes but is not the canonical encoding
                # of any message (e.g. padded with extra zero stripes): no
                # party can ever be happy with it and witnesses for canonical
                # shares cannot exist, so nobody outputs - an allowed outcome
                # under a faulty sender
        # any new mail, not only the kinds read above, wakes the loop again
        mail.new()
        yield mail.wait()


ASYNC_PROTOCOLS = [
    ProtocolSpec(name="async-ba-third", mode="events", kind="ba", regime="third_async",
                 party=async_ba_third),
    ProtocolSpec(name="async-rb-third", mode="events", kind="rb", regime="third_async",
                 party=async_rb_third),
]
